"""Exact per-column CART split search: the test oracle for the batched one.

`_best_split` and `_build_tree` are the loop implementation the evaluator used
before its split search was batched over the candidate columns of a node. The
tests require the batched forest to match trees grown with these, node for
node, and a seeded search to give the same report with either.
"""

from __future__ import annotations

import numpy as np

from featforge.evaluator import _TreeNode


def _best_split(x: np.ndarray, y: np.ndarray, classification: bool, n_classes: int, min_leaf: int):
    """Best (threshold, weighted impurity) for one feature; None if no valid split."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    ys = y[order]
    m = len(xs)
    # split positions: after index i (left gets i+1 rows), only where value changes
    cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left sizes
    cut = cut[(cut >= min_leaf) & (m - cut >= min_leaf)]
    if cut.size == 0:
        return None
    if classification:
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), ys.astype(int)] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[cut - 1]
        right = prefix[-1] - left
        nl = cut.astype(float)
        nr = m - nl
        pl = left / nl[:, None]
        pr = right / nr[:, None]
        gini_l = 1.0 - np.sum(pl * pl, axis=1)
        gini_r = 1.0 - np.sum(pr * pr, axis=1)
        score = (nl * gini_l + nr * gini_r) / m
    else:
        s = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        nl = cut.astype(float)
        nr = m - nl
        sl = s[cut - 1]
        sr = s[-1] - sl
        s2l = s2[cut - 1]
        s2r = s2[-1] - s2l
        var_l = s2l / nl - (sl / nl) ** 2
        var_r = s2r / nr - (sr / nr) ** 2
        score = (nl * var_l + nr * var_r) / m
    best = int(np.argmin(score))
    pos = cut[best]
    threshold = 0.5 * (xs[pos - 1] + xs[pos])
    return threshold, float(score[best])


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    classification: bool,
    n_classes: int,
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator,
    depth: int = 0,
) -> _TreeNode:
    def leaf():
        if classification:
            counts = np.bincount(y.astype(int), minlength=n_classes)
            return _TreeNode(value=int(np.argmax(counts)))
        return _TreeNode(value=float(y.mean()))

    if depth >= max_depth or len(y) < 2 * min_leaf or len(np.unique(y)) == 1:
        return leaf()
    n = X.shape[1]
    n_try = int(np.ceil(np.sqrt(n)))
    feats = np.sort(rng.choice(n, size=n_try, replace=False))
    best = None
    for f in feats:
        res = _best_split(X[:, f], y, classification, n_classes, min_leaf)
        if res is None:
            continue
        threshold, score = res
        if best is None or score < best[2]:
            best = (f, threshold, score)
    if best is None:
        return leaf()
    f, threshold, _ = best
    mask = X[:, f] <= threshold
    # midpoints of near-identical values can round onto one of them
    if not mask.any() or mask.all():
        return leaf()
    node = _TreeNode()
    node.feature = int(f)
    node.threshold = float(threshold)
    node.left = _build_tree(X[mask], y[mask], classification, n_classes, max_depth, min_leaf, rng, depth + 1)
    node.right = _build_tree(X[~mask], y[~mask], classification, n_classes, max_depth, min_leaf, rng, depth + 1)
    return node

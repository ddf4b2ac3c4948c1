"""Exact per-column CART split search: the test oracle for the batched one.

`_best_split` is the loop implementation the evaluator used before its split
search was batched over the candidate columns of a node. `forest_reference`
grows trees with it, and the tests require the batched forest to match those
trees node for node and a seeded search to give the same report with either.
"""

from __future__ import annotations

import numpy as np


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

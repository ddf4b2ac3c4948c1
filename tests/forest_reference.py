"""A forest grown one node at a time: the test oracle for the level-wise one.

`grow_forest` takes the arguments of `evaluator._grow_forest` and returns the
same flat arrays, one forest per base of row indices. It grows each forest on
its own, from the base's rows alone, as a fit on them would. It visits the
nodes of all trees depth by depth, in the evaluator's node order, and splits
each one on its own: tree t's generator gives the node its ``n`` uniforms (the
node's row of the evaluator's per-depth draw), and `cart_reference._best_split`
searches its candidate columns one at a time.

`to_nodes` and `_predict_tree` turn the flat arrays back into linked nodes and
walk them row by row, as the evaluator predicted before its trees were flat.
"""

from __future__ import annotations

import numpy as np
from cart_reference import _best_split

from featforge.evaluator import _Trees


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _leaf_value(y: np.ndarray, classification: bool, n_classes: int) -> float:
    if classification:
        return float(np.argmax(np.bincount(y.astype(int), minlength=n_classes)))
    return float(y.mean())


def grow_forest(X, y, bases, classification, spec) -> list:
    return [
        _grow_one(X[b], y[b], classification, int(y[b].max()) + 1 if classification else 0, spec) for b in bases
    ]


def _grow_one(X, y, classification, n_classes, spec) -> _Trees:
    m, n = X.shape
    n_try = int(np.ceil(np.sqrt(n)))
    rngs = [np.random.default_rng(spec.seed * 1_000_003 + t) for t in range(spec.n_trees)]
    # (tree, rows) of each node of the current depth, in node order
    level = [(t, rng.integers(0, m, size=m)) for t, rng in enumerate(rngs)]
    feature, threshold, left, right, value = [], [], [], [], []
    for depth in range(spec.max_depth + 1):
        following = []
        for t, rows in level:
            node = len(feature)
            Xn, yn = X[rows], y[rows]
            feature.append(-1)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            value.append(_leaf_value(yn, classification, n_classes))
            if depth >= spec.max_depth or len(yn) < 2 * spec.min_samples_leaf or len(np.unique(yn)) == 1:
                continue
            feats = np.sort(rngs[t].random(n).argsort(kind="stable")[:n_try])
            best = None
            for f in feats:
                res = _best_split(Xn[:, f], yn, classification, n_classes, spec.min_samples_leaf)
                if res is None:
                    continue
                cut, score = res
                if best is None or score < best[2]:
                    best = (f, cut, score)
            if best is None:
                continue
            f, cut, _ = best
            mask = Xn[:, f] <= cut
            # midpoints of near-identical values can round onto one of them
            if not mask.any() or mask.all():
                continue
            following.append((t, rows[mask], node, f, cut))
            following.append((t, rows[~mask], None, None, None))
        # children are numbered after every node of this depth
        first = len(feature)
        for i, (_, _, node, f, cut) in enumerate(following[::2]):
            feature[node], threshold[node] = int(f), float(cut)
            left[node], right[node] = first + 2 * i, first + 2 * i + 1
        level = [(t, rows) for t, rows, *_ in following]
        if not level:
            break
    return _Trees(
        np.array(feature), np.array(threshold), np.array(left), np.array(right), np.array(value)
    )


def to_nodes(trees: _Trees, node: int) -> _TreeNode:
    """The linked tree under flat node ``node``."""
    if trees.feature[node] < 0:
        return _TreeNode(value=trees.value[node])
    out = _TreeNode()
    out.feature = int(trees.feature[node])
    out.threshold = float(trees.threshold[node])
    out.left = to_nodes(trees, trees.left[node])
    out.right = to_nodes(trees, trees.right[node])
    return out


def _predict_tree(node: _TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        cur = node
        while cur.value is None:
            cur = cur.left if X[i, cur.feature] <= cur.threshold else cur.right
        out[i] = cur.value
    return out


def predict(forest, X, f: int = 0) -> np.ndarray:
    """``forest.predict(X, f)`` by the per-row walk of each linked tree and the same vote."""
    X = np.asarray(X, dtype=float)
    preds = np.stack([_predict_tree(to_nodes(forest.forests[f], t), X) for t in range(forest.spec.n_trees)])
    if forest.classification:
        votes = (preds == np.arange(forest.n_classes)[:, None, None]).sum(axis=1)
        return np.argmax(votes, axis=0).astype(float)
    return preds.mean(axis=0)

"""The KNN anomaly score as it was before it took square roots of the k nearest only.

`knn_anomaly_scores` is the former `evaluator.knn_anomaly_scores`, verbatim:
it takes the square root of every train x test distance before it partitions.
`knn_inputs` yields the seeded inputs on which the tests require the current
function to match it with ``==``: tied distances and test rows that duplicate
train rows among them.
"""

from __future__ import annotations

import numpy as np

from featforge.evaluator import KNN_K, _standardize


def knn_anomaly_scores(train_X, test_X, k: int = KNN_K) -> np.ndarray:
    """Mean distance of each test point to its k nearest train neighbors."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    if k >= len(train_X):
        raise ValueError("k must be < number of reference rows")
    xs, xt = _standardize(train_X, test_X)
    d2 = np.sum(xt**2, axis=1)[:, None] + np.sum(xs**2, axis=1)[None, :] - 2 * xt @ xs.T
    d = np.sqrt(np.maximum(d2, 0.0))
    part = np.sort(np.partition(d, k - 1, axis=1)[:, :k], axis=1)
    return part.mean(axis=1)


def knn_inputs():
    """(train, test, k) triples; test rows start with copies of train rows."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m, n, cols = int(rng.integers(6, 400)), int(rng.integers(1, 60)), int(rng.integers(1, 6))
        # even seeds: few distinct integer values, so many distances tie
        draw = (lambda size: rng.integers(0, 3, size=size).astype(float)) if seed % 2 == 0 else rng.normal
        train = draw(size=(m, cols))
        if seed % 3 == 0:
            train[m // 2 :] = train[: m - m // 2]  # duplicate train rows
        test = np.vstack([train[: n // 2], draw(size=(n - n // 2, cols))])
        yield train, test, int(rng.integers(1, min(m, 40)))

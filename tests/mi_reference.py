"""Per-call MI and the O(n^3) M-Clustering loop: the test oracle for the MI engine.

`discretize`, `mutual_information`, `utility_u`, `mi_matrix` and `m_cluster`
are the implementations featforge used before its MI moved into one
run-scoped engine: every call re-discretizes its columns, fills the joint
counts with `np.add.at`, and `m_cluster` recomputes every group distance on
every merge.  `group_relevance` and `kbest_select` are the per-call callers
that read MI against the target.  The tests require the engine and the
incremental clustering to give the same floats and partitions as these, and a
seeded search to give the same report with either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from featforge.grouping import FeatureGroup, GroupPartition, DEFAULT_EPSILON
from featforge.generation import FeatureTable

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class BinningSpec:
    """The binning featforge's MI took as a parameter; it now fixes 16 bins."""

    max_bins: int = 16


DEFAULT_BINS = BinningSpec()


def _check_vector(x, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return x.ravel()


def discretize(x, spec: BinningSpec = DEFAULT_BINS) -> np.ndarray:
    x = _check_vector(x)
    distinct = np.unique(x)
    if len(distinct) <= spec.max_bins:
        return np.searchsorted(distinct, x)
    n_bins = min(spec.max_bins, max(2, int(np.floor(np.sqrt(len(x))))))
    edges = np.quantile(x, np.arange(1, n_bins) / n_bins)
    return np.searchsorted(edges, x, side="left")


def mutual_information(x, y, spec: BinningSpec = DEFAULT_BINS) -> float:
    x = _check_vector(x)
    y = _check_vector(y, "y")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    lx = discretize(x, spec)
    ly = discretize(y, spec)
    nx = lx.max() + 1
    ny = ly.max() + 1
    joint = np.zeros((nx, ny))
    np.add.at(joint, (lx, ly), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    if -_NEG_TOL <= mi < 0:
        mi = 0.0
    return mi


def utility_u(
    features,
    target,
    spec: BinningSpec = DEFAULT_BINS,
    include_self_redundancy: bool = True,
) -> float:
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    target = _check_vector(target, "target")
    m, n = features.shape
    if m != len(target):
        raise ValueError("feature rows must match target length")
    mi_y = np.array([mutual_information(features[:, i], target, spec) for i in range(n)])
    redundancy = 0.0
    for i in range(n):
        for j in range(i, n):
            mij = mutual_information(features[:, i], features[:, j], spec)
            if i == j:
                if include_self_redundancy:
                    redundancy += mij
            else:
                redundancy += 2.0 * mij
    return float(-redundancy / n**2 + mi_y.mean())


def mi_matrix(features, target, spec: BinningSpec = DEFAULT_BINS):
    features = np.asarray(features, dtype=float)
    target = _check_vector(target, "target")
    m, n = features.shape
    labels = [discretize(features[:, i], spec) for i in range(n)]
    ly = discretize(target, spec)

    def _mi(la, lb) -> float:
        joint = np.zeros((la.max() + 1, lb.max() + 1))
        np.add.at(joint, (la, lb), 1.0)
        joint /= joint.sum()
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        nz = joint > 0
        outer = np.outer(pa, pb)
        v = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
        return 0.0 if -_NEG_TOL <= v < 0 else v

    pair = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            pair[i, j] = pair[j, i] = _mi(labels[i], labels[j])
    target_mi = np.array([_mi(labels[i], ly) for i in range(n)])
    return pair, target_mi


def _distance_from_tables(g1, g2, pair_mi, target_mi, epsilon) -> float:
    rel_diff = np.abs(target_mi[np.array(g1)][:, None] - target_mi[np.array(g2)][None, :])
    red = pair_mi[np.ix_(g1, g2)]
    return float(np.mean(rel_diff / (red + epsilon)))


def _euclidean_group_distance(g1, g2, features: np.ndarray) -> float:
    v1 = features[:, list(g1)].mean(axis=1)
    v2 = features[:, list(g2)].mean(axis=1)
    return float(np.linalg.norm(v1 - v2))


def m_cluster(
    features,
    target,
    stop_threshold="auto",
    epsilon: float = DEFAULT_EPSILON,
    spec: BinningSpec = DEFAULT_BINS,
    metric: str = "relevance_redundancy",
) -> GroupPartition:
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError("need at least one feature column")
    n = features.shape[1]
    if n == 1:
        return GroupPartition(
            groups=(FeatureGroup((0,)),), threshold_used=0.0
        )

    if metric == "relevance_redundancy":
        pair_mi, target_mi = mi_matrix(features, target, spec)

        def dist(g1, g2):
            return _distance_from_tables(g1, g2, pair_mi, target_mi, epsilon)

    elif metric == "euclidean":

        def dist(g1, g2):
            return _euclidean_group_distance(g1, g2, features)

    else:
        raise ValueError(f"unknown metric {metric!r}")

    groups: list[tuple[int, ...]] = [(i,) for i in range(n)]

    initial = [
        dist(groups[a], groups[b]) for a in range(n) for b in range(a + 1, n)
    ]
    if stop_threshold == "auto":
        threshold = float(np.mean(initial))
    else:
        threshold = float(stop_threshold)

    while len(groups) > 2:
        best = None
        best_key = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                d = dist(groups[a], groups[b])
                key = (d, min(groups[a]), min(groups[b]))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (a, b)
        assert best is not None and best_key is not None
        if best_key[0] > threshold:
            break
        a, b = best
        merged = tuple(sorted(groups[a] + groups[b]))
        groups = [g for i, g in enumerate(groups) if i not in (a, b)]
        groups.append(merged)
        groups.sort(key=lambda g: g[0])

    return GroupPartition(
        groups=tuple(FeatureGroup(g) for g in sorted(groups, key=lambda g: g[0])),
        threshold_used=threshold,
    )


def group_relevance(c: FeatureGroup, features, target, spec: BinningSpec = DEFAULT_BINS) -> float:
    features = np.asarray(features, dtype=float)
    vals = [mutual_information(features[:, i], target, spec) for i in c.indices]
    return float(np.mean(vals))


def kbest_select(
    features: FeatureTable, target, k: int, spec: BinningSpec = DEFAULT_BINS
) -> FeatureTable:
    if k < 1:
        raise ValueError("k must be >= 1")
    n = features.n_features
    if k >= n:
        return features
    scores = np.array(
        [mutual_information(features.column(i), target, spec) for i in range(n)]
    )
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    keep = sorted(order[:k])
    return FeatureTable(
        values=features.values[:, keep],
        exprs=tuple(features.exprs[i] for i in keep),
        created_at=tuple(features.created_at[i] for i in keep),
    )

"""Feature grouping: relevance/redundancy group distance and agglomerative merging.

A group distance is the mean of a block of single-feature distances, so
M-Clustering is average linkage with a stop threshold: the closest pair of
groups merges until their distance exceeds it or 2 groups remain (the cascading
agents need two).  The Euclidean ablation, between group means, is centroid linkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from featforge.measures import MIEngine, named_columns

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class FeatureGroup:
    """A sorted, non-empty set of feature column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("feature group must be non-empty")
        if list(self.indices) != sorted(set(self.indices)):
            object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GroupPartition:
    groups: tuple[FeatureGroup, ...]
    threshold_used: float

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if seen & set(g.indices):
                raise ValueError("groups must be pairwise disjoint")
            seen.update(g.indices)


def group_distance(
    c1: FeatureGroup, c2: FeatureGroup, features, target, epsilon: float = DEFAULT_EPSILON
) -> float:
    """Mean over cross pairs of |MI(f_i,y) - MI(f_j,y)| / (MI(f_i,f_j) + eps).

    The throwaway engine sees only the two groups' columns, in table order, so
    each pair's MI is computed in the same orientation as over the whole table.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mi, names, values = named_columns(features, target, None)
    cols = sorted(set(c1.indices) | set(c2.indices))
    names, values = [names[i] for i in cols], values[:, cols]
    g1, g2 = (tuple(cols.index(i) for i in c.indices) for c in (c1, c2))
    singles = _single_distances(mi.pair_mi(names, values), mi.target_mi(names, values), epsilon)
    return float(np.mean(singles[np.ix_(g1, g2)]))


def _single_distances(pair_mi: np.ndarray, target_mi: np.ndarray, epsilon: float) -> np.ndarray:
    """n x n distances between single features; a group distance is the mean of a block."""
    return np.abs(target_mi[:, None] - target_mi[None, :]) / (pair_mi + epsilon)


def m_cluster(
    features,
    target,
    stop_threshold="auto",
    epsilon: float = DEFAULT_EPSILON,
    metric: str = "relevance_redundancy",
    mi: MIEngine | None = None,
) -> GroupPartition:
    """Agglomerative grouping under the group distance.

    Merging stops when the closest pair is farther apart than the threshold or
    when 2 groups remain.  ``stop_threshold="auto"`` uses the mean of the
    initial pairwise singleton distances.  Ties break toward the pair with the
    lexicographically smallest member indices, so results are deterministic.
    ``features`` is an m x n array or a FeatureTable; ``mi`` is the run's engine.

    ``dist`` is one symmetric matrix indexed by each group's smallest member,
    +inf on the diagonal and for merged-away groups, so the first row-major
    minimum is the tie-break's pair.  A merge writes one Lance-Williams row: the
    size-weighted mean of the two rows, less na*nb/(na+nb)^2 * dist[a, b] for the
    Euclidean metric, which holds squared distances and compares their roots.
    """
    mi, names, values = named_columns(features, target, mi)
    n = values.shape[1]
    if n == 1:
        return GroupPartition(groups=(FeatureGroup((0,)),), threshold_used=0.0)

    upper = np.triu_indices(n, 1)
    if metric == "relevance_redundancy":
        dist = _single_distances(mi.pair_mi(names, values), mi.target_mi(names, values), epsilon)
        root = np.asarray  # the distances themselves
    elif metric == "euclidean":
        dist = np.empty((n, n))
        for a, b in zip(*upper):
            u = values[:, a] - values[:, b]
            dist[a, b] = dist[b, a] = np.dot(u, u)  # sqrt of this is np.linalg.norm(u)
        root = np.sqrt
    else:
        raise ValueError(f"unknown metric {metric!r}")
    np.fill_diagonal(dist, np.inf)

    if stop_threshold == "auto":
        threshold = float(np.mean(root(dist[upper])))
    else:
        threshold = float(stop_threshold)

    size = np.ones(n)  # members of the group named by its smallest member; 0 once merged away
    owner = np.arange(n)  # each feature's group
    for _ in range(n - 2):
        a, b = divmod(int(np.argmin(dist)), n)
        d = dist[a, b]
        if root(d) > threshold:
            break
        if d == np.inf:  # every distance is infinite: the first pair
            a, b = np.flatnonzero(size)[:2]
        na, nb = size[a], size[b]
        row = (na * dist[a] + nb * dist[b]) / (na + nb)
        if metric == "euclidean" and d < np.inf:
            row -= na * nb / (na + nb) ** 2 * d
        dist[a], dist[:, a] = row, row
        dist[b], dist[:, b] = np.inf, np.inf
        size[a], size[b] = na + nb, 0
        owner[owner == b] = a

    return GroupPartition(
        groups=tuple(
            FeatureGroup(tuple(np.flatnonzero(owner == k).tolist())) for k in np.flatnonzero(size)
        ),
        threshold_used=threshold,
    )


def group_relevance(c: FeatureGroup, features, target, mi: MIEngine | None = None) -> float:
    """Mean MI between the group's features and the target."""
    mi, names, values = named_columns(features, target, mi)
    idx = list(c.indices)
    return float(np.mean(mi.target_mi([names[i] for i in idx], values[:, idx])))

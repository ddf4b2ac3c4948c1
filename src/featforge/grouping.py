"""Feature grouping: relevance/redundancy group distance and agglomerative merging.

Groups start as singletons and the closest pair is merged until the minimum
pairwise distance exceeds a threshold (or only 2 groups remain, since the
cascading agents need two selectable groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from featforge.measures import (
    BinningSpec,
    DEFAULT_BINS,
    MIEngine,
    mutual_information,
    named_columns,
)

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
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if seen & set(g.indices):
                raise ValueError("groups must be pairwise disjoint")
            seen.update(g.indices)


def group_distance(
    c1: FeatureGroup,
    c2: FeatureGroup,
    features,
    target,
    epsilon: float = DEFAULT_EPSILON,
    spec: BinningSpec = DEFAULT_BINS,
) -> float:
    """Mean over cross pairs of |MI(f_i,y) - MI(f_j,y)| / (MI(f_i,f_j) + eps)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    features = np.asarray(features, dtype=float)
    total = 0.0
    for i in c1.indices:
        for j in c2.indices:
            rel_i = mutual_information(features[:, i], target, spec)
            rel_j = mutual_information(features[:, j], target, spec)
            red = mutual_information(features[:, i], features[:, j], spec)
            total += abs(rel_i - rel_j) / (red + epsilon)
    return total / (len(c1) * len(c2))


def _distance_from_tables(
    g1: tuple[int, ...],
    g2: tuple[int, ...],
    pair_mi: np.ndarray,
    target_mi: np.ndarray,
    epsilon: float,
) -> float:
    rel_diff = np.abs(target_mi[np.array(g1)][:, None] - target_mi[np.array(g2)][None, :])
    red = pair_mi[np.ix_(g1, g2)]
    return float(np.mean(rel_diff / (red + epsilon)))


def _euclidean_group_distance(g1, g2, features: np.ndarray) -> float:
    """Ablation metric: Euclidean distance between group mean vectors."""
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
    mi: MIEngine | None = None,
) -> GroupPartition:
    """Agglomerative grouping under the group distance.

    Merging stops when the closest pair is farther apart than the threshold or
    when 2 groups remain.  ``stop_threshold="auto"`` uses the mean of the
    initial pairwise singleton distances.  Ties break toward the pair with the
    lexicographically smallest member indices, so results are deterministic.
    ``features`` is an m x n array or a FeatureTable; ``mi`` is the run's engine.

    Each merge recomputes only the merged group's distances.  ``dist[a, b]``
    holds the distance between the groups whose smallest members are a < b and
    +inf elsewhere, so the first row-major minimum is the tie-break's pair.
    """
    mi, names, values = named_columns(features, target, spec, mi)
    n = values.shape[1]
    if n == 1:
        return GroupPartition(
            groups=(FeatureGroup((0,)),), threshold_used=0.0, epsilon=epsilon
        )

    upper = np.triu_indices(n, 1)
    dist = np.full((n, n), np.inf)
    if metric == "relevance_redundancy":
        pair_mi, target_mi = mi.pair_mi(names, values), mi.target_mi(names, values)

        def group_dist(g1, g2):
            return _distance_from_tables(g1, g2, pair_mi, target_mi, epsilon)

        singles = np.abs(target_mi[:, None] - target_mi[None, :]) / (pair_mi + epsilon)
        dist[upper] = singles[upper]
    elif metric == "euclidean":

        def group_dist(g1, g2):
            return _euclidean_group_distance(g1, g2, values)

        dist[upper] = [group_dist((a,), (b,)) for a, b in zip(*upper)]
    else:
        raise ValueError(f"unknown metric {metric!r}")

    if stop_threshold == "auto":
        threshold = float(np.mean(dist[upper]))
    else:
        threshold = float(stop_threshold)

    groups = {i: (i,) for i in range(n)}  # keyed by smallest member
    while len(groups) > 2:
        a, b = divmod(int(np.argmin(dist)), n)
        if dist[a, b] > threshold:
            break
        if dist[a, b] == np.inf:  # every distance is infinite: the first pair
            a, b = sorted(groups)[:2]
        merged = tuple(sorted(groups.pop(a) + groups.pop(b)))
        groups[a] = merged
        dist[b, :] = dist[:, b] = np.inf
        for k, g in groups.items():
            if k < a:
                dist[k, a] = group_dist(g, merged)
            elif k > a:
                dist[a, k] = group_dist(merged, g)

    return GroupPartition(
        groups=tuple(FeatureGroup(groups[k]) for k in sorted(groups)),
        threshold_used=threshold,
        epsilon=epsilon,
    )


def group_relevance(
    c: FeatureGroup,
    features,
    target,
    spec: BinningSpec = DEFAULT_BINS,
    mi: MIEngine | None = None,
) -> float:
    """Mean MI between the group's features and the target."""
    mi, names, values = named_columns(features, target, spec, mi)
    idx = list(c.indices)
    return float(np.mean(mi.target_mi([names[i] for i in idx], values[:, idx])))

import mi_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featforge.grouping import (
    FeatureGroup,
    GroupPartition,
    _single_distances,
    group_distance,
    group_relevance,
    m_cluster,
)
from featforge.generation import FeatureTable
from featforge.measures import MIEngine, mutual_information
from featforge.operators import FeatureExpr


def random_problem(seed, m=40, n=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, n)), rng.normal(size=m)


class TestFeatureGroup:
    def test_sorted_dedup(self):
        g = FeatureGroup((3, 1, 3, 2))
        assert g.indices == (1, 2, 3)
        assert len(g) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureGroup(())


class TestGroupPartition:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            GroupPartition(
                groups=(FeatureGroup((0, 1)), FeatureGroup((1, 2))),
                threshold_used=1.0,
            )


class TestGroupDistance:
    def test_matches_full_table(self):
        """Reading only the two groups' columns gives the distance over the whole table, ``==``."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            features, target = random_problem(seed, m=int(rng.integers(10, 80)), n=int(rng.integers(2, 9)))
            n = features.shape[1]
            c1, c2 = (FeatureGroup(tuple(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))) for _ in range(2))
            mi = MIEngine(target)
            names = range(n)
            full = mi_reference._distance_from_tables(
                c1.indices, c2.indices, mi.pair_mi(names, features), mi.target_mi(names, features), 1e-6
            )
            assert group_distance(c1, c2, features, target) == full
            table = FeatureTable(values=features, exprs=tuple(FeatureExpr.leaf(f"f{i}") for i in range(n)))
            assert group_distance(c1, c2, table, target) == full

    def test_same_singleton_is_zero(self):
        features, target = random_problem(0)
        g = FeatureGroup((2,))
        assert group_distance(g, g, features, target) == 0.0

    def test_derived_substitution(self):
        pair_mi = np.array([[0.9, 0.2], [0.2, 0.8]])
        target_mi = np.array([0.4, 0.1])
        d = _single_distances(pair_mi, target_mi, 1e-6)[0, 1]
        assert d == mi_reference._distance_from_tables((0,), (1,), pair_mi, target_mi, 1e-6)
        expected = abs(0.4 - 0.1) / (0.2 + 1e-6)
        assert abs(d - expected) < 1e-12
        assert abs(d - 1.4999925000374998) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        features, target = random_problem(seed)
        rng = np.random.default_rng(seed + 1)
        idx = rng.permutation(5)
        c1 = FeatureGroup(tuple(int(i) for i in idx[:2]))
        c2 = FeatureGroup(tuple(int(i) for i in idx[2:4]))
        d12 = group_distance(c1, c2, features, target)
        d21 = group_distance(c2, c1, features, target)
        assert d12 >= 0.0
        assert abs(d12 - d21) < 1e-12

    def test_matches_per_pair_formula(self):
        features, target = random_problem(7)
        c1 = FeatureGroup((0, 2))
        c2 = FeatureGroup((1, 4))
        per_pair = [
            abs(mutual_information(features[:, i], target) - mutual_information(features[:, j], target))
            / (mutual_information(features[:, i], features[:, j]) + 1e-6)
            for i in c1.indices
            for j in c2.indices
        ]
        assert abs(group_distance(c1, c2, features, target) - np.mean(per_pair)) < 1e-12

    def test_bad_epsilon(self):
        features, target = random_problem(1)
        with pytest.raises(ValueError):
            group_distance(
                FeatureGroup((0,)), FeatureGroup((1,)), features, target, epsilon=0.0
            )


class TestMCluster:
    def test_identical_copies_merge_first(self):
        rng = np.random.default_rng(3)
        f1 = rng.normal(size=60)
        f3 = rng.normal(size=60)
        features = np.column_stack([f1, f1, f3])
        target = rng.normal(size=60)
        partition = m_cluster(features, target, stop_threshold=np.inf)
        member_sets = [set(g.indices) for g in partition.groups]
        assert {0, 1} in member_sets

    def test_single_feature(self):
        features, target = random_problem(4, n=1)
        partition = m_cluster(features, target)
        assert len(partition.groups) == 1
        assert partition.groups[0].indices == (0,)

    def test_floor_of_two_groups(self):
        features, target = random_problem(5)
        partition = m_cluster(features, target, stop_threshold=np.inf)
        assert len(partition.groups) == 2

    def test_zero_threshold_keeps_singletons(self):
        features, target = random_problem(6)
        partition = m_cluster(features, target, stop_threshold=0.0)
        assert len(partition.groups) == 5

    def test_auto_threshold_value(self):
        features, target = random_problem(8, n=4)
        partition = m_cluster(features, target)
        dists = [
            group_distance(FeatureGroup((a,)), FeatureGroup((b,)), features, target)
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        assert abs(partition.threshold_used - np.mean(dists)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_partition_property(self, seed):
        features, target = random_problem(seed, n=6)
        partition = m_cluster(features, target)
        covered = sorted(i for g in partition.groups for i in g.indices)
        assert covered == list(range(6))
        assert len(partition.groups) >= 2

    def test_deterministic(self):
        features, target = random_problem(9, n=7)
        a = m_cluster(features, target)
        b = m_cluster(features, target)
        assert a == b

    def test_euclidean_metric_variant(self):
        features, target = random_problem(10, n=4)
        partition = m_cluster(features, target, metric="euclidean")
        covered = sorted(i for g in partition.groups for i in g.indices)
        assert covered == list(range(4))

    def test_unknown_metric(self):
        features, target = random_problem(11)
        with pytest.raises(ValueError):
            m_cluster(features, target, metric="manhattan")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_cluster(np.empty((5, 0)), np.zeros(5))


class TestGroupRelevance:
    def test_singleton(self):
        features, target = random_problem(12)
        g = FeatureGroup((1,))
        expected = mutual_information(features[:, 1], target)
        assert abs(group_relevance(g, features, target) - expected) < 1e-12

    def test_mean_over_members(self):
        features, target = random_problem(13)
        g = FeatureGroup((0, 3))
        expected = 0.5 * (
            mutual_information(features[:, 0], target)
            + mutual_information(features[:, 3], target)
        )
        assert abs(group_relevance(g, features, target) - expected) < 1e-12

    def test_identical_pair_equals_single(self):
        rng = np.random.default_rng(14)
        f = rng.normal(size=50)
        target = rng.normal(size=50)
        features = np.column_stack([f, f])
        both = group_relevance(FeatureGroup((0, 1)), features, target)
        one = group_relevance(FeatureGroup((0,)), features, target)
        assert abs(both - one) < 1e-12

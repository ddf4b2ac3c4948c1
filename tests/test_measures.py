import json

import mi_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featforge import generation, measures, pipeline
from featforge.data_core import Dataset, Task
from featforge.generation import FeatureTable
from featforge.grouping import FeatureGroup, group_relevance, m_cluster
from featforge.measures import (
    BinningSpec,
    MIEngine,
    cosine_similarity,
    descriptive_stats,
    discretize,
    entropy,
    mi_matrix,
    mutual_information,
    pearson_abs,
    utility_u,
)
from featforge.operators import FeatureExpr


def plugin_mi(lx, ly):
    """Independent joint-count plug-in oracle over integer labels."""
    lx = np.asarray(lx)
    ly = np.asarray(ly)
    total = 0.0
    m = len(lx)
    for a in np.unique(lx):
        for b in np.unique(ly):
            pab = np.mean((lx == a) & (ly == b))
            if pab == 0:
                continue
            total += pab * np.log(pab / (np.mean(lx == a) * np.mean(ly == b)))
    return total


class TestDiscretize:
    def test_distinct_value_rule(self):
        assert np.array_equal(discretize([0, 0, 1, 1]), [0, 0, 1, 1])

    def test_constant(self):
        assert np.array_equal(discretize([5, 5, 5]), [0, 0, 0])

    def test_rank_mapping(self):
        assert np.array_equal(discretize([30, 10, 20]), [2, 0, 1])

    def test_equal_frequency_100_uniform(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=100)
        labels = discretize(x, BinningSpec(max_bins=4))
        _, counts = np.unique(labels, return_counts=True)
        assert np.array_equal(counts, [25, 25, 25, 25])

    def test_boundary_goes_to_lower_bin(self):
        x = np.concatenate([np.arange(100, dtype=float), [74.0]])
        spec = BinningSpec(max_bins=4)
        labels = discretize(x, spec)
        edges = np.quantile(x, [0.25, 0.5, 0.75])
        on_edge = np.flatnonzero(x == edges[2])
        assert len(on_edge) > 0
        assert np.all(labels[on_edge] == 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            discretize([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            discretize(np.r_[np.arange(30.0), bad])

    def test_bin_count_formula(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=50)
        labels = discretize(x)
        assert labels.max() + 1 == min(16, max(2, int(np.floor(np.sqrt(50)))))


class TestEntropy:
    def test_two_equiprobable(self):
        assert abs(entropy([0, 0, 1, 1]) - np.log(2)) < 1e-12

    def test_constant(self):
        assert entropy([7, 7, 7, 7]) == 0.0

    def test_three_one_split(self):
        expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        value = entropy([0, 0, 0, 1])
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.5623351446188083) < 1e-12


class TestMutualInformation:
    def test_self_is_entropy(self):
        x = [0, 0, 1, 1]
        assert abs(mutual_information(x, x) - np.log(2)) < 1e-12

    def test_independent(self):
        assert mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_derived_value(self):
        value = mutual_information([0, 0, 1, 1], [0, 0, 0, 1])
        assert abs(value - plugin_mi([0, 0, 1, 1], [0, 0, 0, 1])) < 1e-12
        assert abs(value - 0.21576155433883565) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information([1, 2], [1, 2, 3])

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            mutual_information([1.0], [1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=60).astype(float)
        y = rng.integers(0, 3, size=60).astype(float)
        mi = mutual_information(x, y)
        assert mi >= 0.0
        assert mi <= min(entropy(x), entropy(y)) + 1e-9

    def test_mi_xx_equals_entropy_discrete(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, size=80).astype(float)
        assert abs(mutual_information(x, x) - entropy(x)) < 1e-12


def brute_force_utility(features, target):
    features = np.asarray(features, dtype=float)
    n = features.shape[1]
    red = sum(
        mutual_information(features[:, i], features[:, j])
        for i in range(n)
        for j in range(n)
    )
    rel = sum(mutual_information(features[:, i], target) for i in range(n))
    return -red / n**2 + rel / n


class TestUtilityU:
    def test_single_feature_identity(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=50)
        y = rng.integers(0, 2, size=50).astype(float)
        expected = mutual_information(f, y) - entropy(f)
        assert abs(utility_u(f, y) - expected) < 1e-12

    def test_feature_equals_target(self):
        y = np.array([0.0, 1.0] * 10)
        assert abs(utility_u(y, y)) < 1e-12

    def test_duplicate_feature_utility(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=60)
        y = rng.normal(size=60)
        assert entropy(f) > 0
        # With the diagonal included, duplication is exactly neutral: the
        # redundancy term stays H(f) and the relevance term stays MI(f, y).
        single = utility_u(f[:, None], y)
        doubled = utility_u(np.column_stack([f, f]), y)
        assert abs(doubled - single) < 1e-12
        # With the diagonal excluded it is a strict penalty.
        single_x = utility_u(f[:, None], y, include_self_redundancy=False)
        doubled_x = utility_u(
            np.column_stack([f, f]), y, include_self_redundancy=False
        )
        assert doubled_x < single_x

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(30, 3))
        target = rng.normal(size=30)
        assert abs(utility_u(features, target) - brute_force_utility(features, target)) < 1e-12

    def test_exclude_self_redundancy_switch(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(40, 2))
        target = rng.normal(size=40)
        with_diag = utility_u(features, target)
        without = utility_u(features, target, include_self_redundancy=False)
        diag = sum(
            mutual_information(features[:, i], features[:, i]) for i in range(2)
        )
        assert abs((without - with_diag) - diag / 4) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            utility_u(np.ones((5, 2)), np.ones(4))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="need at least one feature column"):
            utility_u(np.empty((5, 0)), np.arange(5.0))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            utility_u(np.ones((1, 2)), np.ones(1))


class TestMiMatrix:
    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, 4))
        target = rng.normal(size=40)
        pair, rel = mi_matrix(features, target)
        for i in range(4):
            for j in range(4):
                direct = mutual_information(features[:, i], features[:, j])
                assert abs(pair[i, j] - direct) < 1e-12
            assert abs(rel[i] - mutual_information(features[:, i], target)) < 1e-12
        assert np.allclose(pair, pair.T)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="need at least one feature column"):
            mi_matrix(np.empty((5, 0)), np.arange(5.0))


def named_table(values, names):
    return FeatureTable(
        values=values, exprs=tuple(FeatureExpr.leaf(n) for n in names)
    )


class TestMIEngine:
    def test_reads_each_column_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        table = named_table(rng.normal(size=(40, 4)), ("a", "b", "c", "d"))
        target = rng.normal(size=40)
        mi = MIEngine(target)
        first = utility_u(table, target, mi=mi)
        relevance = [mutual_information(table.column(i), target) for i in range(4)]
        calls = []
        monkeypatch.setattr(measures, "discretize", lambda *a: calls.append(a))
        assert utility_u(table, target, mi=mi) == first
        assert mi_matrix(table, target, mi=mi)[1].tolist() == relevance
        assert calls == []

    def test_pairs_keep_table_order(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.normal(size=(60, 2)), 1)
        target = rng.normal(size=60)
        mi = MIEngine(target)
        forward = mi_matrix(named_table(values, ("a", "b")), target, mi=mi)[0]
        backward = mi_matrix(named_table(values[:, ::-1], ("b", "a")), target, mi=mi)[0]
        assert forward[0, 1] == mutual_information(values[:, 0], values[:, 1])
        assert backward[0, 1] == mutual_information(values[:, 1], values[:, 0])

    def test_shared_engine_needs_names(self):
        target = np.arange(10.0)
        with pytest.raises(ValueError, match="named columns"):
            utility_u(np.ones((10, 2)), target, mi=MIEngine(target))

    def test_engine_of_another_target_rejected(self):
        table = named_table(np.ones((10, 1)), ("a",))
        with pytest.raises(ValueError, match="another target"):
            utility_u(table, np.arange(10.0), mi=MIEngine(np.arange(10.0)[::-1]))
        with pytest.raises(ValueError, match="another target"):
            utility_u(
                table, np.arange(10.0), mi=MIEngine(np.arange(10.0), BinningSpec(4))
            )

    def test_search_bins_each_column_once(self, monkeypatch):
        data = merging_fixture()
        names = set(data.feature_names)
        calls = []
        binned = measures.discretize
        merge = pipeline.postprocess

        def counting(x, spec=measures.DEFAULT_BINS):
            calls.append(1)
            return binned(x, spec)

        def collecting(existing, generated, step=0):
            out = merge(existing, generated, step)
            names.update(out.names)
            return out

        monkeypatch.setattr(measures, "discretize", counting)
        monkeypatch.setattr(pipeline, "postprocess", collecting)
        pipeline.run_grfg(data, pipeline.PipelineConfig(epochs=1, steps_per_epoch=4))
        assert 0 < len(calls) <= len(names) + 1


def merging_fixture(m=150):
    """3-class data in two correlated column blocks, so M-Clustering merges."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(m, 2))
    cols = [base[:, k // 3] + 0.1 * rng.normal(size=m) for k in range(6)]
    samples = np.round(np.column_stack(cols), 2)
    target = np.digitize(base[:, 0] + base[:, 1], [-0.5, 0.5]).astype(float)
    return Dataset(
        samples=samples,
        feature_names=tuple(f"f{k}" for k in range(6)),
        target=target,
        task=Task.CLASSIFICATION,
    )


class TestExactMI:
    """The engine and the incremental clustering give the per-call reference's floats."""

    def test_functions_match_reference(self):
        rng = np.random.default_rng(2025)
        thresholds = ("auto", np.inf, 0.0, 0.5)
        metrics = ("relevance_redundancy", "euclidean")
        for trial in range(320):
            m = int(rng.integers(5, 121))
            n = int(rng.integers(1, 26))
            # rounding and repeated columns force tied bins and tied distances
            X = np.round(rng.normal(size=(m, n)), int(rng.integers(0, 4)))
            if n > 2:
                X[:, rng.integers(n)] = X[:, rng.integers(n)]
                X[:, rng.integers(n)] = 2.5
            if trial % 2:
                y = rng.integers(0, 3, size=m).astype(float)
            else:
                y = rng.normal(size=m)
            diag = trial % 8 < 4
            assert utility_u(X, y, include_self_redundancy=diag) == mi_reference.utility_u(
                X, y, include_self_redundancy=diag
            ), f"trial {trial}"
            pair, rel = mi_matrix(X, y)
            ref_pair, ref_rel = mi_reference.mi_matrix(X, y)
            assert pair.tolist() == ref_pair.tolist(), f"trial {trial}"
            assert rel.tolist() == ref_rel.tolist(), f"trial {trial}"
            assert mutual_information(X[:, 0], y) == mi_reference.mutual_information(X[:, 0], y)
            group = FeatureGroup(tuple(range(0, n, 2)))
            assert group_relevance(group, X, y) == mi_reference.group_relevance(group, X, y)
            threshold = thresholds[trial % 4]
            metric = metrics[(trial // 4) % 2]
            partition = m_cluster(X, y, stop_threshold=threshold, metric=metric)
            expected = mi_reference.m_cluster(X, y, stop_threshold=threshold, metric=metric)
            assert partition == expected, f"trial {trial}"

    def test_infinite_distances_merge_in_order(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 6)) * 1e200
        y = rng.normal(size=20)
        with np.errstate(over="ignore"):
            for threshold in ("auto", np.inf, 0.5):
                partition = m_cluster(X, y, stop_threshold=threshold, metric="euclidean")
                expected = mi_reference.m_cluster(
                    X, y, stop_threshold=threshold, metric="euclidean"
                )
                assert partition == expected

    def test_seeded_searches_match_reference(self, monkeypatch):
        data = merging_fixture()
        cfg = pipeline.PipelineConfig(epochs=1, steps_per_epoch=5, seed=3)
        sizes = []
        cluster = pipeline.m_cluster

        def sizing(*args, **kwargs):
            partition = cluster(*args, **kwargs)
            sizes.append(max(len(g) for g in partition.groups))
            return partition

        monkeypatch.setattr(pipeline, "m_cluster", sizing)
        runs = [pipeline.run_grfg(data, cfg), pipeline.run_rdg_baseline(data, cfg)]
        assert max(sizes) > 1  # the clustering merged

        def ref_cluster(features, target, stop_threshold, epsilon, metric, mi):
            return mi_reference.m_cluster(
                features.values, target, stop_threshold, epsilon, metric=metric
            )

        def ref_relevance(c, features, target, spec=measures.DEFAULT_BINS, mi=None):
            return mi_reference.group_relevance(c, features.values, target, spec)

        def ref_kbest(features, target, k, spec=measures.DEFAULT_BINS, mi=None):
            return mi_reference.kbest_select(features, target, k, spec)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "m_cluster", ref_cluster)
            patch.setattr(
                pipeline, "utility_u", lambda f, y, mi=None: mi_reference.utility_u(f.values, y)
            )
            patch.setattr(generation, "group_relevance", ref_relevance)
            patch.setattr(generation, "kbest_select", ref_kbest)
            refs = [pipeline.run_grfg(data, cfg), pipeline.run_rdg_baseline(data, cfg)]
        for (report, best), (ref_report, ref_best) in zip(runs, refs):
            assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
                ref_report.to_dict(), sort_keys=True
            )
            assert np.array_equal(best.table.values, ref_best.table.values)


class TestCosineSimilarity:
    def test_identical(self):
        assert abs(cosine_similarity([1, 2, 3], [1, 2, 3]) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_derived(self):
        assert abs(cosine_similarity([1, 2], [2, 1]) - 0.8) < 1e-12

    def test_zero_norm(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0


class TestPearsonAbs:
    def test_linear(self):
        x = np.arange(10.0)
        assert abs(pearson_abs(x, 3 * x + 1) - 1.0) < 1e-12
        assert abs(pearson_abs(x, -2 * x) - 1.0) < 1e-12

    def test_constant_is_zero(self):
        assert pearson_abs(np.ones(5), np.arange(5.0)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r = pearson_abs(rng.normal(size=15), rng.normal(size=15))
            assert 0.0 <= r <= 1.0


class TestDescriptiveStats:
    def test_derived_1234(self):
        s = descriptive_stats([1, 2, 3, 4])
        assert s.count == 4
        assert abs(s.std - 1.2909944487358056) < 1e-12
        assert s.min == 1 and s.max == 4
        assert (s.q1, s.q2, s.q3) == (1.75, 2.5, 3.25)

    def test_singleton(self):
        s = descriptive_stats([5])
        assert s.as_array().tolist() == [1, 0, 5, 5, 5, 5, 5]

    def test_constant(self):
        s = descriptive_stats([2, 2, 2, 2])
        assert s.as_array().tolist() == [4, 0, 2, 2, 2, 2, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        a = descriptive_stats(x).as_array()
        b = descriptive_stats(rng.permutation(x)).as_array()
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            descriptive_stats([])

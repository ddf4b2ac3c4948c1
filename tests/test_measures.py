import json

import encoder_reference
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
    MIEngine,
    abs_correlations,
    cosine_similarity,
    descriptive_stats,
    discretize,
    entropy,
    mutual_information,
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

    def test_equal_frequency_256_uniform(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=256)
        labels = discretize(x)
        _, counts = np.unique(labels, return_counts=True)
        assert np.array_equal(counts, [16] * 16)

    def test_boundary_goes_to_lower_bin(self):
        x = np.concatenate([np.arange(256, dtype=float), [191.0]])
        labels = discretize(x)
        edges = np.quantile(x, np.arange(1, 16) / 16)
        on_edge = np.flatnonzero(x == edges[11])
        assert len(on_edge) > 0
        assert np.all(labels[on_edge] == 11)

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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(30, 3))
        target = rng.normal(size=30)
        assert abs(utility_u(features, target) - brute_force_utility(features, target)) < 1e-12

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
        mi = MIEngine(target)
        pair, rel = mi.pair_mi(range(4), features), mi.target_mi(range(4), features)
        for i in range(4):
            for j in range(4):
                direct = mutual_information(features[:, i], features[:, j])
                assert abs(pair[i, j] - direct) < 1e-12
            assert abs(rel[i] - mutual_information(features[:, i], target)) < 1e-12
        assert np.allclose(pair, pair.T)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="need at least one feature column"):
            m_cluster(np.empty((5, 0)), np.arange(5.0))


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
        assert mi.target_mi(table.names, table.values).tolist() == relevance
        assert calls == []

    def test_pairs_keep_table_order(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.normal(size=(60, 2)), 1)
        target = rng.normal(size=60)
        mi = MIEngine(target)
        forward = mi.pair_mi(("a", "b"), values)
        backward = mi.pair_mi(("b", "a"), values[:, ::-1])
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

    def test_search_bins_each_column_once(self, monkeypatch):
        data = merging_fixture()
        names = set(data.feature_names)
        calls = []
        binned = measures.discretize
        merge = pipeline.postprocess

        def counting(x):
            calls.append(1)
            return binned(x)

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


def correlated_blocks(rng, m):
    """8 latent factors seen through 5 noisy copies each, plus 12 products of two copies."""
    z = rng.normal(size=(m, 8))
    x = np.repeat(z, 5, axis=1) + 0.5 * rng.normal(size=(m, 40))
    i, j = rng.integers(40, size=(2, 12))
    y = np.digitize(z[:, 0] * z[:, 1] + 0.7 * z[:, 2], (-0.45, 0.45)).astype(float)
    return np.column_stack([x, x[:, i] * x[:, j]]), y


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
            assert utility_u(X, y) == mi_reference.utility_u(X, y), f"trial {trial}"
            engine = MIEngine(y)
            pair, rel = engine.pair_mi(range(n), X), engine.target_mi(range(n), X)
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
        # correlated column blocks, as in the benchmark's classification workload,
        # widened to 52 columns: ~50-merge chains of row updates
        for seed in range(3):
            X, y = correlated_blocks(np.random.default_rng(seed), 160)
            for threshold in ("auto", np.inf):
                for metric in metrics:
                    partition = m_cluster(X, y, stop_threshold=threshold, metric=metric)
                    expected = mi_reference.m_cluster(X, y, stop_threshold=threshold, metric=metric)
                    assert partition == expected, (seed, threshold, metric)

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

        def ref_relevance(c, features, target, mi=None):
            return mi_reference.group_relevance(c, features.values, target)

        def ref_kbest(features, target, k, mi=None):
            return mi_reference.kbest_select(features, target, k)

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


def pearson_abs(x, y):
    return abs_correlations(np.column_stack([x, y]))[0, 1]


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

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            abs_correlations(np.ones((1, 3)))

    def test_matches_pairwise_loop(self):
        """Every entry equals the former per-pair ``pearson_abs`` loop, compared with ``==``."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(2, 2500)), int(rng.integers(1, 18))
            f = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e6], size=n)
            if n > 2:
                f[:, 1] = 3.0  # a constant column
            if n > 3:
                f[:, 3] = -2.0 * f[:, 0]  # an exactly collinear pair
            if seed % 3 == 0:
                f = np.round(f, 1)  # ties
            assert np.array_equal(abs_correlations(f), encoder_reference.GraphAutoencoderEncoder.adjacency(f))


class TestDescriptiveStats:
    def test_derived_1234(self):
        count, std, lo, hi, q1, q2, q3 = descriptive_stats([1, 2, 3, 4])[:, 0]
        assert count == 4
        assert abs(std - 1.2909944487358056) < 1e-12
        assert lo == 1 and hi == 4
        assert (q1, q2, q3) == (1.75, 2.5, 3.25)

    def test_singleton(self):
        assert descriptive_stats([5])[:, 0].tolist() == [1, 0, 5, 5, 5, 5, 5]

    def test_constant(self):
        assert descriptive_stats([2, 2, 2, 2])[:, 0].tolist() == [4, 0, 2, 2, 2, 2, 2]

    def test_one_column_per_row(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
        assert descriptive_stats(rows).shape == (7, 2)
        assert descriptive_stats(rows)[:, 1].tolist() == [4, 0, 2, 2, 2, 2, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        a = descriptive_stats(x)
        b = descriptive_stats(rng.permutation(x))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            descriptive_stats([])
        with pytest.raises(ValueError):
            descriptive_stats(np.empty((3, 0)))

    def test_rows_match_per_vector_reference(self):
        """Each row's statistics equal the former one-vector-per-call version, ``==``."""
        for f in encoder_reference.stat_inputs():
            rows = f.T
            expected = np.column_stack([encoder_reference.descriptive_stats(row).as_array() for row in rows])
            assert np.array_equal(descriptive_stats(rows), expected)

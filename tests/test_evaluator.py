import json

import cart_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featforge import evaluator
from featforge.data_core import Dataset, SplitPlan, Task
from featforge.evaluator import (
    ModelSpec,
    RandomForest,
    confusion_counts,
    downstream_performance,
    evaluate_predictions,
    knn_anomaly_scores,
    knn_self_scores,
    metric_1rae,
    metric_auc,
    metric_f1,
    ridge_fit_predict,
    train_random_forest,
)
from featforge.pipeline import PipelineConfig, run_grfg


def separable_data(seed=0, m=20):
    """Two classes separated by margin 1 on the first feature."""
    rng = np.random.default_rng(seed)
    half = m // 2
    x0 = np.column_stack([rng.uniform(-2, -1, half), rng.normal(size=half)])
    x1 = np.column_stack([rng.uniform(1, 2, m - half), rng.normal(size=m - half)])
    X = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(m - half)])
    return X, y


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(n_trees=0)
        with pytest.raises(ValueError):
            ModelSpec(ridge_lambda=0.0)


class TestRandomForest:
    @pytest.mark.parametrize("seed", range(10))
    def test_separable_train_accuracy(self, seed):
        X, y = separable_data(seed)
        model = train_random_forest(X, y, ModelSpec(seed=seed), classification=True)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_constant_regression_target(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = np.full(30, 4.2)
        model = train_random_forest(X, y, ModelSpec(seed=0), classification=False)
        assert np.allclose(model.predict(X), 4.2)

    def test_same_seed_identical(self):
        X, y = separable_data(3, m=40)
        rng = np.random.default_rng(9)
        probe = rng.normal(size=(15, 2))
        a = train_random_forest(X, y, ModelSpec(seed=5), classification=True).predict(probe)
        b = train_random_forest(X, y, ModelSpec(seed=5), classification=True).predict(probe)
        assert np.array_equal(a, b)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train_random_forest(np.empty((0, 2)), np.empty(0), ModelSpec(), True)

    def test_regression_learns_signal(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = 3.0 * X[:, 0]
        model = train_random_forest(X, y, ModelSpec(seed=0), classification=False)
        assert metric_1rae(model.predict(X), y) > 0.7

    def test_predict_before_fit(self):
        with pytest.raises(ValueError, match="fit before predict"):
            RandomForest(ModelSpec(), classification=True).predict(np.zeros((3, 2)))

    def test_vote_matches_bincount_first_max(self):
        # forests of single-leaf trees fix each tree's vote, so ties are common
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_trees = int(rng.integers(1, 7))
            n_classes = int(rng.integers(2, 5))
            votes = rng.integers(0, n_classes, size=n_trees)
            forest = RandomForest(ModelSpec(n_trees=n_trees), classification=True)
            forest.n_classes = n_classes
            forest.trees = [evaluator._TreeNode(value=int(v)) for v in votes]
            expected = float(np.argmax(np.bincount(votes, minlength=n_classes)))
            assert np.array_equal(forest.predict(np.zeros((4, 2))), np.full(4, expected))


def same_tree(a, b) -> bool:
    """Node-for-node equality: split feature and threshold, leaf value and its type."""
    if a.value is not None or b.value is not None:
        return a.value == b.value and type(a.value) is type(b.value)
    return (
        a.feature == b.feature
        and a.threshold == b.threshold
        and same_tree(a.left, b.left)
        and same_tree(a.right, b.right)
    )


class TestExactCart:
    """The batched split search grows the trees of the per-column reference."""

    def test_forests_match_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            m = int(rng.integers(5, 301))
            n = int(rng.integers(1, 31))
            # rounding forces tied values, so cut validity and tie-breaks matter
            X = np.round(rng.normal(size=(m, n)), int(rng.integers(0, 3)))
            X[:, rng.integers(n)] = 1.5
            classification = trial % 2 == 1
            if classification:
                y = rng.integers(0, int(rng.integers(2, 11)), size=m).astype(float)
            else:
                y = np.round(rng.normal(size=m), 1)
            spec = ModelSpec(n_trees=2, min_samples_leaf=int(rng.integers(1, 4)), seed=trial)
            batched = train_random_forest(X, y, spec, classification)
            with monkeypatch.context() as patch:
                patch.setattr(evaluator, "_build_tree", cart_reference._build_tree)
                reference = train_random_forest(X, y, spec, classification)
            assert len(batched.trees) == len(reference.trees)
            for a, b in zip(batched.trees, reference.trees):
                assert same_tree(a, b), f"trial {trial}"

    def test_seeded_search_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        y = X[:, 0] * X[:, 1] + 0.05 * rng.normal(size=200)
        data = Dataset(
            samples=X,
            feature_names=("f1", "f2", "f3", "f4", "f5"),
            target=y,
            task=Task.REGRESSION,
        )
        cfg = PipelineConfig(epochs=1, steps_per_epoch=4, seed=0)
        report, best = run_grfg(data, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_build_tree", cart_reference._build_tree)
            ref_report, ref_best = run_grfg(data, cfg)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            ref_report.to_dict(), sort_keys=True
        )
        assert np.array_equal(best.table.values, ref_best.table.values)


class TestRidge:
    def test_recovers_slope(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(100, 1))
        y = 2.0 * x[:, 0]
        test_x = np.array([[0.0], [1.0]])
        pred = ridge_fit_predict(x, y, test_x, lam=1e-9)
        slope = pred[1] - pred[0]
        assert abs(slope - 2.0) < 1e-6

    def test_large_lambda_predicts_mean(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        pred = ridge_fit_predict(x, y, x, lam=1e12)
        assert np.max(np.abs(pred - y.mean())) < 1e-6

    def test_duplicate_features_same_predictions(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 2))
        y = x @ np.array([1.0, -0.5]) + 0.1 * rng.normal(size=60)
        test_x = rng.normal(size=(10, 2))
        base = ridge_fit_predict(x, y, test_x, lam=1.0)
        dup = ridge_fit_predict(
            np.column_stack([x, x[:, 0]]), y, np.column_stack([test_x, test_x[:, 0]]), lam=1.0
        )
        # coefficient mass splits across the copies; predictions barely move
        assert np.max(np.abs(base - dup)) < 0.2

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            ridge_fit_predict(np.ones((4, 1)), np.ones(4), np.ones((2, 1)), lam=0.0)


class TestKnn:
    def test_outlier_scores_highest(self):
        rng = np.random.default_rng(6)
        inliers = rng.normal(scale=0.5, size=(50, 2))
        test = np.vstack([rng.normal(scale=0.5, size=(10, 2)), [[8.0, 8.0]]])
        scores = knn_anomaly_scores(inliers, test, k=5)
        assert np.argmax(scores) == 10

    def test_self_scores_exclude_self(self):
        X = np.array([[0.0], [0.0], [10.0]])
        scores = knn_self_scores(X, k=1)
        assert scores[0] == 0.0  # nearest other point is its duplicate
        assert scores[2] > 0.0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_anomaly_scores(np.ones((3, 1)), np.ones((2, 1)), k=3)


def brute_force_macro_f1(pred, truth):
    mat = confusion_counts(pred, truth, int(max(pred.max(), truth.max())) + 1)
    f1s = []
    for c in np.unique(truth):
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = mat[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(f1s))


class TestMetrics:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_f1_matches_confusion_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = rng.integers(2, 5)
        truth = rng.integers(0, n_classes, size=30)
        pred = rng.integers(0, n_classes, size=30)
        assert abs(metric_f1(pred, truth) - brute_force_macro_f1(pred, truth)) < 1e-12

    def test_f1_perfect(self):
        y = np.array([0, 1, 0, 2, 1])
        assert metric_f1(y, y) == 1.0

    def test_1rae_identities(self):
        y = np.array([1.0, 2.0, 5.0, 3.0])
        assert metric_1rae(y, y) == 1.0
        assert abs(metric_1rae(np.full(4, y.mean()), y)) < 1e-12

    def test_1rae_can_be_negative(self):
        y = np.array([0.0, 1.0])
        assert metric_1rae(np.array([10.0, -10.0]), y) < 0

    def test_auc_perfect_and_inverted(self):
        truth = np.array([0, 0, 1, 1])
        assert metric_auc([0.1, 0.2, 0.8, 0.9], truth) == 1.0
        assert metric_auc([0.9, 0.8, 0.2, 0.1], truth) == 0.0

    def test_auc_ties_average_rank(self):
        truth = np.array([0, 1])
        assert metric_auc([0.5, 0.5], truth) == 0.5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_auc_monotone_invariance(self, seed):
        rng = np.random.default_rng(seed)
        truth = np.concatenate([np.zeros(10), np.ones(10)])
        scores = rng.normal(size=20)
        base = metric_auc(scores, truth)
        assert abs(metric_auc(3.0 * scores + 7.0, truth) - base) < 1e-12
        assert abs(metric_auc(np.exp(scores), truth) - base) < 1e-12

    def test_auc_single_class_rejected(self):
        with pytest.raises(ValueError):
            metric_auc([0.1, 0.2], [1, 1])


class TestEvaluatePredictions:
    def test_classification_bundle(self):
        truth = np.array([0, 1, 1, 0])
        pred = np.array([0, 1, 0, 0])
        res = evaluate_predictions(pred, truth, Task.CLASSIFICATION)
        assert res.primary_metric == metric_f1(pred, truth)
        assert res.auxiliary["accuracy"] == 0.75

    def test_regression_bundle(self):
        truth = np.array([1.0, 2.0, 3.0])
        res = evaluate_predictions(truth, truth, Task.REGRESSION)
        assert res.primary_metric == 1.0

    def test_outlier_bundle(self):
        res = evaluate_predictions([0.1, 0.9], [0, 1], Task.OUTLIER_DETECTION)
        assert res.primary_metric == 1.0


class TestDownstreamPerformance:
    def split_for(self, m, test_frac=0.3, seed=0):
        rng = np.random.default_rng(seed)
        idx = rng.permutation(m)
        cut = int(m * test_frac)
        return SplitPlan(train_indices=idx[cut:], test_indices=idx[:cut], seed=seed)

    def test_target_as_feature_is_perfect(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, size=100).astype(float)
        features = np.column_stack([y, rng.normal(size=100)])
        split = self.split_for(100)
        v = downstream_performance(features, y, Task.CLASSIFICATION, ModelSpec(seed=0), split)
        assert v == 1.0

    def test_pure_noise_near_half(self):
        scores = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            y = np.concatenate([np.zeros(250), np.ones(250)])
            rng.shuffle(y)
            features = rng.normal(size=(500, 4))
            split = self.split_for(500, seed=seed)
            scores.append(
                downstream_performance(features, y, Task.CLASSIFICATION, ModelSpec(seed=seed), split)
            )
        assert abs(np.mean(scores) - 0.5) < 0.15

    def test_regression_clamped_nonnegative(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        split = self.split_for(60)
        v = downstream_performance(features, y, Task.REGRESSION, ModelSpec(seed=0), split)
        assert v >= 0.0

    def test_outlier_task(self):
        rng = np.random.default_rng(9)
        inliers = rng.normal(scale=0.3, size=(80, 2))
        outliers = rng.normal(loc=6.0, scale=0.3, size=(8, 2))
        features = np.vstack([inliers, outliers])
        y = np.concatenate([np.zeros(80), np.ones(8)])
        order = rng.permutation(88)
        features, y = features[order], y[order]
        split = self.split_for(88, seed=1)
        if not (y[split.test_indices] == 1).any():
            pytest.skip("no outlier landed in the test side")
        v = downstream_performance(features, y, Task.OUTLIER_DETECTION, ModelSpec(seed=0), split)
        assert v > 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, size=50).astype(float)
        features = rng.normal(size=(50, 3))
        split = self.split_for(50)
        a = downstream_performance(features, y, Task.CLASSIFICATION, ModelSpec(seed=3), split)
        b = downstream_performance(features, y, Task.CLASSIFICATION, ModelSpec(seed=3), split)
        assert a == b

    def test_degenerate_split(self):
        with pytest.raises(ValueError):
            downstream_performance(
                np.ones((4, 1)),
                np.ones(4),
                Task.REGRESSION,
                ModelSpec(),
                SplitPlan(train_indices=np.arange(4), test_indices=np.array([], dtype=int), seed=0),
            )

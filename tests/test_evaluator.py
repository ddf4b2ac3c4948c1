import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

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


_TEST_PID = os.getpid()
_BUILD_TREE = evaluator._build_tree


def _root_record(X, y, classification, n_classes, max_depth, min_leaf, rng, depth=0):
    """A builder whose single leaf records the building process and the tree's seed."""
    return evaluator._TreeNode(value=(os.getpid(), int(rng.bit_generator.seed_seq.entropy)))


def _fails_in_child(*args):
    if os.getpid() != _TEST_PID:
        raise RuntimeError("builder failed in the child")
    return _BUILD_TREE(*args)


def _exits_in_child(*args):
    if os.getpid() != _TEST_PID:
        os._exit(3)
    return _BUILD_TREE(*args)


def _fails_in_caller(*args):
    if os.getpid() == _TEST_PID:
        raise RuntimeError("builder failed in the caller")
    time.sleep(120)
    raise RuntimeError("the child was not killed")


def _fit_in_child(conn):
    X, y = separable_data(4, m=60)
    forest = train_random_forest(X, y, ModelSpec(seed=2), classification=True)
    conn.send(forest.predict(X))
    conn.close()


_HANGING_CALLER = _HANGING_CONN = None


def _hangs_in_caller(*args):
    """The caller reports that it forked and hangs; the child waits for the caller to die."""
    if os.getpid() == _HANGING_CALLER:
        _HANGING_CONN.send(os.getpid())
        time.sleep(600)
    deadline = time.monotonic() + 60
    while os.getppid() == _HANGING_CALLER and time.monotonic() < deadline:
        time.sleep(0.05)
    return _BUILD_TREE(*args)


def _fit_and_hang(conn):
    global _HANGING_CALLER, _HANGING_CONN
    _HANGING_CALLER, _HANGING_CONN = os.getpid(), conn
    # this process is thrown away, so nothing needs restoring
    os.sched_getaffinity = lambda pid: {0, 1}
    evaluator._build_tree = _hangs_in_caller
    X, y = separable_data(4, m=60)
    train_random_forest(X, y, ModelSpec(seed=2), classification=True)


def _fit_in_daemon():
    X, y = separable_data(4, m=60)
    return train_random_forest(X, y, ModelSpec(seed=2), classification=True).predict(X)


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class TestForkedFit:
    """Trees grown by a forked child are the trees of a one-CPU fit."""

    @pytest.mark.parametrize("classification", [False, True])
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 10])
    def test_forked_equals_serial(self, n_trees, classification, monkeypatch):
        rng = np.random.default_rng(n_trees)
        X = np.round(rng.normal(size=(150, 7)), 1)
        if classification:
            y = rng.integers(0, 3, size=150).astype(float)
        else:
            y = np.round(X[:, 0] * X[:, 1] + rng.normal(size=150), 2)
        spec = ModelSpec(n_trees=n_trees, seed=n_trees + 7)
        with monkeypatch.context() as patch:
            cpus(patch, 2)
            forked = train_random_forest(X, y, spec, classification)
        with monkeypatch.context() as patch:
            cpus(patch, 1)
            serial = train_random_forest(X, y, spec, classification)
        assert len(forked.trees) == len(serial.trees) == n_trees
        for a, b in zip(forked.trees, serial.trees):
            assert same_tree(a, b)
        assert np.array_equal(forked.predict(X), serial.predict(X))

    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize("n_trees", [2, 3, 10])
    def test_patched_builder_grows_every_root(self, n_cpus, n_trees, monkeypatch):
        cpus(monkeypatch, n_cpus)
        monkeypatch.setattr(evaluator, "_build_tree", _root_record)
        X, y = separable_data(1)
        forest = train_random_forest(X, y, ModelSpec(n_trees=n_trees, seed=4), classification=False)
        assert [tree.value[1] for tree in forest.trees] == [4 * 1_000_003 + t for t in range(n_trees)]
        pids = [tree.value[0] for tree in forest.trees]
        if n_cpus == 1:
            assert pids == [os.getpid()] * n_trees
            return
        # however many CPUs, the caller grows the first half and one child the rest
        half = (n_trees + 1) // 2
        assert pids[:half] == [os.getpid()] * half
        assert len(set(pids[half:])) == 1 and os.getpid() not in pids[half:]
        assert_reaped(pids[-1])

    def test_child_error_raises_from_fit(self, monkeypatch):
        cpus(monkeypatch, 2)
        X, y = separable_data(2)
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_build_tree", _fails_in_child)
            with pytest.raises(RuntimeError, match="builder failed in the child"):
                train_random_forest(X, y, ModelSpec(), classification=True)
        assert len(train_random_forest(X, y, ModelSpec(), classification=True).trees) == 10

    def test_dead_child_raises_from_fit(self, monkeypatch):
        cpus(monkeypatch, 2)
        X, y = separable_data(3)
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_build_tree", _exits_in_child)
            with pytest.raises(ChildProcessError, match="exited with code 3"):
                train_random_forest(X, y, ModelSpec(), classification=True)
        assert len(train_random_forest(X, y, ModelSpec(), classification=True).trees) == 10

    def test_caller_error_kills_and_reaps_the_child(self, monkeypatch):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(evaluator, "_build_tree", _fails_in_caller)
        forked = []
        fork_call = evaluator._fork_call

        def recording_fork_call(fn):
            pid, read = fork_call(fn)
            forked.append(pid)
            return pid, read

        monkeypatch.setattr(evaluator, "_fork_call", recording_fork_call)
        X, y = separable_data(2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="builder failed in the caller"):
            train_random_forest(X, y, ModelSpec(), classification=True)
        # the child would sleep for 120 s
        assert time.monotonic() - start < 60
        assert len(forked) == 1
        assert_reaped(forked[0])

    def test_child_exits_when_the_caller_is_killed(self):
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        caller = ctx.Process(target=_fit_and_hang, args=(send,))
        caller.start()
        send.close()
        try:
            assert receive.poll(60), "the caller did not fork"
            assert receive.recv() == caller.pid
        finally:
            caller.kill()
            caller.join(60)
        # the child held the last write end: end of file means it has exited
        assert receive.poll(60), "the tree-growing child is still running"
        with pytest.raises(EOFError):
            receive.recv()

    def test_multiprocessing_children_fit(self, monkeypatch):
        cpus(monkeypatch, 2)
        X, y = separable_data(4, m=60)
        expected = train_random_forest(X, y, ModelSpec(seed=2), classification=True).predict(X)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fit_in_child, args=(send,))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child's fit did not finish"
            pred = receive.recv()
        finally:
            child.join(60)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert np.array_equal(pred, expected)
        # a multiprocessing.Pool worker is daemonic: it may not start
        # multiprocessing children, but it may fork
        with ctx.Pool(1) as daemons:
            assert np.array_equal(daemons.apply_async(_fit_in_daemon).get(60), expected)

    def test_fork_after_a_fit_exits_cleanly(self):
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from featforge.evaluator import ModelSpec, train_random_forest\n"
            "X = np.arange(120.0).reshape(60, 2); y = (X[:, 0] > 50).astype(float)\n"
            "train_random_forest(X, y, ModelSpec(), True)\n"
            "pid = os.fork()\n"
            "train_random_forest(X, y, ModelSpec(), True)\n"
            "if pid == 0:\n"
            "    sys.exit(0)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        src = str(Path(evaluator.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")


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

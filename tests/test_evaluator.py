import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import evaluator_reference
import forest_reference
import knn_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featforge import evaluator
from featforge.data_core import Dataset, SplitPlan, Task
from featforge.evaluator import (
    ModelSpec,
    RandomForest,
    downstream_performance,
    evaluate_predictions,
    fold_predictions,
    knn_anomaly_scores,
    metric_1rae,
    metric_auc,
    metric_f1,
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
            forest.n_features = 2
            roots = np.arange(n_trees)
            forest.forests = [evaluator._Trees(
                np.full(n_trees, -1), np.zeros(n_trees), roots, roots, votes.astype(float)
            )]
            expected = float(np.argmax(np.bincount(votes, minlength=n_classes)))
            assert np.array_equal(forest.predict(np.zeros((4, 2))), np.full(4, expected))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        X, y = separable_data(5)
        forest = train_random_forest(X, y, ModelSpec(), classification=True)
        X_bad = X.copy()
        X_bad[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            train_random_forest(X_bad, y, ModelSpec(), classification=True)
        with pytest.raises(ValueError, match="finite"):
            forest.predict(X_bad)
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ValueError, match="finite"):
            train_random_forest(X, y_bad, ModelSpec(), classification=False)

    @pytest.mark.parametrize("shape", [(20,), (20, 0), (19, 2), (21, 2)])
    def test_fit_shape_must_match_targets(self, shape):
        y = np.arange(20.0)
        with pytest.raises(ValueError, match="one row of at least one column per target"):
            train_random_forest(np.zeros(shape), y, ModelSpec(), classification=False)

    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_predict_column_count_must_match_fit(self, n_cols):
        X, y = separable_data(6)
        forest = train_random_forest(X, y, ModelSpec(), classification=True)
        with pytest.raises(ValueError, match="expected 2 columns"):
            forest.predict(np.zeros((4, n_cols)))


def random_fit_case(rng, trial):
    """A small table with tied values and a constant column, and a target of either task."""
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
    return X, y, classification


def fold_bases(rng, m: int, k: int) -> list:
    """The train rows of each of k random folds of m rows."""
    fold = rng.permutation(m) % k
    return [np.flatnonzero(fold != f) for f in range(k)]


def tied_classes(seed: int, n_classes: int, m: int = 80):
    """Columns of four values, so that many cuts tie, and classes 0..n_classes-2
    on all rows but one, which holds the top class."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(m, 8)).astype(float)
    y = rng.integers(0, n_classes - 1, size=m).astype(float)
    y[int(rng.integers(m))] = n_classes - 1
    return X, y


class TestExactCart:
    """The level-wise batched search grows the trees of the one-node-at-a-time reference."""

    def test_forests_match_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            X, y, classification = random_fit_case(rng, trial)
            spec = ModelSpec(n_trees=2, min_samples_leaf=int(rng.integers(1, 4)), seed=trial)
            # every third fit grows one forest per fold's train rows in one pass
            bases = fold_bases(np.random.default_rng(trial), len(y), 2 + trial % 4) if trial % 3 == 0 else None
            batched = train_random_forest(X, y, spec, classification, bases).forests
            with monkeypatch.context() as patch:
                patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
                reference = train_random_forest(X, y, spec, classification, bases).forests
            assert len(batched) == len(reference) == (1 if bases is None else len(bases))
            for got, want in zip(batched, reference):
                for name in ("feature", "threshold", "left", "right"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), f"trial {trial} {name}"
                # a batched mean is a reduceat sum over each node's rows, which numpy
                # may add up in another order than y.mean(); class votes are exact
                tol = 0.0 if classification else 1e-12
                assert np.allclose(got.value, want.value, rtol=tol, atol=0.0), f"trial {trial}"

    def test_many_rows_match_reference(self, monkeypatch):
        """Past 32768 rows the search sorts int64 keys instead of int32 ones."""
        rng = np.random.default_rng(5)
        X = np.round(rng.normal(size=(33000, 2)), 2)
        y = np.round(X[:, 0] + rng.normal(size=33000), 1)
        assert evaluator._dense_ranks(X).dtype == np.int64
        spec = ModelSpec(n_trees=1, max_depth=2, seed=3)
        batched = train_random_forest(X, y, spec, classification=False).forests[0]
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
            reference = train_random_forest(X, y, spec, classification=False).forests[0]
        assert len(batched.feature) == 7
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(batched, name), getattr(reference, name)), name
        assert np.allclose(batched.value, reference.value, rtol=1e-12, atol=0.0)

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
            patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
            ref_report, ref_best = run_grfg(data, cfg)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            ref_report.to_dict(), sort_keys=True
        )
        assert np.array_equal(best.table.values, ref_best.table.values)


class TestForestsOfBases:
    """One fit grows a forest per base of rows, each the forest a fit on that base alone grows."""

    # regression; then classification, where the fold without the top class
    # sums fewer Gini terms. With 8 or 16 classes numpy adds those in another
    # order than the other folds' terms, and at these seeds a sum over every
    # class would grow that fold another tree
    @pytest.mark.parametrize(
        "n_classes, seed",
        [(0, 0), (0, 1), (3, 0), (3, 1), (8, 36), (8, 87), (8, 135), (16, 6), (16, 21), (16, 29)],
    )
    def test_each_fold_equals_its_own_fit(self, n_classes, seed):
        classification = n_classes > 0
        X, y = tied_classes(seed, max(n_classes, 2))
        if not classification:
            y = np.round(X[:, 0] * X[:, 1] + np.random.default_rng(seed).normal(size=len(y)), 1)
        folds = fold_bases(np.random.default_rng(seed), len(y), 5)
        if classification:
            assert sum(y[train].max() < y.max() for train in folds) == 1
        spec = ModelSpec(n_trees=3, min_samples_leaf=1, seed=seed)
        model = train_random_forest(X, y, spec, classification, folds)
        for f, train in enumerate(folds):
            own = train_random_forest(X[train], y[train], spec, classification)
            for name, got, want in zip(evaluator._Trees._fields, model.forests[f], own.forests[0]):
                assert np.array_equal(got, want), f"fold {f} {name}"
            test = np.setdiff1d(np.arange(len(y)), train)
            assert np.array_equal(model.predict(X[test], f), own.predict(X[test]))
            assert np.array_equal(model.predict(X, f), forest_reference.predict(model, X, f))


    @pytest.mark.parametrize("base", [[-1, 0, 1], [0, 1, 10]])
    def test_rejects_rows_outside_the_data(self, base):
        X, y = np.arange(20.0).reshape(10, 2), np.arange(10.0)
        with pytest.raises(ValueError, match="base row indices"):
            train_random_forest(X, y, ModelSpec(n_trees=2), False, [np.arange(10), base])


_POISON = {"f": np.nan, "i": -1, "b": True}


class TestScratchBuffers:
    """The split search reads no scratch memory that its batch did not write first."""

    @staticmethod
    def poison(monkeypatch) -> list:
        """Fill each scratch view with NaN (-1 for integers, True for masks) as the search
        takes it, so before every `_best_splits` batch; returns (name, shape, grew) per view."""
        taken = []
        real = evaluator._buffer

        def poisoned(scratch, name, shape, dtype=float):
            grew = name in scratch and scratch[name].size < math.prod(shape)
            view = real(scratch, name, shape, dtype)
            view.fill(_POISON[view.dtype.kind])
            taken.append((name, shape, grew))
            return view

        monkeypatch.setattr(evaluator, "_buffer", poisoned)
        return taken

    @staticmethod
    def assert_reference(X, y, spec, classification, bases, monkeypatch):
        batched = train_random_forest(X, y, spec, classification, bases).forests
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
            reference = train_random_forest(X, y, spec, classification, bases).forests
        for got, want in zip(batched, reference):
            for name in ("feature", "threshold", "left", "right"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            tol = 0.0 if classification else 1e-12
            assert np.allclose(got.value, want.value, rtol=tol, atol=0.0)

    def test_poisoned_buffers_match_reference(self, monkeypatch):
        taken = self.poison(monkeypatch)
        rng = np.random.default_rng(8)
        for trial in range(60):
            X, y, classification = random_fit_case(rng, trial)
            spec = ModelSpec(n_trees=2, min_samples_leaf=int(rng.integers(1, 4)), seed=trial)
            bases = fold_bases(rng, len(y), int(rng.integers(2, 6))) if trial % 3 == 0 else None
            self.assert_reference(X, y, spec, classification, bases, monkeypatch)
        for n_classes in (8, 16):
            X, y = tied_classes(trial, n_classes)
            spec = ModelSpec(n_trees=3, min_samples_leaf=1, seed=n_classes)
            self.assert_reference(X, y, spec, True, fold_bases(rng, len(y), 5), monkeypatch)
        assert {name for name, _, _ in taken} >= {"at", "key", "srows", "ys", "s2", "t", "count", "gini", "sq"}

    def test_later_batches_outgrow_earlier_ones(self, monkeypatch):
        """Near-even splits of one tree's root leave two children padded past the root's rows."""
        taken = self.poison(monkeypatch)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        for classification in (False, True):
            y = np.digitize(X[:, 0], np.quantile(X[:, 0], [0.25, 0.5, 0.75])) if classification else X[:, 0]
            taken.clear()
            self.assert_reference(X, y.astype(float), ModelSpec(n_trees=1, seed=1), classification, None, monkeypatch)
            assert any(grew for _, _, grew in taken), classification

    def test_one_node_per_batch(self, monkeypatch):
        """A node whose candidate columns times its padded rows exceed _BATCH is a batch of its own."""
        taken = self.poison(monkeypatch)
        rng = np.random.default_rng(4)
        m = 8500
        X = np.round(rng.normal(size=(m, 4)), 2)
        for classification in (False, True):
            y = (X[:, 0] + X[:, 2] > 0).astype(float) if classification else np.round(X[:, 0] * X[:, 1], 1)
            taken.clear()
            self.assert_reference(X, y, ModelSpec(n_trees=1, max_depth=3, seed=2), classification, None, monkeypatch)
            roots = [shape for name, shape, _ in taken if name == "at"]
            assert roots[0][0] == 1 and roots[0][1] * roots[0][2] > evaluator._BATCH


class TestPredict:
    def test_array_walk_matches_per_row_walk(self):
        """Every row and tree stepping together predicts what walking each tree row by row does."""
        rng = np.random.default_rng(77)
        for trial in range(100):
            X, y, classification = random_fit_case(rng, trial)
            spec = ModelSpec(
                n_trees=int(rng.integers(1, 6)),
                max_depth=int(rng.integers(1, 9)),
                min_samples_leaf=int(rng.integers(1, 4)),
                seed=trial,
            )
            forest = train_random_forest(X, y, spec, classification)
            # fresh rows land between and beyond the fitted values too
            probe = np.vstack([X, np.round(rng.normal(size=(20, X.shape[1])), 1)])
            assert np.array_equal(forest.predict(probe), forest_reference.predict(forest, probe)), f"trial {trial}"


def _fit_in_child(conn, X, y, spec, classification):
    forest = train_random_forest(X, y, spec, classification)
    conn.send((forest.forests[0], forest.predict(X)))
    conn.close()


def _fit_separable_in_child(conn):
    X, y = separable_data(4, m=60)
    forest = train_random_forest(X, y, ModelSpec(seed=2), classification=True)
    conn.send(forest.predict(X))
    conn.close()


def _fit_in_daemon():
    X, y = separable_data(4, m=60)
    return train_random_forest(X, y, ModelSpec(seed=2), classification=True).predict(X)


def _receive_from_child(target, *args):
    """What ``target(conn, *args)`` sends from a forked child, after the child exits with code 0."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(send, *args))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child's fit did not finish"
        sent = receive.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    return sent


def _no_fork():
    raise AssertionError("a fit forked")


class TestForkedFit:
    """A fit grows its forest in the calling process, and a forked process grows the same one."""

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
        forked, forked_pred = _receive_from_child(_fit_in_child, X, y, spec, classification)
        caller = train_random_forest(X, y, spec, classification)
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
            serial = train_random_forest(X, y, spec, classification).forests[0]
        for a, b in zip(forked, caller.forests[0]):
            assert np.array_equal(a, b)
        assert np.array_equal(forked_pred, caller.predict(X))
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(forked, name), getattr(serial, name)), name
        # as in TestExactCart: a batched mean may add up in another order than y.mean()
        tol = 0.0 if classification else 1e-12
        assert np.allclose(forked.value, serial.value, rtol=tol, atol=0.0)

    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize("n_trees", [2, 3, 10])
    def test_patched_builder_grows_every_root(self, n_cpus, n_trees, monkeypatch):
        """However many CPUs the process may use, the caller seeds tree t with seed * 1_000_003 + t."""
        X, y = separable_data(1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        monkeypatch.setattr(os, "fork", _no_fork)
        seeds = []
        default_rng = np.random.default_rng

        def recording_rng(seed=None):
            seeds.append((os.getpid(), seed))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        spec = ModelSpec(n_trees=n_trees, seed=4)
        forest = train_random_forest(X, y, spec, classification=False).forests[0]
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_grow_forest", forest_reference.grow_forest)
            reference = train_random_forest(X, y, spec, classification=False).forests[0]
        expected = [(os.getpid(), 4 * 1_000_003 + t) for t in range(n_trees)]
        assert seeds == expected + expected
        # the root of tree t is node t, and both builders grow the same trees under it
        assert len(forest.feature) >= n_trees
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(forest, name), getattr(reference, name)), name
        assert np.allclose(forest.value, reference.value, rtol=1e-12, atol=0.0)

    def test_multiprocessing_children_fit(self):
        X, y = separable_data(4, m=60)
        expected = train_random_forest(X, y, ModelSpec(seed=2), classification=True).predict(X)
        assert np.array_equal(_receive_from_child(_fit_separable_in_child), expected)
        # a multiprocessing.Pool worker is daemonic: it may not start
        # multiprocessing children, but it may fit
        with multiprocessing.get_context("fork").Pool(1) as daemons:
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


class TestKnn:
    def test_outlier_scores_highest(self):
        rng = np.random.default_rng(6)
        inliers = rng.normal(scale=0.5, size=(50, 2))
        test = np.vstack([rng.normal(scale=0.5, size=(10, 2)), [[8.0, 8.0]]])
        scores = knn_anomaly_scores(inliers, test, k=5)
        assert np.argmax(scores) == 10

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_anomaly_scores(np.ones((3, 1)), np.ones((2, 1)), k=3)

    def test_partition_matches_full_sort(self):
        """The k nearest, sorted, give the full sort's scores and the reference's (a root of every distance), ``==``."""
        for train, test, k in knn_reference.knn_inputs():
            xs, xt = evaluator._standardize(train, test)
            d2 = np.sum(xt**2, axis=1)[:, None] + np.sum(xs**2, axis=1)[None, :] - 2 * xt @ xs.T
            d = np.sqrt(np.maximum(d2, 0.0))
            expected = np.sort(d, axis=1)[:, :k].mean(axis=1)
            scores = knn_anomaly_scores(train, test, k=k)
            assert np.array_equal(scores, expected)
            assert np.array_equal(scores, knn_reference.knn_anomaly_scores(train, test, k=k))

    def test_k_below_one_raises(self):
        """k = 0 used to give nan scores; a one-row train side asks for it."""
        for k in (0, -1):
            with pytest.raises(ValueError, match="1 <= k < train rows"):
                knn_anomaly_scores(np.ones((1, 2)), np.zeros((3, 2)), k=k)
        split = SplitPlan(train_indices=np.array([0]), test_indices=np.array([1, 2]), seed=0)
        with pytest.raises(ValueError, match="1 <= k < train rows"):
            downstream_performance(
                np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 0.0]), Task.OUTLIER_DETECTION, ModelSpec(), split
            )

    @staticmethod
    def block_rows(train) -> int:
        return max(1, evaluator._KNN_CELLS // len(train))

    def test_reference_inputs_fit_one_block(self):
        """The whole-matrix oracle above compares one block against one whole matrix."""
        for train, test, _ in knn_reference.knn_inputs():
            assert len(test) <= self.block_rows(train)

    def test_blocks_match_reference_per_block(self):
        """Scores ``==`` the reference applied to each block of test rows in turn.

        A block's GEMM can differ from the whole matrix's in the last bit, so
        the oracle runs the same block-sized products.
        """
        rng = np.random.default_rng(15)
        ties = rng.integers(0, 3, size=(3000, 2)).astype(float)
        cases = [
            (rng.normal(size=(1600, 12)), rng.normal(size=(400, 12)), 5),  # outlier_ae's V_A shape
            (rng.normal(size=(1600, 12)), rng.normal(size=(410, 12)), 5),  # a 10-row remainder block
            (rng.normal(size=(1600, 3)), rng.normal(size=(401, 3)), 1),  # a one-row remainder block
            (rng.normal(size=(40000, 3)), rng.normal(size=(5, 3)), 5),  # one row per block
            (ties, np.vstack([ties[:50], rng.integers(0, 3, size=(50, 2))]), 7),  # tied distances
        ]
        for train, test, k in cases:
            rows = self.block_rows(train)
            assert len(test) > rows
            expected = np.concatenate([
                knn_reference.knn_anomaly_scores(train, test[lo : lo + rows], k=k)
                for lo in range(0, len(test), rows)
            ])
            assert np.array_equal(knn_anomaly_scores(train, test, k=k), expected)

    def test_peak_memory_is_bounded(self):
        """At 20000 train x 2000 test rows the whole distance matrix would be 320 MB."""
        rng = np.random.default_rng(0)
        train, test = rng.normal(size=(20000, 8)), rng.normal(size=(2000, 8))
        tracemalloc.start()
        try:
            scores = knn_anomaly_scores(train, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (2000,) and np.all(np.isfinite(scores))
        assert peak < 4 * 2**20


def brute_force_macro_f1(pred, truth):
    n_classes = int(max(pred.max(), truth.max())) + 1
    mat = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(pred, truth):
        mat[t, p] += 1
    f1s = []
    for c in np.unique(truth):
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = mat[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(f1s))


def loop_auc(scores, truth):
    """ROC-AUC with the tied-rank loop metric_auc used before it was vectorized."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(truth, dtype=float) == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


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

    def test_auc_matches_tied_rank_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(2, 80))
            truth = rng.permutation(np.r_[0, 1, rng.integers(0, 2, size=m - 2)])
            # few distinct values give long runs of ties; many give none
            scores = rng.integers(0, int(rng.integers(1, m + 1)), size=m) * 0.25
            assert metric_auc(scores, truth) == loop_auc(scores, truth)

    def test_auc_single_class_rejected(self):
        with pytest.raises(ValueError):
            metric_auc([0.1, 0.2], [1, 1])


class TestEvaluatePredictions:
    def test_classification_bundle(self):
        truth = np.array([0, 1, 1, 0])
        pred = np.array([0, 1, 0, 0])
        res = evaluate_predictions(pred, truth, Task.CLASSIFICATION)
        assert res["primary_metric"] == metric_f1(pred, truth)
        assert res["auxiliary"]["accuracy"] == 0.75
        # class 0: precision 2/3, recall 1; class 1: precision 1, recall 1/2
        assert res["auxiliary"]["precision_macro"] == pytest.approx(5 / 6, abs=1e-15)
        assert res["auxiliary"]["recall_macro"] == 0.75

    def test_regression_bundle(self):
        truth = np.array([1.0, 2.0, 3.0])
        res = evaluate_predictions(truth, truth, Task.REGRESSION)
        assert res["primary_metric"] == 1.0

    def test_outlier_bundle(self):
        res = evaluate_predictions([0.1, 0.9], [0, 1], Task.OUTLIER_DETECTION)
        assert res == {"primary_metric": 1.0, "auxiliary": {"roc_auc": 1.0}}


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


def scorer_case(rng, task: Task):
    """Features with tied and constant columns, a target of ``task`` and random folds.

    A classification target has 2 to 16 classes, and one class, often the
    top one, is seen only on the first fold's test side.
    """
    m = int(rng.integers(12, 121))
    n = int(rng.integers(1, 9))
    X = np.round(rng.normal(size=(m, n)), int(rng.integers(0, 3)))
    X[:, rng.integers(n)] = -0.5
    folds = [(train, np.setdiff1d(np.arange(m), train)) for train in fold_bases(rng, m, int(rng.integers(2, 6)))]
    if task is Task.CLASSIFICATION:
        n_classes = int(rng.integers(2, 17))
        y = rng.integers(0, n_classes - 1, size=m).astype(float)
        hidden = n_classes - 1 if rng.random() < 0.7 else int(rng.integers(n_classes - 1))
        y[y == hidden] = (hidden + 1) % n_classes
        y[rng.choice(folds[0][1], size=min(2, len(folds[0][1])), replace=False)] = hidden
    elif task is Task.REGRESSION:
        y = np.round(X[:, 0] * rng.normal() + rng.normal(size=m), 1)
    else:
        y = (rng.random(m) < 0.2).astype(float)
    spec = ModelSpec(
        n_trees=int(rng.integers(1, 6)),
        max_depth=int(rng.integers(1, 9)),
        min_samples_leaf=int(rng.integers(1, 4)),
        seed=int(rng.integers(100)),
    )
    return X, y, folds, spec


class TestFoldPredictions:
    """One fit over all rows predicts each fold as the former slice-then-fit scorer did, ``==``."""

    @pytest.mark.parametrize("task", list(Task))
    def test_matches_slice_then_fit(self, task):
        rng = np.random.default_rng(list(Task).index(task))
        classes_seen = set()
        for _ in range(40):
            X, y, folds, spec = scorer_case(rng, task)
            preds = fold_predictions(X, y, task, spec, folds)
            assert len(preds) == len(folds)
            for pred, (train, test) in zip(preds, folds):
                split = SplitPlan(train_indices=train, test_indices=test, seed=0)
                assert np.array_equal(pred, evaluator_reference.predict_test_side(X, y, task, spec, split))
            train, test = folds[0]
            split = SplitPlan(train_indices=train, test_indices=test, seed=0)
            if task is Task.CLASSIFICATION:
                assert set(y[test]) - set(y[train])  # a class seen only on the test side
                classes_seen.add(int(y.max()) + 1)
            if len(set(y[test])) == 1 and task is Task.OUTLIER_DETECTION:
                with pytest.raises(ValueError, match="single-class"):
                    downstream_performance(X, y, task, spec, split)
                continue
            got = downstream_performance(X, y, task, spec, split)
            assert got == evaluator_reference.downstream_performance(X, y, task, spec, split)
        if task is Task.CLASSIFICATION:
            assert max(classes_seen) >= 8

import re

import data_core_reference
import numpy as np
import pytest
from csv_writer import save_csv

from featforge.data_core import (
    DataError,
    Dataset,
    Task,
    load_csv,
    make_folds,
    make_split,
)


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_numeric(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        d = load_csv(path, "y", Task.CLASSIFICATION)
        assert d.n_features == 2
        assert d.n_rows == 4
        assert d.feature_names == ("a", "b")
        assert np.allclose(d.target, [0, 1, 0, 1])

    def test_categorical_first_appearance_encoding(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,x,0\n2,z,1\n3,x,0\n")
        d = load_csv(path, "y", Task.REGRESSION)
        col_b = d.samples[:, d.feature_names.index("b")]
        assert np.allclose(col_b, [0, 1, 0])

    def test_missing_cell_drops_row(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,0\n3,,1\n5,6,0\n")
        d = load_csv(path, "y", Task.REGRESSION)
        assert d.n_rows == 2

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/nope.csv", "y", Task.REGRESSION)

    def test_target_absent(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="target column"):
            load_csv(path, "y", Task.REGRESSION)

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,0\n,1\n")
        with pytest.raises(DataError):
            load_csv(path, "y", Task.REGRESSION)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dataset(
            samples=rng.normal(size=(10, 3)),
            feature_names=("a", "b", "c"),
            target=rng.normal(size=10),
            task=Task.REGRESSION,
        )
        path = str(tmp_path / "out.csv")
        save_csv(d, path, target_column="y")
        d2 = load_csv(path, "y", Task.REGRESSION)
        assert np.max(np.abs(d2.samples - d.samples)) < 1e-12
        assert np.max(np.abs(d2.target - d.target)) < 1e-12


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(
                samples=np.array([[1.0], [np.nan]]),
                feature_names=("a",),
                target=np.array([0.0, 1.0]),
                task=Task.REGRESSION,
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            Dataset(
                samples=np.ones((2, 2)),
                feature_names=("a", "a"),
                target=np.zeros(2),
                task=Task.REGRESSION,
            )

    def test_outlier_targets_binary(self):
        with pytest.raises(DataError):
            Dataset(
                samples=np.ones((3, 1)),
                feature_names=("a",),
                target=np.array([0.0, 1.0, 2.0]),
                task=Task.OUTLIER_DETECTION,
            )


def _dataset(m=10, classification=True, target=None, seed=0):
    rng = np.random.default_rng(seed)
    if target is None:
        target = np.arange(m) % 2
    return Dataset(
        samples=rng.normal(size=(m, 3)),
        feature_names=("a", "b", "c"),
        target=np.asarray(target, dtype=float),
        task=Task.CLASSIFICATION if classification else Task.REGRESSION,
    )


class TestMakeSplit:
    def test_counts(self):
        d = _dataset(10, classification=False)
        plan = make_split(d, 0.2, seed=7)
        assert len(plan.train_indices) == 8
        assert len(plan.test_indices) == 2

    def test_deterministic(self):
        d = _dataset(10)
        a = make_split(d, 0.3, seed=5)
        b = make_split(d, 0.3, seed=5)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_stratified_6_4(self):
        target = np.array([0] * 6 + [1] * 4, dtype=float)
        d = _dataset(10, target=target)
        plan = make_split(d, 0.5, seed=3)
        test_targets = target[plan.test_indices]
        assert np.sum(test_targets == 0) == 3
        assert np.sum(test_targets == 1) == 2

    def test_disjoint_cover(self):
        d = _dataset(17)
        plan = make_split(d, 0.25, seed=1)
        union = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
        assert np.array_equal(union, np.arange(17))

    def test_singleton_class_stays_in_train(self):
        target = np.array([0] * 9 + [1], dtype=float)
        d = _dataset(10, target=target)
        plan = make_split(d, 0.3, seed=2)
        assert 9 in plan.train_indices


class TestMakeFolds:
    def test_five_folds_of_two(self):
        d = _dataset(10, classification=False)
        folds = make_folds(d, 5, seed=0)
        assert len(folds) == 5
        for _, test in folds:
            assert len(test) == 2

    def test_partition_property(self):
        d = _dataset(13)
        folds = make_folds(d, 4, seed=9)
        all_test = np.sort(np.concatenate([t for _, t in folds]))
        assert np.array_equal(all_test, np.arange(13))

    def test_stratification_bound(self):
        target = np.array([0] * 12 + [1] * 8, dtype=float)
        d = _dataset(20, target=target)
        for _, test in make_folds(d, 5, seed=4):
            for cls, global_frac in ((0, 0.6), (1, 0.4)):
                frac = np.mean(target[test] == cls)
                assert abs(frac - global_frac) <= 1.0 / len(test) + 1e-12

    def test_deterministic(self):
        d = _dataset(10)
        a = make_folds(d, 5, seed=11)
        b = make_folds(d, 5, seed=11)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(sa, sb)

    def test_k_exceeds_m(self):
        d = _dataset(4)
        with pytest.raises(DataError):
            make_folds(d, 5, seed=0)


class TestFormerSplitPaths:
    """make_split and make_folds over one label per row, against the former per-task paths."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(26)
        for case in range(600):
            task = (Task.REGRESSION, Task.OUTLIER_DETECTION, Task.CLASSIFICATION)[case % 3]
            m = int(rng.integers(2, 60))
            if task is Task.REGRESSION:
                target = rng.normal(size=m)
            elif task is Task.OUTLIER_DETECTION:
                target = (rng.random(m) < rng.uniform(0.02, 0.3)).astype(float)
            else:
                target = rng.integers(0, rng.integers(1, 6), m).astype(float)
            samples = rng.normal(size=(m, 2))
            yield Dataset(samples, ("a", "b"), target, task), int(rng.integers(2**31)), rng

    def test_splits_equal(self):
        for d, seed, rng in self.cases():
            fraction = float(rng.uniform(0.1, 0.5))
            try:
                want = data_core_reference.make_split(d, fraction, seed)
            except DataError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    make_split(d, fraction, seed)
                continue
            got = make_split(d, fraction, seed)
            assert np.array_equal(got.train_indices, want.train_indices)
            assert np.array_equal(got.test_indices, want.test_indices)

    def test_folds_equal(self):
        for d, seed, rng in self.cases():
            k = int(rng.integers(2, 8))
            if k > d.n_rows:
                continue
            got, want = make_folds(d, k, seed), data_core_reference.make_folds(d, k, seed)
            assert len(got) == len(want) == k
            for (train, test), (train_want, test_want) in zip(got, want):
                assert np.array_equal(train, train_want)
                assert np.array_equal(test, test_want)

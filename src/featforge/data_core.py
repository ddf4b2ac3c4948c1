"""Dataset loading, validation, encoding and train/test splitting.

``make_split`` and ``make_folds`` stratify by one label per row: the class
for classification, one shared label (a plain permutation) for other tasks.

A :class:`Dataset` owns the ground-truth sample matrix that every generated
feature is evaluated against.  It is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import enum
import logging
from dataclasses import dataclass

import numpy as np


class Task(enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"
    OUTLIER_DETECTION = "outlier_detection"


class DataError(ValueError):
    """Raised when a dataset or split request is invalid."""


@dataclass(frozen=True)
class Dataset:
    """Tabular dataset: m samples x n features plus a target vector."""

    samples: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray
    task: Task

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        target = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "target", target)
        if samples.ndim != 2:
            raise DataError("samples must be a 2-D matrix")
        m, n = samples.shape
        if m < 2:
            raise DataError(f"need at least 2 rows, got {m}")
        if n < 1:
            raise DataError("need at least 1 feature column")
        if len(self.feature_names) != n:
            raise DataError("feature_names length must match column count")
        if len(set(self.feature_names)) != n:
            raise DataError("feature names must be pairwise distinct")
        if target.shape != (m,):
            raise DataError("target length must match row count")
        if not np.all(np.isfinite(samples)) or not np.all(np.isfinite(target)):
            raise DataError("NaN or infinite entries are not allowed")
        if self.task in (Task.CLASSIFICATION, Task.OUTLIER_DETECTION):
            if np.any(target < 0) or np.any(target != np.round(target)):
                raise DataError("classification/outlier targets must be non-negative integers")
        if self.task is Task.OUTLIER_DETECTION and not set(np.unique(target)) <= {0.0, 1.0}:
            raise DataError("outlier targets must be in {0, 1}")
        samples.setflags(write=False)
        target.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SplitPlan:
    """A single train/test split."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


def load_csv(path, target_column: str, task: Task) -> Dataset:
    """Load a UTF-8 comma-separated file with one header row.

    Rows containing any empty cell are dropped.  Non-numeric columns are
    integer-encoded by first-appearance order of their distinct strings, which
    keeps the encoding deterministic and independent of any RNG.
    """
    if isinstance(task, str):
        task = Task(task)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = [row for row in reader if row]

    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = header.index(target_column)

    kept = [row for row in rows if all(cell.strip() != "" for cell in row)]
    n_dropped = len(rows) - len(kept)
    if n_dropped:
        logging.getLogger(__name__).info("dropped %d rows with missing cells", n_dropped)
    if len(kept) < 2:
        raise DataError("fewer than 2 complete rows after dropping missing values")
    if len(header) < 2:
        raise DataError("no feature columns besides the target")

    columns: list[np.ndarray] = []
    for j in range(len(header)):
        raw = [row[j].strip() for row in kept]
        try:
            col = np.array([float(v) for v in raw], dtype=float)
        except ValueError:
            codes: dict[str, int] = {}
            col = np.array([codes.setdefault(v, len(codes)) for v in raw], dtype=float)
        columns.append(col)

    target = columns.pop(target_idx)
    names = tuple(h for i, h in enumerate(header) if i != target_idx)
    samples = np.column_stack(columns)
    return Dataset(samples=samples, feature_names=names, target=target, task=task)


def _labels(d: Dataset) -> np.ndarray:
    """The labels splits and folds stratify by: the classes, or one shared label for other tasks."""
    return d.target if d.task is Task.CLASSIFICATION else np.zeros(d.n_rows)


def _stratified_assignment(labels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each row a fold id 0..k-1 with per-label proportions preserved."""
    m = len(labels)
    fold_of = np.empty(m, dtype=int)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        # round-robin over folds, rotating the starting fold per label so small
        # classes do not all land in fold 0
        fold_of[idx] = (np.arange(len(idx)) + offset) % k
        offset += len(idx)
    return fold_of


def make_split(d: Dataset, test_fraction: float, seed: int) -> SplitPlan:
    """One deterministic train/test split that keeps each label's share of rows (see _labels)."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    m = d.n_rows
    n_test = int(round(m * test_fraction))
    n_test = min(max(n_test, 1), m - 1)
    rng = np.random.default_rng(seed)
    labels = _labels(d)
    # proportional per-label quotas (largest-remainder rounding); a label
    # with a single sample always stays in train
    classes, sizes = np.unique(labels, return_counts=True)
    quotas = sizes * n_test / m
    caps = sizes - 1
    take = np.minimum(np.floor(quotas).astype(int), caps)
    for c in sorted(range(len(classes)), key=lambda c: quotas[c] - take[c], reverse=True):
        if take.sum() >= n_test:
            break
        take[c] = min(take[c] + 1, caps[c])
    test = [rng.permutation(np.flatnonzero(labels == cls))[:t] for cls, t in zip(classes, take)]
    test_idx = np.sort(np.concatenate(test))
    mask = np.ones(m, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise DataError("split leaves one side empty")
    return SplitPlan(train_indices=train_idx, test_indices=test_idx, seed=seed)


def make_folds(d: Dataset, k: int, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """k (train, test) folds whose disjoint test sides cover all rows, stratified like make_split."""
    m = d.n_rows
    if k < 2:
        raise DataError("k must be >= 2")
    if k > m:
        raise DataError(f"k={k} exceeds row count m={m}")
    fold_of = _stratified_assignment(_labels(d), k, np.random.default_rng(seed))
    return tuple((np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k))

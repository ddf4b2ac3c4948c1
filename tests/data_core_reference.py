"""Train/test splits and CV folds as they were before both ran over one label per row.

Test oracle only: ``make_split`` and ``make_folds`` verbatim from the former
``featforge.data_core``, where classification took a stratified path and every
other task a plain permutation. The current functions stratify every task by
``_labels`` (one shared label outside classification) and must return equal
indices.
"""

from __future__ import annotations

import numpy as np

from featforge.data_core import DataError, Dataset, SplitPlan, Task


def _stratified_assignment(target: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each row a fold id 0..k-1 with per-class proportions preserved."""
    m = len(target)
    fold_of = np.empty(m, dtype=int)
    offset = 0
    for cls in np.unique(target):
        idx = np.flatnonzero(target == cls)
        idx = rng.permutation(idx)
        # round-robin over folds, rotating the starting fold per class so small
        # classes do not all land in fold 0
        fold_of[idx] = (np.arange(len(idx)) + offset) % k
        offset += len(idx)
    return fold_of


def make_split(d: Dataset, test_fraction: float, seed: int) -> SplitPlan:
    """One deterministic train/test split; stratified for classification."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    m = d.n_rows
    n_test = int(round(m * test_fraction))
    n_test = min(max(n_test, 1), m - 1)
    rng = np.random.default_rng(seed)
    if d.task is Task.CLASSIFICATION:
        # proportional per-class quotas (largest-remainder rounding); a class
        # with a single sample always stays in train
        classes = list(np.unique(d.target))
        sizes = {cls: int(np.sum(d.target == cls)) for cls in classes}
        quotas = {cls: sizes[cls] * n_test / m for cls in classes}
        take = {cls: int(np.floor(quotas[cls])) for cls in classes}
        caps = {cls: max(sizes[cls] - 1, 0) for cls in classes}
        take = {cls: min(take[cls], caps[cls]) for cls in classes}
        for cls in sorted(classes, key=lambda c: quotas[c] - take[c], reverse=True):
            if sum(take.values()) >= n_test:
                break
            take[cls] = min(take[cls] + 1, caps[cls])
        test: list[int] = []
        for cls in classes:
            idx = rng.permutation(np.flatnonzero(d.target == cls))
            test.extend(idx[: take[cls]])
        test_idx = np.sort(np.array(test, dtype=int))
    else:
        perm = rng.permutation(m)
        test_idx = np.sort(perm[:n_test])
    mask = np.ones(m, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise DataError("split leaves one side empty")
    return SplitPlan(train_indices=train_idx, test_indices=test_idx, seed=seed)


def make_folds(d: Dataset, k: int, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """k (train, test) folds whose disjoint test sides cover all rows; stratified for classification."""
    m = d.n_rows
    if k < 2:
        raise DataError("k must be >= 2")
    if k > m:
        raise DataError(f"k={k} exceeds row count m={m}")
    rng = np.random.default_rng(seed)
    if d.task is Task.CLASSIFICATION:
        fold_of = _stratified_assignment(d.target, k, rng)
    else:
        perm = rng.permutation(m)
        fold_of = np.empty(m, dtype=int)
        fold_of[perm] = np.arange(m) % k
    return tuple((np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k))

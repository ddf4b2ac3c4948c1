"""Downstream models and metrics that score a candidate feature set.

Random forest (CART trees built from scratch) for classification/regression
and a KNN mean-distance anomaly scorer.  The headline metric is macro-F1 /
1-RAE / ROC-AUC depending on the task.

The forest grows all its trees together in the calling process, one depth at
a time, into flat node arrays. Each depth runs one exact split search over
every splittable node of every tree, batched by node size, and predict steps
all rows through all trees at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from featforge.data_core import SplitPlan, Task


@dataclass(frozen=True)
class ModelSpec:
    n_trees: int = 10
    max_depth: int = 8
    min_samples_leaf: int = 2
    seed: int = 0

    def __post_init__(self):
        if min(self.n_trees, self.max_depth, self.min_samples_leaf) < 1:
            raise ValueError("hyperparameters must be positive")


@dataclass(frozen=True)
class EvalResult:
    primary_metric: float
    auxiliary: dict


# ---------------------------------------------------------------- CART trees

# cells (node, candidate column) times padded rows, times classes for Gini,
# that one batch of the split search scores at once: bounds its temporaries
_BATCH = 1 << 14


class _Trees(NamedTuple):
    """A forest's nodes in flat arrays; the root of tree t is node t.

    A leaf has feature -1 and is its own left and right child. ``value`` is
    the mean target or the majority class of each node's rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _finite(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"random forest {name} must be finite")
    return a


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Rank of each value of X among its column's distinct values, feature-major.

    Sorting a node's rows by (rank, position) orders them as a stable sort by
    value does. An extra row m, the padding sentinel, ranks above every value.
    """
    m, n = X.shape
    # `_best_splits` keys stay below (m + 1) << bit_length(m - 1): int32 up to m = 32768
    dtype = np.int32 if (m + 1) << (m - 1).bit_length() <= 2**31 else np.int64
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    dense = np.cumsum(np.vstack([np.zeros((1, n), bool), xs[1:] != xs[:-1]]), axis=0, dtype=dtype)
    rank = np.full((n, m + 1), m, dtype=dtype)
    np.put_along_axis(rank[:, :m], order.T, dense.T, axis=1)
    return rank


def _sum_classes(terms: list) -> np.ndarray:
    """``np.sum(np.stack(terms, axis=-1), axis=-1)`` bit for bit: numpy adds fewer than 8 entries in order."""
    return np.sum(np.stack(terms, axis=-1), axis=-1) if len(terms) >= 8 else functools.reduce(np.add, terms)


def _best_splits(X, rank, y, rows, sizes, feats, classification: bool, n_classes: int, min_leaf: int):
    """Best (column, threshold) of each node; column -1 where no cut is valid.

    Node j's rows ``rows[j, :sizes[j]]`` are padded with the sentinel row,
    which ``rank`` sorts last and whose target in ``y`` adds nothing to any
    sum, so each valid cut scores as in a one-node search. The lowest score
    wins; ties go to the earliest column, then to the leftmost cut.
    """
    k, width = rows.shape
    n_try = feats.shape[1]
    shift = (width - 1).bit_length()
    position = np.arange(width, dtype=rank.dtype)
    # a cut after left size p, for p in [lo, hi], leaves min_leaf rows on the left
    lo, hi = min_leaf, width - min_leaf
    nl = np.arange(lo, hi + 1, dtype=float)
    cut_cols, cut_at = np.full(k, -1), np.zeros(k)
    step = max(1, _BATCH // (n_try * width * (n_classes if classification else 1)))
    for a in range(0, k, step):
        b = min(k, a + step)
        node = np.repeat(np.arange(b - a), n_try)
        key = np.sort((rank[feats[a:b, :, None], rows[a:b, None, :]] << shift) | position, axis=2)
        key = key.reshape(len(node), width)
        srows = rows[a:b][node[:, None], key & ((1 << shift) - 1)]
        ys, r = y[srows], key >> shift
        m = sizes[a:b][node].astype(float)[:, None]
        nr = m - nl
        # only cuts between two different values that leave min_leaf rows on the right
        valid = (r[:, lo - 1 : hi] < r[:, lo : hi + 1]) & (nr >= min_leaf)
        np.maximum(nr, 1.0, out=nr)
        if classification:
            sq_l, sq_r = [], []
            for c in range(n_classes):
                count = np.cumsum(ys == c, axis=1, dtype=float)
                pl = count[:, lo - 1 : hi] / nl
                pr = (count[:, -1:] - count[:, lo - 1 : hi]) / nr
                sq_l.append(pl * pl)
                sq_r.append(pr * pr)
            score = (nl * (1.0 - _sum_classes(sq_l)) + nr * (1.0 - _sum_classes(sq_r))) / m
        else:
            s, s2 = np.cumsum(ys, axis=1), np.cumsum(ys * ys, axis=1)
            sl, s2l = s[:, lo - 1 : hi], s2[:, lo - 1 : hi]
            var_l = s2l / nl - (sl / nl) ** 2
            var_r = (s2[:, -1:] - s2l) / nr - ((s[:, -1:] - sl) / nr) ** 2
            score = (nl * var_l + nr * var_r) / m
        np.putmask(score, ~valid, np.inf)
        col, i = np.divmod(np.argmin(score.reshape(b - a, -1), axis=1), len(nl))
        cell = np.arange(b - a) * n_try + col
        ok = np.flatnonzero(valid[cell, i])
        cell, i, f = cell[ok], i[ok], feats[a + ok, col[ok]]
        cut_cols[a + ok] = f
        cut_at[a + ok] = 0.5 * (X[srows[cell, lo + i - 1], f] + X[srows[cell, lo + i], f])
    return cut_cols, cut_at


def _grow_forest(X: np.ndarray, y: np.ndarray, classification: bool, n_classes: int, spec: ModelSpec) -> _Trees:
    """Grow the ``spec.n_trees`` trees of a forest together, one depth at a time.

    Tree t draws from ``default_rng(spec.seed * 1_000_003 + t)``: first its
    bootstrap rows, ``integers(0, m, m)``; then, at each depth, one
    ``random((count, n))`` for the tree's ``count`` splittable nodes there, in
    node order. Each row of that draw, stably argsorted and cut to its first
    ceil(sqrt(n)) entries, then sorted, is one node's candidate columns. A node
    above ``max_depth`` is splittable when it holds at least
    ``2 * min_samples_leaf`` rows whose targets differ. Nodes are numbered
    depth by depth, tree by tree; children follow their parents' order, left
    before right, and keep their parent's row order.
    """
    m, n = X.shape
    n_trees, min_leaf = spec.n_trees, spec.min_samples_leaf
    n_try = int(np.ceil(np.sqrt(n)))
    rngs = [np.random.default_rng(spec.seed * 1_000_003 + t) for t in range(n_trees)]
    # the nodes of one depth: their rows back to back, their sizes and trees
    idx = np.concatenate([rng.integers(0, m, size=m) for rng in rngs])
    sizes, tree = np.full(n_trees, m), np.arange(n_trees)
    rank = _dense_ranks(X)
    y_pad = np.append(y, -1.0 if classification else 0.0)
    levels = []
    for depth in range(spec.max_depth + 1):
        k, first = len(sizes), sum(len(level.value) for level in levels)
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(k), sizes)
        ys = y[idx]
        if classification:
            votes = np.bincount(node * n_classes + ys.astype(int), minlength=k * n_classes)
            value = np.argmax(votes.reshape(k, n_classes), axis=1).astype(float)
        else:
            # reduceat sums a node as its first entry plus a pairwise sum of the
            # rest, so a zero ahead of each node makes its sum that of ys.mean()
            padded = np.zeros(len(ys) + k)
            padded[np.arange(len(ys)) + node + 1] = ys
            value = np.add.reduceat(padded, starts + np.arange(k)) / sizes
        level = _Trees(np.full(k, -1), np.zeros(k), np.arange(first, first + k), np.arange(first, first + k), value)
        levels.append(level)
        splittable = np.flatnonzero(
            (sizes >= 2 * min_leaf) & (np.minimum.reduceat(ys, starts) < np.maximum.reduceat(ys, starts))
        )
        if depth == spec.max_depth or len(splittable) == 0:
            break
        draws = [rngs[t].random((c, n)) for t, c in enumerate(np.bincount(tree[splittable], minlength=n_trees)) if c]
        feats = np.sort(np.concatenate(draws).argsort(axis=1, kind="stable")[:, :n_try], axis=1)
        feature, threshold = np.full(k, -1), np.zeros(k)
        # one batch per power-of-two size class (16 rows at least), padded to its largest node
        size_class = np.maximum(np.ceil(np.log2(sizes[splittable])), 4)
        for c in np.unique(size_class):
            group = size_class == c
            nodes = splittable[group]
            size = sizes[nodes]
            # the nodes' rows back to back, then laid out one node per row
            sample = np.arange(size.sum()) + np.repeat(starts[nodes] - (np.cumsum(size) - size), size)
            rows = np.full((len(nodes), size.max()), m)
            rows[np.arange(size.max()) < size[:, None]] = idx[sample]
            feature[nodes], threshold[nodes] = _best_splits(
                X, rank, y_pad, rows, size, feats[group], classification, n_classes, min_leaf
            )
        go_left = X[idx, feature[node]] <= threshold[node]
        n_left = np.bincount(node[go_left], minlength=k)
        # midpoints of near-identical values can round onto one of them
        split = np.flatnonzero((feature >= 0) & (n_left > 0) & (n_left < sizes))
        if len(split) == 0:
            break
        level.feature[split], level.threshold[split] = feature[split], threshold[split]
        level.left[split] = first + k + 2 * np.arange(len(split))
        level.right[split] = level.left[split] + 1
        # regroup the split nodes' rows by child, keeping their order within each
        split_no = np.full(k, -1)
        split_no[split] = np.arange(len(split))
        keep = split_no[node] >= 0
        idx = idx[keep][np.argsort(2 * split_no[node[keep]] + ~go_left[keep], kind="stable")]
        sizes = np.column_stack([n_left[split], sizes[split] - n_left[split]]).ravel()
        tree = np.repeat(tree[split], 2)
    return _Trees(*(np.concatenate(arrays) for arrays in zip(*levels)))


class RandomForest:
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(self, spec: ModelSpec, classification: bool):
        self.spec = spec
        self.classification = classification
        self.trees: _Trees | None = None
        self.n_classes = 0
        self.n_features = 0

    def fit(self, X, y) -> "RandomForest":
        X = _finite(X, "inputs")
        y = _finite(y, "targets")
        if len(y) == 0:
            raise ValueError("empty training set")
        if X.ndim != 2 or X.shape[1] == 0 or len(X) != len(y):
            raise ValueError(f"need one row of at least one column per target, got {X.shape} for {len(y)}")
        if self.classification:
            self.n_classes = int(y.max()) + 1
        self.n_features = X.shape[1]
        self.trees = _grow_forest(X, y, self.classification, self.n_classes, self.spec)
        return self

    def predict(self, X) -> np.ndarray:
        if self.trees is None:
            raise ValueError("fit before predict")
        X = _finite(X, "inputs")
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} columns, got shape {X.shape}")
        t = self.trees
        rows = np.arange(len(X))
        node = np.repeat(np.arange(self.spec.n_trees)[:, None], len(X), axis=1)
        # a leaf is its own child, so max_depth steps take every row to its leaf
        for _ in range(self.spec.max_depth):
            node = np.where(X[rows, t.feature[node]] <= t.threshold[node], t.left[node], t.right[node])
        preds = t.value[node]
        if self.classification:
            # majority vote; argmax takes the first, so ties go to the lowest class
            votes = (preds == np.arange(self.n_classes)[:, None, None]).sum(axis=1)
            return np.argmax(votes, axis=0).astype(float)
        return preds.mean(axis=0)


def train_random_forest(X, y, spec: ModelSpec, classification: bool) -> RandomForest:
    return RandomForest(spec, classification).fit(X, y)


# ----------------------------------------------------------------------- KNN


def _standardize(train: np.ndarray, other: np.ndarray):
    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (train - mu) / sd, (other - mu) / sd


KNN_K = 5  # neighbours whose mean distance is a row's anomaly score
# test x train distance cells that one block of test rows builds at once:
# bounds the scorer's temporaries whatever the number of train rows
_KNN_CELLS = 1 << 15


def knn_anomaly_scores(train_X, test_X, k: int = KNN_K) -> np.ndarray:
    """Mean distance of each test point to its k nearest train neighbors."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    if not 1 <= k < len(train_X):
        raise ValueError(f"k must satisfy 1 <= k < train rows ({len(train_X)}), got {k}")
    xs, xt = _standardize(train_X, test_X)
    nt = np.sum(xt**2, axis=1)
    ns = np.sum(xs**2, axis=1)
    scores = np.empty(len(xt))
    step = max(1, _KNN_CELLS // len(xs))
    for lo in range(0, len(xt), step):
        blk = slice(lo, lo + step)
        # in place, so one block x train temporary is alive beside d2
        d2 = nt[blk, None] + ns
        d2 -= (2 * xt[blk]) @ xs.T
        np.maximum(d2, 0.0, out=d2)
        # sqrt is monotone, so the k nearest by squared distance are the k nearest
        d2.partition(k - 1, axis=1)
        scores[blk] = np.sort(np.sqrt(d2[:, :k]), axis=1).mean(axis=1)
    return scores


# ------------------------------------------------------------------- metrics


def _per_class_scores(pred, truth) -> tuple[list, list, list]:
    """F1, precision and recall of each class present in the truth vector."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if len(pred) != len(truth):
        raise ValueError("length mismatch")
    f1s, precisions, recalls = [], [], []
    for c in np.unique(truth):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
        precisions.append(precision)
        recalls.append(recall)
    return f1s, precisions, recalls


def metric_f1(pred, truth) -> float:
    """Macro-averaged F1 over the classes present in the truth vector."""
    return float(np.mean(_per_class_scores(pred, truth)[0]))


def metric_1rae(pred, truth) -> float:
    """1 - sum|y - yhat| / sum|y - mean(y)|; may be negative."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if len(pred) != len(truth):
        raise ValueError("length mismatch")
    denom = np.sum(np.abs(truth - truth.mean()))
    if denom == 0.0:
        return 1.0 if np.allclose(pred, truth) else 0.0
    return float(1.0 - np.sum(np.abs(truth - pred)) / denom)


def metric_auc(scores, truth) -> float:
    """Mann-Whitney ROC-AUC with average-rank tie correction."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if len(scores) != len(truth):
        raise ValueError("length mismatch")
    pos = truth == 1
    n_pos = int(pos.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined for single-class truth")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of tied scores spans sorted positions i..j and shares rank (i+j)/2 + 1
    starts = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    run = np.cumsum(starts) - 1
    i = np.flatnonzero(starts)
    j = np.r_[i[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = 0.5 * (i[run] + j[run]) + 1.0
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def evaluate_predictions(pred_or_scores, truth, task: Task) -> EvalResult:
    """Full metric bundle for a task; primary metric per the task kind."""
    if task is Task.CLASSIFICATION:
        pred = np.asarray(pred_or_scores)
        truth_i = np.asarray(truth, dtype=int)
        f1s, precs, recs = _per_class_scores(pred, truth_i)
        f1 = float(np.mean(f1s))
        return EvalResult(
            primary_metric=f1,
            auxiliary={
                "f1_macro": f1,
                "precision_macro": float(np.mean(precs)),
                "recall_macro": float(np.mean(recs)),
                "accuracy": float(np.mean(pred == truth_i)),
            },
        )
    if task is Task.REGRESSION:
        pred = np.asarray(pred_or_scores, dtype=float)
        truth_f = np.asarray(truth, dtype=float)
        one_rae = metric_1rae(pred, truth_f)
        mae = float(np.mean(np.abs(pred - truth_f)))
        rmse = float(np.sqrt(np.mean((pred - truth_f) ** 2)))
        denom_mae = float(np.mean(np.abs(truth_f - truth_f.mean())))
        denom_rmse = float(np.sqrt(np.mean((truth_f - truth_f.mean()) ** 2)))
        return EvalResult(
            primary_metric=one_rae,
            auxiliary={
                "1-RAE": one_rae,
                "1-MAE": 1.0 - mae / denom_mae if denom_mae > 0 else 0.0,
                "1-RMSE": 1.0 - rmse / denom_rmse if denom_rmse > 0 else 0.0,
            },
        )
    auc = metric_auc(pred_or_scores, truth)
    return EvalResult(primary_metric=auc, auxiliary={"roc_auc": auc})


_PRIMARY_METRIC = {
    Task.CLASSIFICATION: metric_f1,
    Task.REGRESSION: metric_1rae,
    Task.OUTLIER_DETECTION: metric_auc,
}


def predict_test_side(features, target, task: Task, spec: ModelSpec, split: SplitPlan) -> np.ndarray:
    """Fit the task model on the train side; its predictions for the test side.

    Classification and regression return random-forest predictions, outlier
    detection returns KNN anomaly scores.
    """
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    tr = split.train_indices
    te = split.test_indices
    if len(tr) == 0 or len(te) == 0:
        raise ValueError("degenerate split")
    if task is Task.OUTLIER_DETECTION:
        return knn_anomaly_scores(features[tr], features[te], k=min(KNN_K, len(tr) - 1))
    model = train_random_forest(features[tr], target[tr], spec, classification=task is Task.CLASSIFICATION)
    return model.predict(features[te])


def downstream_performance(
    features, target, task: Task, spec: ModelSpec, split: SplitPlan
) -> float:
    """Search-time reward V_A: primary metric of the task model on the test side.

    Regression clamps negative 1-RAE to 0 so the reward scale stays
    commensurate with utility deltas.
    """
    pred = predict_test_side(features, target, task, spec, split)
    truth = np.asarray(target, dtype=float)[split.test_indices]
    score = _PRIMARY_METRIC[task](pred, truth)
    return max(0.0, score) if task is Task.REGRESSION else score

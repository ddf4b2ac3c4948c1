"""Downstream models and metrics that score a candidate feature set.

Random forest (CART trees built from scratch) for classification/regression
and a KNN mean-distance anomaly scorer.  The headline metric is macro-F1 /
1-RAE / ROC-AUC depending on the task.

The forest grows all its trees together in the calling process, one depth at
a time, into flat node arrays; one fit may grow a forest per set of rows, as
the final CV does for its folds. Each depth runs one exact split search over
every splittable node of every tree, batched by node size, in scratch buffers
that the fit reuses from batch to batch. Predict steps all rows through all
trees at once.
"""

from __future__ import annotations

import math
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


def _buffer(scratch: dict, name: str, shape, dtype=float) -> np.ndarray:
    """A ``shape`` view of the flat buffer ``scratch[name]``, which is replaced by a larger one when too small."""
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size, dtype)
    return scratch[name][:size].reshape(shape)


def _best_splits(X, rank, y, rows, sizes, feats, classification: bool, n_classes: int, min_leaf: int, scratch: dict):
    """Best (column, threshold) of each node; column -1 where no cut is valid.

    Node j's rows ``rows[j, :sizes[j]]`` are padded with the sentinel row,
    which ``rank`` sorts last and whose target in ``y`` adds nothing to any
    sum, so each valid cut scores as in a one-node search. The lowest score
    wins; ties go to the earliest column, then to the leftmost cut. Every
    array of a batch's size is a view of a ``scratch`` buffer, written before
    it is read.
    """
    k, width = rows.shape
    n_try = feats.shape[1]
    shift = (width - 1).bit_length()
    position = np.arange(width, dtype=rank.dtype)
    # cut p leaves the p first sorted rows on the left, for p in 1..width; every
    # cut array spans all of them, so that numpy runs each operation as one loop
    nl = np.arange(1, width + 1, dtype=float)
    cut_cols, cut_at = np.full(k, -1), np.zeros(k)
    step = max(1, _BATCH // (n_try * width * (n_classes if classification else 1)))
    for a in range(0, k, step):
        b = min(k, a + step)
        # a cell is one (node, candidate column); node-level arrays broadcast over the columns
        cells = (b - a, n_try, width)
        # each cell's keys (rank << shift) | position, sorted: rank[feats[a:b, :, None], rows[a:b, None, :]]
        at = _buffer(scratch, "at", cells, np.intp)
        np.add(feats[a:b, :, None] * rank.shape[1], rows[a:b, None, :], out=at)
        key = np.take(rank.ravel(), at, out=_buffer(scratch, "key", cells, rank.dtype), mode="clip")
        np.bitwise_or(np.left_shift(key, shift, out=key), position, out=key)
        key.sort(axis=2)
        # srows = rows[a:b][node, key & (2**shift - 1)] and r = key >> shift
        np.bitwise_and(key, (1 << shift) - 1, out=at)
        np.add(at, (np.arange(a, b) * width)[:, None, None], out=at)
        srows = np.take(rows.ravel(), at, out=_buffer(scratch, "srows", cells, rows.dtype), mode="clip")
        ys = np.take(y, srows, out=_buffer(scratch, "ys", cells), mode="clip")
        r = np.right_shift(key, shift, out=key).ravel()
        m = sizes[a:b].astype(float)[:, None, None]
        nr = m - nl
        # cuts between two equal values, or that leave fewer than min_leaf rows on
        # a side; the last cut of a cell, compared with the next cell, is one of these
        invalid = _buffer(scratch, "invalid", cells, bool)
        np.greater_equal(r[:-1], r[1:], out=invalid.ravel()[:-1])
        invalid.ravel()[-1] = True
        np.logical_or(invalid, (nl < min_leaf) | (nr < min_leaf), out=invalid)
        np.maximum(nr, 1.0, out=nr)
        score = _buffer(scratch, "score", cells)
        if classification:
            # 1 - sum of squared class shares on each side; numpy's sum over 8 or
            # more classes is not a left-to-right one, so those stack their terms
            wide = n_classes >= 8
            gini = _buffer(scratch, "gini", (2, *cells))
            sq = _buffer(scratch, "sq", (2, *cells, n_classes) if wide else (2, *cells))
            count = _buffer(scratch, "count", cells)
            for c in range(n_classes):
                np.cumsum(np.equal(ys, c, out=count), axis=2, out=count)
                p = sq[..., c] if wide else sq if c else gini
                np.divide(count, nl, out=p[0])
                np.divide(np.subtract(count[..., -1:], count, out=p[1]), nr, out=p[1])
                np.square(p, out=p)
                if c and not wide:
                    np.add(gini, p, out=gini)
            if wide:
                np.sum(sq, axis=-1, out=gini)
            # (nl * (1 - gini_l) + nr * (1 - gini_r)) / m
            np.multiply(nl, np.subtract(1.0, gini[0], out=gini[0]), out=gini[0])
            np.multiply(nr, np.subtract(1.0, gini[1], out=gini[1]), out=gini[1])
            np.divide(np.add(gini[0], gini[1], out=score), m, out=score)
        else:
            # prefix sums of ys * ys, then of ys in place: ys is read no further
            s, s2, t = ys, _buffer(scratch, "s2", cells), _buffer(scratch, "t", cells)
            np.cumsum(np.multiply(ys, ys, out=s2), axis=2, out=s2)
            np.cumsum(ys, axis=2, out=s)
            # var_l = s2 / nl - (s / nl) ** 2, held in score
            np.subtract(np.divide(s2, nl, out=score), np.square(np.divide(s, nl, out=t), out=t), out=score)
            # var_r = (s2[..., -1:] - s2) / nr - ((s[..., -1:] - s) / nr) ** 2 in t, its last term in s2
            np.divide(np.subtract(s2[..., -1:], s2, out=t), nr, out=t)
            np.square(np.divide(np.subtract(s[..., -1:], s, out=s2), nr, out=s2), out=s2)
            np.subtract(t, s2, out=t)
            # (nl * var_l + nr * var_r) / m
            np.add(np.multiply(nl, score, out=score), np.multiply(nr, t, out=t), out=score)
            np.divide(score, m, out=score)
        np.putmask(score, invalid, np.inf)
        col, i = np.divmod(np.argmin(score.reshape(b - a, -1), axis=1), width)
        node = np.arange(b - a)
        ok = np.flatnonzero(~invalid[node, col, i])
        node, col, i = node[ok], col[ok], i[ok]
        f = feats[a + ok, col]
        cut_cols[a + ok] = f
        cut_at[a + ok] = 0.5 * (X[srows[node, col, i], f] + X[srows[node, col, i + 1], f])
    return cut_cols, cut_at


def _grow_forest(X: np.ndarray, y: np.ndarray, bases: list, classification: bool, spec: ModelSpec) -> list:
    """Grow one forest of ``spec.n_trees`` trees per base of row indices, all together, one depth at a time.

    Forest f is the forest a fit on ``X[bases[f]], y[bases[f]]`` alone
    grows. Its tree t draws from ``default_rng(spec.seed * 1_000_003 + t)``:
    first its bootstrap rows, ``integers(0, mf, mf)`` positions in its base
    of mf rows; then, at each depth, one ``random((count, n))`` for the tree's
    ``count`` splittable nodes there, in node order. Each row of that draw,
    stably argsorted and cut to its first ceil(sqrt(n)) entries, then sorted,
    is one node's candidate columns. A node above ``max_depth`` is splittable
    when it holds at least ``2 * min_samples_leaf`` rows whose targets differ.
    Nodes are numbered depth by depth, forest by forest, tree by tree;
    children follow their parents' order, left before right, and keep their
    parent's row order. Each forest's nodes are then numbered in that order.
    """
    m, n = X.shape
    n_trees, min_leaf = spec.n_trees, spec.min_samples_leaf
    n_try = int(np.ceil(np.sqrt(n)))
    # tree t of forest f is tree f * n_trees + t of the pass
    rngs = [np.random.default_rng(spec.seed * 1_000_003 + t) for _ in bases for t in range(n_trees)]
    # the nodes of one depth: their rows back to back, their sizes and trees
    sizes, tree = np.repeat([len(b) for b in bases], n_trees), np.arange(len(rngs))
    idx = np.concatenate([bases[t // n_trees][rngs[t].integers(0, s, size=s)] for t, s in enumerate(sizes)])
    # a forest's class count is that of its own fit, which sets how its Gini terms add up
    classes = np.repeat([int(y[b].max()) + 1 if classification else 1 for b in bases], n_trees)
    n_classes = int(classes.max())
    rank = _dense_ranks(X)
    y_pad = np.append(y, -1.0 if classification else 0.0)
    levels, owners, scratch = [], [], {}
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
            value = np.add.reduceat(np.insert(ys, starts, 0.0), starts + np.arange(k)) / sizes
        level = _Trees(np.full(k, -1), np.zeros(k), np.arange(first, first + k), np.arange(first, first + k), value)
        levels.append(level)
        owners.append(tree // n_trees)
        splittable = np.flatnonzero(
            (sizes >= 2 * min_leaf) & (np.minimum.reduceat(ys, starts) < np.maximum.reduceat(ys, starts))
        )
        if depth == spec.max_depth or len(splittable) == 0:
            break
        draws = [rngs[t].random((c, n)) for t, c in enumerate(np.bincount(tree[splittable], minlength=len(rngs))) if c]
        feats = np.sort(np.concatenate(draws).argsort(axis=1, kind="stable")[:, :n_try], axis=1)
        feature, threshold = np.full(k, -1), np.zeros(k)
        idx_pad = np.append(idx, m)
        # one batch per power-of-two size class (16 rows at least, below 2**64)
        # and class count, padded to its largest node
        batches = np.maximum(np.ceil(np.log2(sizes[splittable])), 4) + 64 * classes[tree[splittable]]
        for batch in np.unique(batches):
            group = batches == batch
            nodes = splittable[group]
            size = sizes[nodes]
            # one node per row: its rows, then the sentinel row m
            pos = np.arange(size.max())
            rows = idx_pad[np.where(pos < size[:, None], starts[nodes, None] + pos, len(idx))]
            feature[nodes], threshold[nodes] = _best_splits(
                X, rank, y_pad, rows, size, feats[group], classification, int(batch // 64), min_leaf, scratch
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
    del scratch  # freed before the forests are copied out
    trees, owner = _Trees(*(np.concatenate(arrays) for arrays in zip(*levels))), np.concatenate(owners)
    local, forests = np.empty(len(owner), dtype=int), []
    for f in range(len(bases)):
        nodes = np.flatnonzero(owner == f)
        local[nodes] = np.arange(len(nodes))
        left, right = local[trees.left[nodes]], local[trees.right[nodes]]
        forests.append(_Trees(trees.feature[nodes], trees.threshold[nodes], left, right, trees.value[nodes]))
    return forests


class RandomForest:
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(self, spec: ModelSpec, classification: bool):
        self.spec = spec
        self.classification = classification
        self.forests: list[_Trees] = []
        self.n_classes = 0
        self.n_features = 0

    def fit(self, X, y, bases=None) -> "RandomForest":
        """Grow one forest per base of row indices (all rows by default), each as a fit on its rows alone."""
        X = _finite(X, "inputs")
        y = _finite(y, "targets")
        bases = [np.arange(len(y))] if bases is None else [np.asarray(b, dtype=int) for b in bases]
        if min(map(len, bases)) == 0:
            raise ValueError("empty training set")
        if any(b.min() < 0 or b.max() >= len(y) for b in bases):
            raise ValueError(f"base row indices must lie in [0, {len(y)})")
        if X.ndim != 2 or X.shape[1] == 0 or len(X) != len(y):
            raise ValueError(f"need one row of at least one column per target, got {X.shape} for {len(y)}")
        if self.classification:
            self.n_classes = int(y.max()) + 1
        self.n_features = X.shape[1]
        self.forests = _grow_forest(X, y, bases, self.classification, self.spec)
        return self

    def predict(self, X, forest: int = 0) -> np.ndarray:
        """The prediction of forest ``forest`` for each row of X."""
        if not self.forests:
            raise ValueError("fit before predict")
        X = _finite(X, "inputs")
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} columns, got shape {X.shape}")
        t = self.forests[forest]
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


def train_random_forest(X, y, spec: ModelSpec, classification: bool, bases=None) -> RandomForest:
    return RandomForest(spec, classification).fit(X, y, bases)


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


def _reward(pred, truth, task: Task) -> float:
    """V_A of the predictions ``pred`` for ``truth``, as `downstream_performance` scores them."""
    score = _PRIMARY_METRIC[task](pred, truth)
    return max(0.0, score) if task is Task.REGRESSION else score


def downstream_performance(
    features, target, task: Task, spec: ModelSpec, split: SplitPlan
) -> float:
    """Search-time reward V_A: primary metric of the task model on the test side.

    Regression clamps negative 1-RAE to 0 so the reward scale stays
    commensurate with utility deltas.
    """
    pred = predict_test_side(features, target, task, spec, split)
    return _reward(pred, np.asarray(target, dtype=float)[split.test_indices], task)


def forest_fold_scores(features, target, task: Task, spec: ModelSpec, folds) -> list[float]:
    """``downstream_performance`` of a forest task on each (train, test) fold, from one fit of all their forests."""
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    bases = [train for train, _ in folds]
    model = train_random_forest(features, target, spec, task is Task.CLASSIFICATION, bases)
    return [_reward(model.predict(features[test], f), target[test], task) for f, (_, test) in enumerate(folds)]

"""Downstream models and metrics that score a candidate feature set.

Random forest (CART trees built from scratch) for classification/regression,
closed-form ridge regression, and a KNN mean-distance anomaly scorer.  The
headline metric is macro-F1 / 1-RAE / ROC-AUC depending on the task.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from featforge.data_core import SplitPlan, Task


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "random_forest"  # random_forest | ridge | knn_anomaly
    n_trees: int = 10
    max_depth: int = 8
    min_samples_leaf: int = 2
    ridge_lambda: float = 1.0
    knn_k: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_trees, self.max_depth, self.min_samples_leaf, self.knn_k) < 1:
            raise ValueError("hyperparameters must be positive")
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")


@dataclass(frozen=True)
class EvalResult:
    primary_metric: float
    auxiliary: dict


# ---------------------------------------------------------------- CART trees


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _best_split(X: np.ndarray, y: np.ndarray, classification: bool, n_classes: int, min_leaf: int):
    """Best (column, threshold) over the columns of X; None if no valid split.

    All columns are searched in one pass, with the per-cut score formulas of a
    one-column search. The lowest score wins; ties go to the leftmost cut, then
    to the earliest column, as a column-by-column loop with a strict `<` picks.
    """
    xt = X.T  # (k, m): one row per candidate column
    k, m = xt.shape
    order = np.argsort(xt, axis=1, kind="stable")
    xs = xt[np.arange(k)[:, None], order]
    ys = y[order]
    # a cut after left size p, for p in [lo, hi], leaves min_leaf rows per side
    lo, hi = min_leaf, m - min_leaf
    nl = np.arange(lo, hi + 1, dtype=float)
    nr = m - nl
    if classification:
        prefix = np.cumsum(ys[:, :, None] == np.arange(n_classes), axis=1)
        left = prefix[:, lo - 1 : hi]
        right = prefix[:, -1:] - left
        pl = left / nl[:, None]
        pr = right / nr[:, None]
        gini_l = 1.0 - np.sum(pl * pl, axis=2)
        gini_r = 1.0 - np.sum(pr * pr, axis=2)
        score = (nl * gini_l + nr * gini_r) / m
    else:
        s = np.cumsum(ys, axis=1)
        s2 = np.cumsum(ys * ys, axis=1)
        sl = s[:, lo - 1 : hi]
        sr = s[:, -1:] - sl
        s2l = s2[:, lo - 1 : hi]
        s2r = s2[:, -1:] - s2l
        var_l = s2l / nl - (sl / nl) ** 2
        var_r = s2r / nr - (sr / nr) ** 2
        score = (nl * var_l + nr * var_r) / m
    # only cuts between two different values are valid
    valid = xs[:, lo - 1 : hi] < xs[:, lo : hi + 1]
    np.putmask(score, ~valid, np.inf)
    col, i = divmod(int(np.argmin(score)), score.shape[1])
    if not valid[col, i]:
        return None
    pos = lo + i
    return col, 0.5 * (xs[col, pos - 1] + xs[col, pos])


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    classification: bool,
    n_classes: int,
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator,
    depth: int = 0,
) -> _TreeNode:
    def leaf():
        if classification:
            counts = np.bincount(y.astype(int), minlength=n_classes)
            return _TreeNode(value=int(np.argmax(counts)))
        return _TreeNode(value=float(y.mean()))

    if depth >= max_depth or len(y) < 2 * min_leaf or y.min() == y.max():
        return leaf()
    n = X.shape[1]
    n_try = int(np.ceil(np.sqrt(n)))
    feats = np.sort(rng.choice(n, size=n_try, replace=False))
    best = _best_split(X[:, feats], y, classification, n_classes, min_leaf)
    if best is None:
        return leaf()
    col, threshold = best
    f = feats[col]
    mask = X[:, f] <= threshold
    # midpoints of near-identical values can round onto one of them
    if not mask.any() or mask.all():
        return leaf()
    node = _TreeNode()
    node.feature = int(f)
    node.threshold = float(threshold)
    node.left = _build_tree(X[mask], y[mask], classification, n_classes, max_depth, min_leaf, rng, depth + 1)
    node.right = _build_tree(X[~mask], y[~mask], classification, n_classes, max_depth, min_leaf, rng, depth + 1)
    return node


def _predict_tree(node: _TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        cur = node
        while cur.value is None:
            cur = cur.left if X[i, cur.feature] <= cur.threshold else cur.right
        out[i] = cur.value
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return 1


def _fork_call(fn):
    """Call ``fn()`` in a forked copy of this process.

    Returns the child's pid and the read end of a pipe that carries the
    pickled ``(ok, value or exception)`` back; `_join` reads it and reaps the
    child. The child is a copy-on-write image of the caller, so it sees the
    caller's arrays and module globals (a patched builder too) without any of
    them being sent, and it leaves by ``os._exit``, so it runs none of the
    exit handlers and flushes none of the buffered output it inherited.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            outcome = (True, fn())
        except BaseException as exc:
            outcome = (False, exc)
        with os.fdopen(write, "wb") as out:
            out.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _join(pid: int, read: int) -> tuple[int, bytes]:
    """Child ``pid``'s exit code and pipe contents, once it has exited.

    The pipe is closed before the wait, so a child still writing to it gets
    EPIPE and exits instead of blocking.
    """
    try:
        with os.fdopen(read, "rb") as src:
            payload = src.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code, payload


class RandomForest:
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(self, spec: ModelSpec, classification: bool):
        self.spec = spec
        self.classification = classification
        self.trees: list[_TreeNode] = []
        self.n_classes = 0

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise ValueError("empty training set")
        if self.classification:
            self.n_classes = int(y.max()) + 1
        n = self.spec.n_trees
        if n < 2 or _usable_cpus() < 2 or not hasattr(os, "fork"):
            self.trees = self._grow(range(n), X, y)
            return self
        # a forked child grows the second half of the trees while the caller
        # grows the first; each tree has its own seed, so the forest is the
        # one a single process grows
        half = (n + 1) // 2
        pid, read = _fork_call(lambda: self._grow(range(half, n), X, y))
        try:
            trees = self._grow(range(half), X, y)
        except BaseException:
            import signal  # only this error path needs it; keeps it out of start-up

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code, payload = _join(pid, read)
        if code != 0:
            raise ChildProcessError(f"tree-growing child {pid} exited with code {code}")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        self.trees = trees + value
        return self

    def _grow(self, trees: range, X: np.ndarray, y: np.ndarray) -> list[_TreeNode]:
        """Trees ``trees`` of the forest; tree t draws its rows and splits from its own seed."""
        spec, m = self.spec, len(y)
        out = []
        for t in trees:
            rng = np.random.default_rng(spec.seed * 1_000_003 + t)
            rows = rng.integers(0, m, size=m)
            out.append(
                _build_tree(
                    X[rows],
                    y[rows],
                    self.classification,
                    self.n_classes,
                    spec.max_depth,
                    spec.min_samples_leaf,
                    rng,
                )
            )
        return out

    def predict(self, X) -> np.ndarray:
        if not self.trees:
            raise ValueError("fit before predict")
        X = np.asarray(X, dtype=float)
        preds = np.stack([_predict_tree(t, X) for t in self.trees])
        if self.classification:
            # majority vote; argmax takes the first, so ties go to the lowest class
            votes = (preds == np.arange(self.n_classes)[:, None, None]).sum(axis=1)
            return np.argmax(votes, axis=0).astype(float)
        return preds.mean(axis=0)


def train_random_forest(X, y, spec: ModelSpec, classification: bool) -> RandomForest:
    return RandomForest(spec, classification).fit(X, y)


# ------------------------------------------------------------ ridge and KNN


def _standardize(train: np.ndarray, other: np.ndarray):
    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (train - mu) / sd, (other - mu) / sd


def ridge_fit_predict(train_X, train_y, test_X, lam: float = 1.0) -> np.ndarray:
    """Closed-form ridge on standardized features; intercept unpenalized."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    train_y = np.asarray(train_y, dtype=float)
    xs, xt = _standardize(train_X, test_X)
    y_mean = train_y.mean()
    yc = train_y - y_mean
    n = xs.shape[1]
    w = np.linalg.solve(xs.T @ xs + lam * np.eye(n), xs.T @ yc)
    return xt @ w + y_mean


def knn_anomaly_scores(train_X, test_X, k: int = 5) -> np.ndarray:
    """Mean distance of each test point to its k nearest train neighbors."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    if k >= len(train_X):
        raise ValueError("k must be < number of reference rows")
    xs, xt = _standardize(train_X, test_X)
    d2 = np.sum(xt**2, axis=1)[:, None] + np.sum(xs**2, axis=1)[None, :] - 2 * xt @ xs.T
    d = np.sqrt(np.maximum(d2, 0.0))
    part = np.sort(d, axis=1)[:, :k]
    return part.mean(axis=1)


def knn_self_scores(X, k: int = 5) -> np.ndarray:
    """Anomaly score within one set: mean distance to k nearest others."""
    X = np.asarray(X, dtype=float)
    if k >= len(X):
        raise ValueError("k must be < number of rows")
    xs, _ = _standardize(X, X)
    d2 = np.sum(xs**2, axis=1)[:, None] + np.sum(xs**2, axis=1)[None, :] - 2 * xs @ xs.T
    d = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(d, np.inf)
    part = np.sort(d, axis=1)[:, :k]
    return part.mean(axis=1)


# ------------------------------------------------------------------- metrics


def confusion_counts(pred, truth, n_classes: int):
    mat = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(np.asarray(pred, dtype=int), np.asarray(truth, dtype=int)):
        mat[t, p] += 1
    return mat


def metric_f1(pred, truth) -> float:
    """Macro-averaged F1 over the classes present in the truth vector."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if len(pred) != len(truth):
        raise ValueError("length mismatch")
    classes = np.unique(truth)
    f1s = []
    for c in classes:
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return float(np.mean(f1s))


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


def evaluate_predictions(pred_or_scores, truth, task: Task) -> EvalResult:
    """Full metric bundle for a task; primary metric per the task kind."""
    if task is Task.CLASSIFICATION:
        pred = np.asarray(pred_or_scores)
        truth_i = np.asarray(truth, dtype=int)
        f1 = metric_f1(pred, truth_i)
        classes = np.unique(truth_i)
        precs, recs = [], []
        for c in classes:
            tp = np.sum((pred == c) & (truth_i == c))
            fp = np.sum((pred == c) & (truth_i != c))
            fn = np.sum((pred != c) & (truth_i == c))
            precs.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
            recs.append(tp / (tp + fn) if tp + fn > 0 else 0.0)
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
        return knn_anomaly_scores(features[tr], features[te], k=min(spec.knn_k, len(tr) - 1))
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
    score = evaluate_predictions(pred, truth, task).primary_metric
    return max(0.0, score) if task is Task.REGRESSION else score

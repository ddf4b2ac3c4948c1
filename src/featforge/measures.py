"""Information-theoretic and statistical kernels.

All quantities are in nats.  Mutual information is a plug-in estimate over
discretized joint counts with a fixed binning: a column with at most
``N_BINS`` (16) distinct values keeps one bin per value, and any other column
is cut into min(16, max(2, floor(sqrt(m)))) equal-frequency bins.  All MI
comes from one engine, :class:`MIEngine`: a run creates one for its target,
which bins each column once and caches target and pairwise MI by column
expression; a call made without one builds a throwaway engine.  Every other
function here is pure; :func:`descriptive_stats` summarises every row of a
matrix in one array pass.
"""

from __future__ import annotations

import numpy as np

_NEG_TOL = 1e-12
N_BINS = 16  # the most bins a column is cut into


def _check_vector(x, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return x.ravel()


def discretize(x) -> np.ndarray:
    """Map a finite real vector to integer bin labels.

    Vectors with <= N_BINS distinct values keep one label per distinct value
    (ranked).  Otherwise equal-frequency binning is used; a value equal to a
    bin boundary goes to the lower bin.  NaN or infinite values raise.
    """
    x = _check_vector(x)
    if not np.isfinite(x).all():
        raise ValueError("cannot discretize non-finite values")
    distinct = np.unique(x)
    if len(distinct) <= N_BINS:
        return np.searchsorted(distinct, x)
    n_bins = min(N_BINS, max(2, int(np.floor(np.sqrt(len(x))))))
    edges = np.quantile(x, np.arange(1, n_bins) / n_bins)
    return np.searchsorted(edges, x, side="left")


def entropy(x) -> float:
    """Plug-in Shannon entropy (nats) over discretized counts."""
    labels = discretize(x)
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _mi_from_labels(lx: np.ndarray, ly: np.ndarray) -> float:
    """Plug-in MI (nats) of two label vectors; MI(a, b) and MI(b, a) may differ in the last bit."""
    nx = int(lx.max()) + 1
    ny = int(ly.max()) + 1
    codes = lx.astype(np.intp) * ny + ly
    joint = np.bincount(codes, minlength=nx * ny).reshape(nx, ny) / len(lx)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    if -_NEG_TOL <= mi < 0:
        mi = 0.0
    return mi


def mutual_information(x, y) -> float:
    """Plug-in mutual information (nats) between two real vectors."""
    x = _check_vector(x)
    y = _check_vector(y, "y")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    return _mi_from_labels(discretize(x), discretize(y))


_TARGET = object()  # the engine's key for its target column
_LABEL_DTYPE = np.min_scalar_type(N_BINS - 1)  # labels are below N_BINS


class MIEngine:
    """Mutual information against one target, cached by column name.

    Within one run a column's name (its expression) fixes its values, so each
    column is binned once and each MI value is computed once, keyed by the
    ordered name pair: MI(a, b) and MI(b, a) can differ in the last bit, so
    pairs are always read in table order, with the target last.
    """

    def __init__(self, target):
        self.target = _check_vector(target, "target")
        self._labels: dict = {_TARGET: discretize(self.target).astype(_LABEL_DTYPE)}
        self._mi: dict = {}

    def _column_labels(self, name, values: np.ndarray, i) -> np.ndarray:
        labels = self._labels.get(name)
        if labels is None:
            labels = discretize(values[:, i]).astype(_LABEL_DTYPE)
            self._labels[name] = labels
        return labels

    def _pair(self, a, b, values: np.ndarray, i, j) -> float:
        mi = self._mi.get((a, b))
        if mi is None:
            mi = self._mi[a, b] = _mi_from_labels(
                self._column_labels(a, values, i), self._column_labels(b, values, j)
            )
        return mi

    def target_mi(self, names, values: np.ndarray) -> np.ndarray:
        """MI(f_i, target) of each column of ``values`` (m x len(names))."""
        return np.array([self._pair(a, _TARGET, values, i, None) for i, a in enumerate(names)])

    def pair_mi(self, names, values: np.ndarray) -> np.ndarray:
        """Symmetric matrix of MI(f_i, f_j), each computed with i <= j."""
        n = len(names)
        pair = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                pair[i, j] = pair[j, i] = self._pair(names[i], names[j], values, i, j)
        return pair


def named_columns(features, target, mi: MIEngine | None):
    """(engine, column names, m x n values) for an array or a FeatureTable.

    Columns of a plain array are named by position, so only the throwaway
    engine built here for one call may read them; a shared engine needs a
    table's expression names.
    """
    names = getattr(features, "names", None)
    values = np.asarray(getattr(features, "values", features), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValueError("need at least one feature column")
    target = _check_vector(target, "target")
    if values.shape[0] != len(target):
        raise ValueError("feature rows must match target length")
    if mi is None:
        mi = MIEngine(target)
    elif names is None:
        raise ValueError("a shared MIEngine needs named columns (a FeatureTable)")
    elif not np.array_equal(mi.target, target):
        raise ValueError("the MIEngine was built for another target")
    if names is None:
        names = range(values.shape[1])
    return mi, tuple(names), values


def utility_u(features, target, mi: MIEngine | None = None) -> float:
    """Feature-set utility: mean target relevance minus mean pairwise redundancy.

    U = -(1/n^2) * sum_{i,j} MI(f_i, f_j) + (1/n) * sum_i MI(f_i, y), where
    the redundancy double sum includes i=j.  ``features`` is an m x n array or
    a FeatureTable; ``mi`` is the run's engine.
    """
    mi, names, values = named_columns(features, target, mi)
    m, n = values.shape
    if m < 2:
        raise ValueError("need at least 2 samples")
    mi_y = mi.target_mi(names, values)
    rows, cols = np.triu_indices(n)
    # cumsum adds in order: a sequential sum over the row-major upper triangle
    terms = np.where(rows == cols, 1.0, 2.0) * mi.pair_mi(names, values)[rows, cols]
    redundancy = np.cumsum(terms)[-1]
    return float(-redundancy / n**2 + mi_y.mean())


def cosine_similarity(x, y) -> float:
    """dot(x, y) / (|x| |y|); 0 when either norm is 0."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(y):
        raise ValueError("length mismatch")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def abs_correlations(values) -> np.ndarray:
    """n x n absolute Pearson correlations of the columns of an m x n matrix.

    The diagonal is 1; a constant column correlates 0 with every other one.
    Each column is centred and normed once, and each pair is one dot product
    of two contiguous centred columns, so every entry equals the one computed
    from that pair alone.
    """
    cols = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    if cols.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    cols = cols - cols.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(cols**2, axis=1))
    n = len(cols)
    a = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] != 0.0 and norms[j] != 0.0:
                r = np.dot(cols[i], cols[j]) / (norms[i] * norms[j])
                a[i, j] = a[j, i] = min(abs(r), 1.0)
    return a


def descriptive_stats(rows) -> np.ndarray:
    """7 x r matrix: count, std, min, max, q1, q2, q3 of each row of an r x k matrix.

    A vector counts as one row.  The std has ddof=1 (0 for a one-value row)
    and the quartiles interpolate linearly.  Each row is reduced along its own
    contiguous memory, so its statistics equal those of the row taken alone.
    """
    rows = np.ascontiguousarray(np.atleast_2d(np.asarray(rows, dtype=float)))
    if rows.size == 0:
        raise ValueError("rows must be non-empty")
    r, k = rows.shape
    std = np.std(rows, axis=1, ddof=1) if k > 1 else np.zeros(r)
    quartiles = np.quantile(rows, [0.25, 0.5, 0.75], axis=1)
    return np.vstack([np.full(r, float(k)), std, rows.min(axis=1), rows.max(axis=1), quartiles])

"""Information-theoretic and statistical kernels.

All quantities are in nats.  Mutual information is a plug-in estimate over
equal-frequency discretized joint counts; the bin count is
min(max_bins, max(2, floor(sqrt(m)))).  All MI comes from one engine,
:class:`MIEngine`: a run creates one for its target, which bins each column
once and caches target and pairwise MI by column expression; a call made
without one builds a throwaway engine.  Every other function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class BinningSpec:
    max_bins: int = 16

    def __post_init__(self):
        if self.max_bins < 2:
            raise ValueError("max_bins must be >= 2")


DEFAULT_BINS = BinningSpec()


@dataclass(frozen=True)
class StatVector7:
    """count, std, min, max, q1, q2, q3 of a vector."""

    count: float
    std: float
    min: float
    max: float
    q1: float
    q2: float
    q3: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.count, self.std, self.min, self.max, self.q1, self.q2, self.q3]
        )


def _check_vector(x, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return x.ravel()


def discretize(x, spec: BinningSpec = DEFAULT_BINS) -> np.ndarray:
    """Map a finite real vector to integer bin labels.

    Vectors with <= max_bins distinct values keep one label per distinct value
    (ranked).  Otherwise equal-frequency binning is used; a value equal to a
    bin boundary goes to the lower bin.  NaN or infinite values raise.
    """
    x = _check_vector(x)
    if not np.isfinite(x).all():
        raise ValueError("cannot discretize non-finite values")
    distinct = np.unique(x)
    if len(distinct) <= spec.max_bins:
        return np.searchsorted(distinct, x)
    n_bins = min(spec.max_bins, max(2, int(np.floor(np.sqrt(len(x))))))
    edges = np.quantile(x, np.arange(1, n_bins) / n_bins)
    return np.searchsorted(edges, x, side="left")


def entropy(x, spec: BinningSpec = DEFAULT_BINS) -> float:
    """Plug-in Shannon entropy (nats) over discretized counts."""
    labels = discretize(x, spec)
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


def mutual_information(x, y, spec: BinningSpec = DEFAULT_BINS) -> float:
    """Plug-in mutual information (nats) between two real vectors."""
    x = _check_vector(x)
    y = _check_vector(y, "y")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    return _mi_from_labels(discretize(x, spec), discretize(y, spec))


_TARGET = object()  # the engine's key for its target column


class MIEngine:
    """Mutual information against one target, cached by column name.

    Within one run a column's name (its expression) fixes its values, so each
    column is binned once and each MI value is computed once, keyed by the
    ordered name pair: MI(a, b) and MI(b, a) can differ in the last bit, so
    pairs are always read in table order, with the target last.
    """

    def __init__(self, target, spec: BinningSpec = DEFAULT_BINS):
        self.target = _check_vector(target, "target")
        self.spec = spec
        # labels are below max_bins, so they are kept in the smallest integer type
        self._label_dtype = np.min_scalar_type(spec.max_bins - 1)
        self._labels: dict = {_TARGET: discretize(self.target, spec).astype(self._label_dtype)}
        self._mi: dict = {}

    def _column_labels(self, name, values: np.ndarray, i) -> np.ndarray:
        labels = self._labels.get(name)
        if labels is None:
            labels = discretize(values[:, i], self.spec).astype(self._label_dtype)
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


def named_columns(features, target, spec: BinningSpec, mi: MIEngine | None):
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
        mi = MIEngine(target, spec)
    elif names is None:
        raise ValueError("a shared MIEngine needs named columns (a FeatureTable)")
    elif mi.spec != spec or not np.array_equal(mi.target, target):
        raise ValueError("the MIEngine was built for another target or binning")
    if names is None:
        names = range(values.shape[1])
    return mi, tuple(names), values


def utility_u(
    features,
    target,
    spec: BinningSpec = DEFAULT_BINS,
    include_self_redundancy: bool = True,
    mi: MIEngine | None = None,
) -> float:
    """Feature-set utility: mean target relevance minus mean pairwise redundancy.

    U = -(1/n^2) * sum_{i,j} MI(f_i, f_j) + (1/n) * sum_i MI(f_i, y).
    The redundancy double sum includes i=j by default; set
    ``include_self_redundancy=False`` to drop the diagonal.  ``features`` is an
    m x n array or a FeatureTable; ``mi`` is the run's engine.
    """
    mi, names, values = named_columns(features, target, spec, mi)
    m, n = values.shape
    if m < 2:
        raise ValueError("need at least 2 samples")
    mi_y = mi.target_mi(names, values)
    pair = mi.pair_mi(names, values).tolist()
    # sequential sum in row-major order over the upper triangle
    redundancy = 0.0
    for i in range(n):
        if include_self_redundancy:
            redundancy += pair[i][i]
        for j in range(i + 1, n):
            redundancy += 2.0 * pair[i][j]
    return float(-redundancy / n**2 + mi_y.mean())


def mi_matrix(features, target, spec: BinningSpec = DEFAULT_BINS, mi: MIEngine | None = None):
    """All pairwise MI(f_i, f_j) plus MI(f_i, y).

    Returns (pair_mi: n x n symmetric matrix, target_mi: length-n vector).
    """
    mi, names, values = named_columns(features, target, spec, mi)
    return mi.pair_mi(names, values), mi.target_mi(names, values)


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


def pearson_abs(x, y) -> float:
    """Absolute Pearson correlation; 0 if either vector is constant."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(y):
        raise ValueError("length mismatch")
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc**2))
    sy = np.sqrt(np.sum(yc**2))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = np.dot(xc, yc) / (sx * sy)
    return float(min(abs(r), 1.0))


def descriptive_stats(x) -> StatVector7:
    """count / std / min / max / quartiles (linear-interpolation quantiles)."""
    x = _check_vector(x)
    n = len(x)
    std = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q1, q2, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    return StatVector7(
        count=float(n),
        std=std,
        min=float(x.min()),
        max=float(x.max()),
        q1=float(q1),
        q2=float(q2),
        q3=float(q3),
    )

"""The state layer as it was before its encoders shared one contract.

`AutoencoderEncoder` is the `state_rep` autoencoder with its mirrored decoder,
as one call sees it: it rebuilds from its seed whenever the input's row or
column count changes, where the current one resizes and warm-starts across
column counts. `GraphAutoencoderEncoder` is the former `state_rep` class from
before warm starts crossed width changes, and `pearson_abs` the former
`measures.pearson_abs`, verbatim; it too rebuilds on any shape change.
`StatVector7`, `descriptive_stats` (one vector per call) and `rep_ds` (one
call per column and per stat) are the former `measures` and `state_rep`
functions, and `_fit_length` the former `StateEncoder` fold of the gae's
one-column ds fallback, all verbatim. The tests require the current encoders
to match these with `==` over inputs of one shape (above `row_subsample_cap`
the current gae reads only the ae's sampled rows, so it is compared with the
reference gae given those rows), `measures.abs_correlations` to match the
per-pair loop of `GraphAutoencoderEncoder.adjacency`, and the current
array-pass statistics and gae fold to match these per-call versions on the
seeded matrices of `stat_inputs`. Both encoders train with
`adam_reference.encoder_update`, the per-tensor Adam in use before the flat
one of `nnet.adam_update`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from adam_reference import encoder_update

from featforge.nnet import AdamState, bce, mse
from featforge.state_rep import EncoderConfig

log = logging.getLogger(__name__)


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


def rep_ds(features) -> np.ndarray:
    """Descriptive statistics of descriptive statistics, flattened to 49 values."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    if features.size == 0:
        raise ValueError("empty feature matrix")
    col_stats = np.column_stack(
        [descriptive_stats(features[:, j]).as_array() for j in range(features.shape[1])]
    )  # 7 x n
    meta = np.column_stack(
        [descriptive_stats(col_stats[i, :]).as_array() for i in range(7)]
    ).T  # 7 x 7, row i = stats of stat-row i
    return meta.ravel()


def _fit_length(vec: np.ndarray, length: int) -> np.ndarray:
    if len(vec) == length:
        return vec
    if len(vec) > length:
        # fold by summing strided slices so all entries contribute
        out = np.zeros(length)
        for i in range(0, len(vec), length):
            chunk = vec[i : i + length]
            out[: len(chunk)] += chunk
        return out
    return np.pad(vec, (0, length - len(vec)))


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



class AutoencoderEncoder:
    """Column-then-row autoencoder with a mirrored decoder; the flattened bottleneck is the state.

    The column maps read a full (subsampled) column, so the network is rebuilt
    and retrained whenever the row or column count changes; otherwise it is
    fine-tuned for a few epochs.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self._shape: tuple[int, int] | None = None
        self._subsample: dict[int, np.ndarray] = {}
        self._params: list[np.ndarray] = []
        self._adam = AdamState()

    @property
    def length(self) -> int:
        return self.cfg.ae_col_dim * self.cfg.ae_row_dim

    def _rows(self, m: int) -> np.ndarray:
        if m <= self.cfg.row_subsample_cap:
            return np.arange(m)
        if m not in self._subsample:
            rng = np.random.default_rng(self.cfg.seed + m)
            self._subsample[m] = np.sort(
                rng.choice(m, size=self.cfg.row_subsample_cap, replace=False)
            )
        return self._subsample[m]

    def _build(self, m_s: int, n: int) -> None:
        k, d = self.cfg.ae_col_dim, self.cfg.ae_row_dim
        rng = np.random.default_rng(self.cfg.seed)
        def u(fan_in, *shape):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)
        wc = u(m_s, k, m_s)
        wr = u(n, n, d)
        wr2 = u(d, d, n)
        wc2 = u(k, m_s, k)
        self._params = [wc, np.zeros(k), wr, np.zeros(d), wr2, np.zeros(n), wc2, np.zeros(m_s)]
        self._adam = AdamState()
        self._shape = (m_s, n)

    def _forward(self, f: np.ndarray):
        wc, bc, wr, br, wr2, br2, wc2, bc2 = self._params
        z_pre = wc @ f + bc[:, None]          # k x n
        z = np.maximum(z_pre, 0.0)
        z2_pre = z @ wr + br[None, :]         # k x d
        z2 = np.maximum(z2_pre, 0.0)          # the bottleneck
        u = z2 @ wr2 + br2[None, :]           # k x n
        recon = wc2 @ u + bc2[:, None]        # rows x n
        return z_pre, z, z2_pre, z2, u, recon

    def _gradients(self, f: np.ndarray):
        wc, bc, wr, br, wr2, br2, wc2, bc2 = self._params
        z_pre, z, z2_pre, z2, u, recon = self._forward(f)
        loss = mse(recon, f)
        d_recon = 2.0 * (recon - f) / f.size
        g_wc2 = d_recon @ u.T
        g_bc2 = d_recon.sum(axis=1)
        d_u = wc2.T @ d_recon
        g_wr2 = z2.T @ d_u
        g_br2 = d_u.sum(axis=0)
        d_z2 = (d_u @ wr2.T) * (z2_pre > 0)
        g_wr = z.T @ d_z2
        g_br = d_z2.sum(axis=0)
        d_z = (d_z2 @ wr.T) * (z_pre > 0)
        g_wc = d_z @ f.T
        g_bc = d_z.sum(axis=1)
        return loss, [g_wc, g_bc, g_wr, g_br, g_wr2, g_br2, g_wc2, g_bc2]

    def _train_step(self, f: np.ndarray) -> float:
        loss, grads = self._gradients(f)
        encoder_update(self._params, grads, self._adam)
        return loss

    def _prepare(self, features: np.ndarray) -> np.ndarray:
        if features.ndim == 1:
            features = features[:, None]
        return features[self._rows(features.shape[0]), :]

    def encode(self, features) -> np.ndarray:
        f = self._prepare(np.asarray(features, dtype=float))
        if f.size == 0:
            raise ValueError("empty feature matrix")
        epochs = self.cfg.incremental_epochs
        if self._shape != f.shape:
            self._build(*f.shape)
            epochs = self.cfg.train_epochs
        for _ in range(epochs):
            self._train_step(f)
        z2 = self._forward(f)[3]
        return z2.ravel()


class GraphAutoencoderEncoder:
    """One-layer GCN over the |pearson| feature graph; state = mean node embedding."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self._shape: tuple[int, int] | None = None
        self._w: np.ndarray | None = None
        self._adam = AdamState()

    @property
    def length(self) -> int:
        return self.cfg.gae_dim

    @staticmethod
    def adjacency(features: np.ndarray) -> np.ndarray:
        n = features.shape[1]
        a = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = a[j, i] = pearson_abs(features[:, i], features[:, j])
        return a

    def _build(self, m: int) -> None:
        rng = np.random.default_rng(self.cfg.seed)
        bound = 1.0 / np.sqrt(m)
        self._w = rng.uniform(-bound, bound, size=(m, self.cfg.gae_dim))
        self._adam = AdamState()

    def _forward(self, msg: np.ndarray):
        z_pre = msg @ self._w      # n x k
        z = np.maximum(z_pre, 0.0)
        a_hat = 1.0 / (1.0 + np.exp(-np.clip(z @ z.T, -500, 500)))
        return z_pre, z, a_hat

    def _gradients(self, msg: np.ndarray, a: np.ndarray):
        z_pre, z, a_hat = self._forward(msg)
        loss = bce(a_hat, a)
        n = a.shape[0]
        d_s = (np.clip(a_hat, 1e-7, 1 - 1e-7) - a) / (n * n)
        d_z = (d_s + d_s.T) @ z
        d_zpre = d_z * (z_pre > 0)
        g_w = msg.T @ d_zpre
        return loss, g_w

    def _train_step(self, msg: np.ndarray, a: np.ndarray) -> float:
        loss, g_w = self._gradients(msg, a)
        encoder_update([self._w], [g_w], self._adam)
        return loss

    @staticmethod
    def _message_matrix(features: np.ndarray, a: np.ndarray) -> np.ndarray:
        deg = a.sum(axis=1)
        d_half = 1.0 / np.sqrt(deg)
        norm_a = a * d_half[:, None] * d_half[None, :]
        return norm_a @ features.T  # n x m

    def encode(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[:, None]
        m, n = features.shape
        if n < 2:
            log.warning("gae needs >= 2 features (got %d); falling back to ds", n)
            return rep_ds(features)
        a = self.adjacency(features)
        msg = self._message_matrix(features, a)
        epochs = self.cfg.incremental_epochs
        if self._shape != (m, n) or self._w is None:
            self._build(m)
            epochs = self.cfg.train_epochs
            self._shape = (m, n)
        for _ in range(epochs):
            self._train_step(msg, a)
        z = self._forward(msg)[1]
        return z.mean(axis=0)


def stat_inputs():
    """Seeded matrices for the statistics oracle: m=1, n=1, constant columns, ties, huge values."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = (1, 2, 3, 7, 40, 401)[seed % 6]
        n = (1, 2, 5, 13)[seed % 4]
        f = rng.normal(size=(m, n))
        if seed % 3 == 0 and n > 1:
            f[:, 1] = 3.0  # a constant column
        if seed % 5 == 0:
            f = np.round(f * 2)  # integer ties
        if seed % 7 == 0:
            f = f**3 * 1e6
        if seed % 11 == 0:
            f = f * 1e18
        yield f

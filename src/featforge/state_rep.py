"""Fixed-length state encodings of feature sets, groups, and operations.

Three encoders: ``ds`` (two-pass descriptive statistics, 49 values), ``ae``
(column-then-row autoencoder bottleneck), ``gae`` (one-layer graph
convolutional autoencoder over the feature correlation graph).  Concatenated
variants ``ds+ae`` and ``ds+ae+gae`` are also supported.  ds is pure; ae/gae
own training state and are warm-started between calls, rebuilding whenever the
input shape changes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from featforge.measures import descriptive_stats, pearson_abs
from featforge.nnet import AdamState, adam_update, bce, mse

log = logging.getLogger(__name__)

DS_LENGTH = 49


@dataclass(frozen=True)
class StateVector:
    values: np.ndarray
    method: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EncoderConfig:
    ae_col_dim: int = 8  # k: latent size per column
    ae_row_dim: int = 8  # d: latent size per row
    gae_dim: int = 16
    train_epochs: int = 20
    incremental_epochs: int = 5
    row_subsample_cap: int = 256
    seed: int = 0

    def __post_init__(self):
        if min(self.ae_col_dim, self.ae_row_dim, self.gae_dim) < 1:
            raise ValueError("latent dimensions must be >= 1")
        if min(self.train_epochs, self.incremental_epochs) < 1:
            raise ValueError("epoch counts must be >= 1")


def rep_ds(features) -> StateVector:
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
    return StateVector(values=meta.ravel(), method="ds")


def rep_operation(op_index: int, op_count: int) -> StateVector:
    if not 0 <= op_index < op_count:
        raise ValueError(f"op index {op_index} out of range [0, {op_count})")
    v = np.zeros(op_count)
    v[op_index] = 1.0
    return StateVector(values=v, method="onehot")


def compose_state(role: str, parts) -> StateVector:
    """Concatenate representation parts for one of the three cascading agents."""
    arity = {"group1": 1, "operation": 2, "group2": 3}
    if role not in arity:
        raise ValueError(f"unknown role {role!r}")
    if len(parts) != arity[role]:
        raise ValueError(f"role {role!r} expects {arity[role]} parts, got {len(parts)}")
    values = np.concatenate([p.values for p in parts])
    return StateVector(values=values, method="concat")


class AutoencoderEncoder:
    """Column-then-row autoencoder; the flattened bottleneck is the state.

    The per-column map reads a full (subsampled) column, so the network is
    rebuilt and retrained whenever the row or column count changes; otherwise
    it is fine-tuned for a few epochs.
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
        bc = np.zeros(k)
        wr = u(n, n, d)
        br = np.zeros(d)
        wd = u(k * d, m_s * n, k * d)
        bd = np.zeros(m_s * n)
        self._params = [wc, bc, wr, br, wd, bd]
        self._adam = AdamState()
        self._shape = (m_s, n)

    def _forward(self, f: np.ndarray):
        wc, bc, wr, br, wd, bd = self._params
        z_pre = wc @ f + bc[:, None]          # k x n
        z = np.maximum(z_pre, 0.0)
        z2_pre = z @ wr + br[None, :]         # k x d
        z2 = np.maximum(z2_pre, 0.0)
        h = z2.ravel()                        # k*d
        recon = (wd @ h + bd).reshape(f.shape)
        return z_pre, z, z2_pre, z2, h, recon

    def _gradients(self, f: np.ndarray):
        wc, bc, wr, br, wd, bd = self._params
        z_pre, z, z2_pre, z2, h, recon = self._forward(f)
        loss = mse(recon, f)
        d_recon = 2.0 * (recon - f) / f.size
        d_flat = d_recon.ravel()
        g_wd = np.outer(d_flat, h)
        g_bd = d_flat
        d_h = wd.T @ d_flat
        d_z2 = d_h.reshape(z2.shape) * (z2_pre > 0)
        g_wr = z.T @ d_z2
        g_br = d_z2.sum(axis=0)
        d_z = (d_z2 @ wr.T) * (z_pre > 0)
        g_wc = d_z @ f.T
        g_bc = d_z.sum(axis=1)
        return loss, [g_wc, g_bc, g_wr, g_br, g_wd, g_bd]

    def _train_step(self, f: np.ndarray) -> float:
        loss, grads = self._gradients(f)
        adam_update(self._params, grads, self._adam)
        return loss

    def reconstruction_loss(self, features) -> float:
        f = self._prepare(np.asarray(features, dtype=float))
        if self._shape != f.shape:
            raise ValueError("encoder not built for this shape")
        return mse(self._forward(f)[-1], f)

    def _prepare(self, features: np.ndarray) -> np.ndarray:
        if features.ndim == 1:
            features = features[:, None]
        return features[self._rows(features.shape[0]), :]

    def encode(self, features) -> StateVector:
        f = self._prepare(np.asarray(features, dtype=float))
        if f.size == 0:
            raise ValueError("empty feature matrix")
        epochs = self.cfg.incremental_epochs
        if self._shape != f.shape:
            self._build(*f.shape)
            epochs = self.cfg.train_epochs
        for _ in range(epochs):
            self._train_step(f)
        h = self._forward(f)[4]
        return StateVector(values=h, method="ae")


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
        adam_update([self._w], [g_w], self._adam)
        return loss

    def reconstruction_loss(self, features) -> float:
        features = np.asarray(features, dtype=float)
        a = self.adjacency(features)
        msg = self._message_matrix(features, a)
        return bce(self._forward(msg)[2], a)

    @staticmethod
    def _message_matrix(features: np.ndarray, a: np.ndarray) -> np.ndarray:
        deg = a.sum(axis=1)
        d_half = 1.0 / np.sqrt(deg)
        norm_a = a * d_half[:, None] * d_half[None, :]
        return norm_a @ features.T  # n x m

    def encode(self, features) -> StateVector:
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
        return StateVector(values=z.mean(axis=0), method="gae")


class StateEncoder:
    """Dispatch on the configured method, including concatenated variants."""

    METHODS = ("ds", "ae", "gae", "ds+ae", "ds+ae+gae")

    def __init__(self, method: str = "ds", cfg: EncoderConfig | None = None):
        if method not in self.METHODS:
            raise ValueError(f"unknown state method {method!r}")
        self.method = method
        self.cfg = cfg or EncoderConfig()
        self._parts = method.split("+")
        # separate warm-started encoders for the whole set vs. group submatrices
        self._ae: dict[str, AutoencoderEncoder] = {}
        self._gae: dict[str, GraphAutoencoderEncoder] = {}

    @property
    def length(self) -> int:
        total = 0
        for part in self._parts:
            if part == "ds":
                total += DS_LENGTH
            elif part == "ae":
                total += self.cfg.ae_col_dim * self.cfg.ae_row_dim
            else:
                total += self.cfg.gae_dim
        return total

    def encode(self, features, scope: str = "set") -> StateVector:
        """Encode a feature matrix; ``scope`` keys warm-started network state."""
        pieces = []
        for part in self._parts:
            if part == "ds":
                pieces.append(rep_ds(features).values)
            elif part == "ae":
                enc = self._ae.setdefault(scope, AutoencoderEncoder(self.cfg))
                pieces.append(enc.encode(features).values)
            else:
                enc = self._gae.setdefault(scope, GraphAutoencoderEncoder(self.cfg))
                vec = enc.encode(features).values
                # singleton-group fallback returns a ds vector; fold it to the
                # gae width so agent input sizes stay fixed
                if len(vec) != self.cfg.gae_dim:
                    vec = _fit_length(vec, self.cfg.gae_dim)
                pieces.append(vec)
        return StateVector(values=np.concatenate(pieces), method=self.method)


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


def rep_ae(features, cfg: EncoderConfig | None = None, encoder=None) -> StateVector:
    """One-shot autoencoder representation (convenience wrapper)."""
    enc = encoder or AutoencoderEncoder(cfg or EncoderConfig())
    return enc.encode(features)


def rep_gae(features, cfg: EncoderConfig | None = None, encoder=None) -> StateVector:
    """One-shot graph-autoencoder representation (convenience wrapper)."""
    enc = encoder or GraphAutoencoderEncoder(cfg or EncoderConfig())
    return enc.encode(features)

"""Fixed-length float-vector encodings of feature sets and groups.

Three part encoders: ``ds`` (descriptive statistics of the columns'
descriptive statistics, 49 values, two array passes), ``ae`` (column-then-row
autoencoder bottleneck with a mirrored linear decoder), ``gae`` (one-layer
graph convolutional autoencoder over the feature correlation graph).  Each has
a ``length`` and an ``encode(features)`` that returns exactly that many
values; ``StateEncoder`` concatenates them for ``ds+ae`` and ``ds+ae+gae`` and
rejects a non-finite result.
ds is pure; ae/gae own training state and are warm-started between calls.
Both networks read the same rows: all of them up to ``row_subsample_cap``,
above it one seeded sample of that many (``_subsample_rows``).  A change of the
sampled row count rebuilds a network from its seed; a change of the column
count keeps the learned weights and Adam state (the ae resizes only ``wr``,
``wr2`` and ``br2``) and fine-tunes them.  Each network's parameters are one
array that Adam updates in one pass: the gae's ``_w``, and the ae's flat
``_theta``, whose eight tensors are views.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from featforge.measures import abs_correlations, descriptive_stats
from featforge.nnet import AdamState, adam_update, bce, mse, views

log = logging.getLogger(__name__)

DS_LENGTH = 49


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


def _as_matrix(features) -> np.ndarray:
    f = np.asarray(features, dtype=float)
    return f[:, None] if f.ndim == 1 else f


def rep_ds(features) -> np.ndarray:
    """Descriptive statistics of descriptive statistics, flattened to 49 values.

    Row i of the 7 x 7 result holds the statistics of stat i over the columns.
    """
    return descriptive_stats(descriptive_stats(_as_matrix(features).T)).T.ravel()


@lru_cache(maxsize=8)
def _subsample_rows(m: int, cfg: EncoderConfig) -> np.ndarray:
    """The rows the ae and the gae read: all m, or a seeded sorted sample of the cap."""
    cap = cfg.row_subsample_cap
    rng = np.random.default_rng(cfg.seed + m)
    rows = np.arange(m) if m <= cap else np.sort(rng.choice(m, cap, replace=False))
    rows.flags.writeable = False  # cached: every caller shares it
    return rows


def _uniform(rng: np.random.Generator, fan_in: int, *shape: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class AutoencoderEncoder:
    """Column-then-row autoencoder; the flattened k x d bottleneck is the state.

    Encoder: ``wc`` (k x rows) maps each column, then ``wr`` (n x d) each row.
    The linear decoder mirrors it: ``wr2`` (d x n), then ``wc2`` (rows x k).  A
    row-count change rebuilds the network and trains it for ``train_epochs``; a
    column-count change resizes only ``wr``, ``wr2`` and ``br2`` (``_resize``),
    Adam state included.  Either way it is then fine-tuned for ``incremental_epochs``.
    The eight tensors ``_params`` are views of the flat ``_theta`` (``_zeros``
    gives the order), and Adam's ``m`` and ``v`` share that layout.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self._shape: tuple[int, int] | None = None
        self._theta = np.zeros(0)
        self._params: list[np.ndarray] = []
        self._adam = AdamState()

    @property
    def length(self) -> int:
        return self.cfg.ae_col_dim * self.cfg.ae_row_dim

    def _zeros(self, m_s: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zero vector for ``m_s`` x ``n`` inputs, and its views wc, bc, wr, br, wr2, br2, wc2, bc2."""
        k, d = self.cfg.ae_col_dim, self.cfg.ae_row_dim
        shapes = [(k, m_s), (k,), (n, d), (d,), (d, n), (n,), (m_s, k), (m_s,)]
        flat = np.zeros(sum(map(math.prod, shapes)))
        return flat, views(flat, shapes)

    def _build(self, m_s: int, n: int) -> None:
        rng = np.random.default_rng(self.cfg.seed)
        self._theta, self._params = self._zeros(m_s, n)
        # wc, wr, wr2 and wc2 from one stream, each bounded by its fan-in
        for i, fan_in in ((0, m_s), (2, n), (4, self.cfg.ae_row_dim), (6, self.cfg.ae_col_dim)):
            self._params[i][...] = _uniform(rng, fan_in, *self._params[i].shape)
        self._adam = AdamState()
        self._shape = (m_s, n)

    def _resize(self, n: int) -> None:
        """Change the width to ``n`` columns, matching columns by position.

        ``wr`` (n x d, rows), ``wr2`` (d x n, columns) and ``br2`` (n) are the
        only width-dependent tensors.  ``_theta``, ``m`` and ``v`` each move into a
        new vector of the new layout, every tensor keeping the block its old and
        new shapes share, so the first min(old, n) columns keep their weights
        and Adam moments; new columns get ``_build``'s init law from a generator
        seeded by the config seed and both widths, and zero moments.
        """
        m_s, old = self._shape
        d, keep = self.cfg.ae_row_dim, min(old, n)
        old_shapes, resized = [p.shape for p in self._params], []
        for flat in (self._theta, self._adam.m, self._adam.v):
            new, new_views = self._zeros(m_s, n)
            for src, dst in zip(views(flat, old_shapes), new_views):
                common = tuple(slice(min(a, b)) for a, b in zip(src.shape, dst.shape))
                dst[common] = src[common]
            resized.append((new, new_views))
        (self._theta, self._params), (self._adam.m, _), (self._adam.v, _) = resized
        rng = np.random.default_rng((self.cfg.seed, old, n))
        self._params[2][keep:] = _uniform(rng, n, n - keep, d)      # wr's new rows
        self._params[4][:, keep:] = _uniform(rng, d, d, n - keep)   # wr2's new columns
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
        adam_update(self._theta, np.concatenate([g.ravel() for g in grads]), self._adam)
        return loss

    def encode(self, features) -> np.ndarray:
        f = _as_matrix(features)
        f = f[_subsample_rows(len(f), self.cfg), :]
        if f.size == 0:
            raise ValueError("empty feature matrix")
        epochs = self.cfg.incremental_epochs
        if self._shape is None or self._shape[0] != f.shape[0]:
            self._build(*f.shape)
            epochs = self.cfg.train_epochs
        elif self._shape[1] != f.shape[1]:
            self._resize(f.shape[1])
        for _ in range(epochs):
            self._train_step(f)
        return self._forward(f)[3].ravel()


class GraphAutoencoderEncoder:
    """One-layer GCN over the |pearson| feature graph; state = mean node embedding.

    It reads the ae's rows (``_subsample_rows``): a node's features are its
    column's sampled values.  Its one weight ``w`` is (sampled rows x gae_dim),
    so only a change of the sampled row count rebuilds it; across column
    counts it is fine-tuned with its Adam state.  A one-column input has no
    graph: its state is the 49-value ds vector of all its rows, folded to
    ``gae_dim`` values (entry i adds into i mod gae_dim, so a wider gae pads
    with zeros).
    """

    adjacency = staticmethod(abs_correlations)

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self._w: np.ndarray | None = None
        self._adam = AdamState()

    @property
    def length(self) -> int:
        return self.cfg.gae_dim

    def _build(self, m: int) -> None:
        self._w = _uniform(np.random.default_rng(self.cfg.seed), m, m, self.cfg.gae_dim)
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
        adam_update(self._w, g_w, self._adam)
        return loss

    @staticmethod
    def _message_matrix(features: np.ndarray, a: np.ndarray) -> np.ndarray:
        deg = a.sum(axis=1)
        d_half = 1.0 / np.sqrt(deg)
        norm_a = a * d_half[:, None] * d_half[None, :]
        return norm_a @ features.T  # n x m

    def encode(self, features) -> np.ndarray:
        features = _as_matrix(features)
        if features.shape[1] < 2:
            # a one-column group is a normal M-Clustering result
            log.debug("gae needs >= 2 features (got %d); falling back to ds", features.shape[1])
            width = self.cfg.gae_dim
            return np.bincount(np.arange(DS_LENGTH) % width, weights=rep_ds(features), minlength=width)
        f = features[_subsample_rows(len(features), self.cfg), :]
        a = self.adjacency(f)
        msg = self._message_matrix(f, a)
        epochs = self.cfg.incremental_epochs
        if self._w is None or len(self._w) != len(f):
            self._build(len(f))
            epochs = self.cfg.train_epochs
        for _ in range(epochs):
            self._train_step(msg, a)
        z = self._forward(msg)[1]
        return z.mean(axis=0)


class DescriptiveStatsEncoder:
    """The ``ds`` part; it is pure and keeps no state."""

    length = DS_LENGTH
    encode = staticmethod(rep_ds)

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg


_PARTS = {"ds": DescriptiveStatsEncoder, "ae": AutoencoderEncoder, "gae": GraphAutoencoderEncoder}


class StateEncoder:
    """The configured parts, concatenated; ``ds+ae+gae`` is ds, then ae, then gae.

    Every part encoder has a ``length`` and an ``encode(features)`` that
    returns exactly ``length`` values.  Each scope keeps its own list of part
    encoders, so the whole set and the group submatrices warm-start apart.
    """

    METHODS = ("ds", "ae", "gae", "ds+ae", "ds+ae+gae")

    def __init__(self, method: str = "ds", cfg: EncoderConfig | None = None):
        if method not in self.METHODS:
            raise ValueError(f"unknown state method {method!r}")
        self.method = method
        self.cfg = cfg or EncoderConfig()
        self._scopes: dict[str, list] = {}

    def _parts(self, scope: str) -> list:
        parts = self._scopes.get(scope)
        if parts is None:
            parts = self._scopes[scope] = [_PARTS[p](self.cfg) for p in self.method.split("+")]
        return parts

    @property
    def length(self) -> int:
        return sum(part.length for part in self._parts("set"))

    def encode(self, features, scope: str = "set") -> np.ndarray:
        """Encode a feature matrix as one finite float vector; ``scope`` keys warm-started network state."""
        state = np.concatenate([part.encode(features) for part in self._parts(scope)])
        if not np.all(np.isfinite(state)):
            raise ValueError("state vector must be finite")
        return state

import logging

import adam_reference
import encoder_reference
import numpy as np
import pytest

from featforge import state_rep
from featforge.nnet import AdamState, views
from featforge.state_rep import (
    DS_LENGTH,
    AutoencoderEncoder,
    EncoderConfig,
    GraphAutoencoderEncoder,
    StateEncoder,
    rep_ds,
)


def random_features(seed=0, m=50, n=5):
    return np.random.default_rng(seed).normal(size=(m, n))


class TestStateVector:
    """A state is a 1-D float array; ``StateEncoder.encode`` rejects a non-finite one."""

    def test_finite_required(self):
        huge = random_features(m=40, n=4) * 1e200  # the ds std overflows, and so does every network
        for method in ("ds", "ds+ae", "ds+ae+gae"):
            for scope, f in (("set", huge), ("group", huge[:, :1])):
                with np.errstate(all="ignore"), pytest.raises(ValueError, match="state vector must be finite"):
                    StateEncoder(method).encode(f, scope=scope)

    def test_flattened(self):
        for method in StateEncoder.METHODS:
            enc = StateEncoder(method)
            v = enc.encode(random_features(m=40, n=4))
            assert v.shape == (enc.length,) and v.dtype == np.float64


class TestRepDs:
    def test_length_49(self):
        assert len(rep_ds(random_features())) == DS_LENGTH

    def test_length_49_any_shape(self):
        for m, n in ((3, 1), (10, 7), (2, 2)):
            assert len(rep_ds(random_features(m=m, n=n))) == DS_LENGTH

    def test_constant_matrix(self):
        v = rep_ds(np.full((4, 3), 2.0))
        assert v.min() == 0.0  # std entries vanish everywhere
        assert 4.0 in v        # the count row survives both passes

    def test_column_permutation_invariance(self):
        f = random_features(1)
        a = rep_ds(f)
        b = rep_ds(f[:, [3, 0, 4, 1, 2]])
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rep_ds(np.empty((0, 3)))

    def test_matches_per_column_reference(self):
        """The two array passes give the former per-column, per-stat result, ``==``."""
        for f in encoder_reference.stat_inputs():
            assert np.array_equal(rep_ds(f), encoder_reference.rep_ds(f))


class TestAutoencoder:
    def test_output_length(self):
        v = AutoencoderEncoder(EncoderConfig()).encode(random_features())
        assert len(v) == 64

    def test_training_improves_reconstruction(self):
        cfg = EncoderConfig(seed=3)
        enc = AutoencoderEncoder(cfg)
        f = random_features(4, m=50, n=5)
        enc._build(50, 5)
        initial = enc._gradients(f)[0]
        enc.encode(f)
        assert enc._gradients(f)[0] <= initial

    def test_deterministic(self):
        f = random_features(5)
        a = AutoencoderEncoder(EncoderConfig(seed=1)).encode(f)
        b = AutoencoderEncoder(EncoderConfig(seed=1)).encode(f)
        assert np.array_equal(a, b)

    def test_resize_on_width_change(self):
        cfg = EncoderConfig()
        enc = AutoencoderEncoder(cfg)
        enc.encode(random_features(0, n=4))
        enc.encode(random_features(0, n=6))
        assert enc._shape == (50, 6)
        assert enc._adam.step == cfg.train_epochs + cfg.incremental_epochs

    def test_row_subsample_cap(self):
        cfg = EncoderConfig(row_subsample_cap=32)
        enc = AutoencoderEncoder(cfg)
        enc.encode(random_features(1, m=200, n=3))
        assert enc._shape == (32, 3)

    def test_gradients_match_finite_differences(self):
        cfg = EncoderConfig(ae_col_dim=3, ae_row_dim=2, seed=7)
        enc = AutoencoderEncoder(cfg)
        f = random_features(8, m=10, n=4)
        enc._build(10, 4)
        _, grads = enc._gradients(f)
        h = 1e-6
        worst = 0.0
        for p, g in zip(enc._params, grads):
            flat, gflat = p.ravel(), np.asarray(g).ravel()
            idx = np.random.default_rng(9).choice(flat.size, size=min(20, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                lp = enc._gradients(f)[0]
                flat[i] = orig - h
                lm = enc._gradients(f)[0]
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(num - gflat[i]) / denom)
        assert worst < 1e-4


class TestGraphAutoencoder:
    def test_output_length(self):
        v = GraphAutoencoderEncoder(EncoderConfig()).encode(random_features())
        assert len(v) == 16

    def test_adjacency_properties(self):
        f = random_features(2, n=4)
        a = GraphAutoencoderEncoder.adjacency(f)
        assert np.allclose(np.diag(a), 1.0)
        assert np.allclose(a, a.T)
        assert np.all((a >= 0) & (a <= 1))

    def test_training_improves_reconstruction(self):
        cfg = EncoderConfig(seed=4)
        enc = GraphAutoencoderEncoder(cfg)
        f = random_features(6, m=40, n=6)
        enc._build(40)
        a = enc.adjacency(f)
        msg = enc._message_matrix(f, a)
        initial = enc._gradients(msg, a)[0]
        enc.encode(f)
        assert enc._gradients(msg, a)[0] <= initial

    def test_duplicate_features_identical_rows(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=30)
        other = rng.normal(size=30)
        f = np.column_stack([col, col, other])
        enc = GraphAutoencoderEncoder(EncoderConfig(seed=0))
        enc.encode(f)
        a = enc.adjacency(f)
        msg = enc._message_matrix(f, a)
        z = enc._forward(msg)[1]
        assert np.max(np.abs(z[0] - z[1])) < 1e-9

    def test_singleton_fallback_logs_at_debug(self, caplog):
        enc = GraphAutoencoderEncoder(EncoderConfig())
        with caplog.at_level(logging.DEBUG, logger="featforge.state_rep"):
            v = enc.encode(random_features(8, n=1))
        assert len(v) == enc.length
        assert [r.levelno for r in caplog.records if "falling back" in r.message] == [logging.DEBUG]

    def test_gradients_match_finite_differences(self):
        cfg = EncoderConfig(gae_dim=4, seed=5)
        enc = GraphAutoencoderEncoder(cfg)
        f = random_features(9, m=20, n=5)
        a = enc.adjacency(f)
        msg = enc._message_matrix(f, a)
        enc._build(20)
        _, g_w = enc._gradients(msg, a)
        h = 1e-6
        flat, gflat = enc._w.ravel(), g_w.ravel()
        worst = 0.0
        idx = np.random.default_rng(10).choice(flat.size, size=30, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = enc._gradients(msg, a)[0]
            flat[i] = orig - h
            lm = enc._gradients(msg, a)[0]
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(num - gflat[i]) / denom)
        assert worst < 1e-4


class TestStateEncoder:
    @pytest.mark.parametrize(
        "method,length",
        [("ds", 49), ("ae", 64), ("gae", 16), ("ds+ae", 113), ("ds+ae+gae", 129)],
    )
    def test_lengths(self, method, length):
        enc = StateEncoder(method)
        assert enc.length == length
        assert len(enc.encode(random_features())) == length

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            StateEncoder("pca")

    def test_gae_fallback_keeps_width(self):
        enc = StateEncoder("ds+ae+gae")
        v = enc.encode(random_features(n=1), scope="group")
        assert len(v) == enc.length

    def test_one_column_group_logs_no_warning(self, caplog):
        """A singleton group is a normal clustering result, not a problem to warn about."""
        enc = StateEncoder("ds+ae+gae")
        with caplog.at_level(logging.DEBUG):
            enc.encode(random_features(n=1), scope="group")
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_scopes_are_independent(self):
        enc = StateEncoder("ae")
        enc.encode(random_features(n=5), scope="set")
        enc.encode(random_features(n=2), scope="group")
        (set_ae,), (group_ae,) = enc._scopes["set"], enc._scopes["group"]
        assert set_ae._shape != group_ae._shape


class TestFitLength:
    """A one-column gae state is the ds vector folded to ``gae_dim``, as ``_fit_length`` folded it."""

    @staticmethod
    def one_column_state(gae_dim):
        col = random_features(8, n=1)
        ds = encoder_reference.rep_ds(col)
        return GraphAutoencoderEncoder(EncoderConfig(gae_dim=gae_dim)).encode(col), ds

    def test_identity(self):
        v, ds = self.one_column_state(DS_LENGTH)
        assert np.array_equal(v, ds)

    def test_fold(self):
        v, ds = self.one_column_state(2)
        assert v.tolist() == [sum(ds[0::2].tolist()), sum(ds[1::2].tolist())]
        assert np.array_equal(v, encoder_reference._fit_length(ds, 2))

    def test_pad(self):
        v, ds = self.one_column_state(64)
        assert np.array_equal(v, encoder_reference._fit_length(ds, 64))
        assert np.array_equal(v[:DS_LENGTH], ds) and not v[DS_LENGTH:].any()

    @pytest.mark.parametrize("gae_dim", [16, 64])
    def test_group_encode_matches_reference(self, gae_dim):
        """A one-column ``ds+ae+gae`` group state equals the former dispatch's, call after call."""
        cfg = EncoderConfig(gae_dim=gae_dim, seed=21)
        enc = StateEncoder("ds+ae+gae", cfg)
        ref_ae, ref_gae = encoder_reference.AutoencoderEncoder(cfg), encoder_reference.GraphAutoencoderEncoder(cfg)
        for seed in range(3):
            col = random_features(seed, m=40, n=1)
            expected = np.concatenate([
                encoder_reference.rep_ds(col),
                ref_ae.encode(col),
                encoder_reference._fit_length(ref_gae.encode(col), gae_dim),
            ])
            assert np.array_equal(enc.encode(col, scope="group"), expected)


class TestExactAdam:
    """Both encoders' one Adam pass over one array leaves what the former per-tensor Adam left."""

    @pytest.mark.parametrize("kind", [AutoencoderEncoder, GraphAutoencoderEncoder])
    def test_encoder_matches_reference(self, kind):
        cfg = EncoderConfig(seed=3)
        enc = kind(cfg)
        enc.encode(random_features(0, m=40, n=5))  # trained: the moments are not zero
        ref = AdamState(step=enc._adam.step)
        for seed in range(1, 9):
            f = random_features(seed, m=40, n=5 if seed <= 4 else 6)
            if kind is AutoencoderEncoder:
                if enc._shape[1] != f.shape[1]:
                    enc._resize(f.shape[1])  # the step count runs on across the width change
                args = (f,)
            else:
                a = enc.adjacency(f)
                args = (enc._message_matrix(f, a), a)
            if seed in (1, 5):  # the per-tensor copy of the (resized) state
                params, moments = _weights(enc), _moments(enc)
                ref.m, ref.v = moments[: len(params)], moments[len(params) :]
            grads = enc._gradients(*args)[1]
            enc._train_step(*args)
            adam_reference.encoder_update(params, grads if kind is AutoencoderEncoder else [grads], ref)
            assert _equal(_weights(enc), params)
            assert _equal(_moments(enc), ref.m + ref.v)
        assert enc._adam.step == ref.step == cfg.train_epochs + 8


def _weights(enc):
    return [p.copy() for p in enc._params] if hasattr(enc, "_params") else [enc._w.copy()]


def _moments(enc):
    """Adam's m tensors, then its v tensors; the current encoders keep each as one array."""
    m, v = enc._adam.m, enc._adam.v
    if isinstance(m, list):  # a reference encoder
        return [a.copy() for a in m + v]
    shapes = [p.shape for p in _weights(enc)]
    return [a.copy() for flat in (m, v) for a in views(flat.ravel(), shapes)]


def _equal(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(a, b) for a, b in zip(xs, ys))


def _copy_state(src, dst, shape):
    """Give the reference encoder ``dst`` the state of ``src``, keyed to inputs of ``shape``."""
    if isinstance(src, AutoencoderEncoder):
        dst._params = _weights(src)
    else:
        dst._w = src._w.copy()
    dst._shape = shape
    dst._adam.step = src._adam.step
    moments = _moments(src)
    dst._adam.m, dst._adam.v = moments[: len(moments) // 2], moments[len(moments) // 2 :]


class TestWarmStart:
    """The encoders against the verbatim pre-warm-start copies in ``encoder_reference``."""

    KINDS = [
        (AutoencoderEncoder, encoder_reference.AutoencoderEncoder),
        (GraphAutoencoderEncoder, encoder_reference.GraphAutoencoderEncoder),
    ]

    @pytest.mark.parametrize("kind,ref_kind", KINDS)
    @pytest.mark.parametrize("m,n,cap", [(40, 5, 256), (30, 2, 256), (300, 7, 64)])
    def test_same_width_matches_reference(self, kind, ref_kind, m, n, cap):
        """Above the cap the gae is the full-row reference on the ae's sampled rows."""
        cfg = EncoderConfig(seed=11, row_subsample_cap=cap)
        enc, ref = kind(cfg), ref_kind(cfg)
        rows = state_rep._subsample_rows(m, cfg) if kind is GraphAutoencoderEncoder else slice(None)
        for seed in range(4):
            f = random_features(seed, m=m, n=n)
            assert np.array_equal(enc.encode(f), ref.encode(f[rows]))
            assert _equal(_weights(enc), _weights(ref))
            assert _equal(_moments(enc), _moments(ref))
            assert enc._adam.step == ref._adam.step == cfg.train_epochs + seed * cfg.incremental_epochs

    @pytest.mark.parametrize("old,new", [(5, 7), (7, 5), (3, 4)])
    def test_autoencoder_width_change_keeps_columns(self, old, new):
        cfg = EncoderConfig(seed=13, ae_col_dim=3, ae_row_dim=2)
        d, m = cfg.ae_row_dim, 30
        enc = AutoencoderEncoder(cfg)
        enc.encode(random_features(0, m=m, n=old))
        params, moments, step = _weights(enc), _moments(enc), enc._adam.step
        count = len(params)
        enc._resize(new)
        after = _moments(enc)
        keep, extra = min(old, new), max(new - old, 0)
        assert enc._shape == (m, new) and enc._adam.step == step
        # wc, bc, br, wc2 and bc2 do not depend on the width
        for i in (0, 1, 3, 6, 7):
            assert np.array_equal(enc._params[i], params[i])
            assert np.array_equal(after[i], moments[i])
            assert np.array_equal(after[count + i], moments[count + i])
        rng = np.random.default_rng((cfg.seed, old, new))
        # param index: (column axis, new columns' init, new shape)
        drawn = {
            2: (0, rng.uniform(-1 / np.sqrt(new), 1 / np.sqrt(new), size=(extra, d)), (new, d)),
            4: (1, rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, extra)), (d, new)),
            5: (0, np.zeros(extra), (new,)),
        }
        for i, (axis, fresh, shape) in drawn.items():
            assert enc._params[i].shape == after[i].shape == after[count + i].shape == shape
            got = np.moveaxis(enc._params[i], axis, 0)
            assert np.array_equal(got[:keep], np.moveaxis(params[i], axis, 0)[:keep])
            assert np.array_equal(got[keep:], np.moveaxis(fresh, axis, 0))
            for j in (i, count + i):
                mom = np.moveaxis(after[j], axis, 0)
                assert np.array_equal(mom[:keep], np.moveaxis(moments[j], axis, 0)[:keep])
                assert not mom[keep:].any()

    @pytest.mark.parametrize("old,new", [(5, 7), (7, 5)])
    def test_autoencoder_resize_views_the_new_vector(self, old, new):
        enc = AutoencoderEncoder(EncoderConfig(seed=13))
        enc.encode(random_features(0, m=30, n=old))
        before = enc._theta
        enc._resize(new)
        assert not np.shares_memory(enc._theta, before)
        assert all(np.shares_memory(p, enc._theta) for p in enc._params)
        assert sum(p.size for p in enc._params) == enc._theta.size == enc._adam.m.size == enc._adam.v.size
        enc._theta[:] = 0.0  # every tensor reads the new vector
        assert not any(p.any() for p in enc._params)

    @pytest.mark.parametrize("kind,ref_kind", KINDS)
    def test_width_change_fine_tunes(self, kind, ref_kind):
        """After a width change the network trains on, as the reference does from the same state."""
        cfg = EncoderConfig(seed=17)
        enc, ref = kind(cfg), ref_kind(cfg)
        enc.encode(random_features(0, m=40, n=5))
        step = enc._adam.step
        f = random_features(1, m=40, n=7)
        if kind is AutoencoderEncoder:
            enc._resize(7)
        _copy_state(enc, ref, f.shape)
        state = enc.encode(f)
        assert enc._adam.step == step + cfg.incremental_epochs
        assert np.array_equal(state, ref.encode(f))
        assert _equal(_weights(enc), _weights(ref))
        assert _equal(_moments(enc), _moments(ref))

    @pytest.mark.parametrize("kind,ref_kind", KINDS)
    def test_row_count_change_rebuilds(self, kind, ref_kind):
        cfg = EncoderConfig(seed=19)
        enc = kind(cfg)
        enc.encode(random_features(0, m=40, n=5))
        enc.encode(random_features(1, m=40, n=6))
        f = random_features(2, m=30, n=6)
        ref = ref_kind(cfg)
        assert np.array_equal(enc.encode(f), ref.encode(f))
        assert enc._adam.step == cfg.train_epochs
        assert _equal(_weights(enc), _weights(ref))
        assert _equal(_moments(enc), _moments(ref))

    def test_subsampled_rows_do_not_rebuild(self):
        cfg = EncoderConfig(row_subsample_cap=32)
        enc = AutoencoderEncoder(cfg)
        enc.encode(random_features(0, m=100, n=3))
        enc.encode(random_features(1, m=120, n=3))
        assert enc._shape == (32, 3)
        assert enc._adam.step == cfg.train_epochs + cfg.incremental_epochs

    def test_gae_subsampled_rows_do_not_rebuild(self):
        cfg = EncoderConfig(row_subsample_cap=32)
        enc = GraphAutoencoderEncoder(cfg)
        enc.encode(random_features(0, m=100, n=3))
        enc.encode(random_features(1, m=120, n=3))
        assert enc._w.shape == (32, cfg.gae_dim)
        assert enc._adam.step == cfg.train_epochs + cfg.incremental_epochs

    def test_gae_weight_and_moments_capped(self):
        cfg = EncoderConfig()
        enc = GraphAutoencoderEncoder(cfg)
        enc.encode(random_features(0, m=2000, n=8))
        # the default cap
        assert enc._w.shape == enc._adam.m.shape == enc._adam.v.shape == (256, cfg.gae_dim)

    @pytest.mark.parametrize("m", [200, 300, 2000])
    def test_ae_and_gae_read_the_same_rows(self, m):
        """Both networks of one StateEncoder see only the sampled rows, and the same ones."""
        cfg = EncoderConfig(seed=5, row_subsample_cap=256)
        f = random_features(m, m=m, n=4)
        rows = state_rep._subsample_rows(m, cfg)
        unread = np.ones(m, dtype=bool)
        unread[rows] = False
        f[unread] = np.nan  # a row either network read would make its state non-finite
        _, ae, gae = StateEncoder("ds+ae+gae", cfg)._parts("set")
        ref_ae, ref_gae = AutoencoderEncoder(cfg), GraphAutoencoderEncoder(cfg)
        assert np.array_equal(ae.encode(f), ref_ae.encode(f[rows]))
        assert np.array_equal(gae.encode(f), ref_gae.encode(f[rows]))

import logging

import adam_reference
import numpy as np
import pytest

from featforge import state_rep
from featforge.nnet import bce, mse
from featforge.state_rep import (
    DS_LENGTH,
    AutoencoderEncoder,
    EncoderConfig,
    GraphAutoencoderEncoder,
    StateEncoder,
    StateVector,
    _fit_length,
    compose_state,
    rep_ae,
    rep_ds,
    rep_gae,
    rep_operation,
)


def random_features(seed=0, m=50, n=5):
    return np.random.default_rng(seed).normal(size=(m, n))


class TestStateVector:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            StateVector(values=np.array([1.0, np.inf]), method="ds")

    def test_flattened(self):
        v = StateVector(values=np.ones((2, 3)), method="ds")
        assert len(v) == 6


class TestRepDs:
    def test_length_49(self):
        assert len(rep_ds(random_features())) == DS_LENGTH

    def test_length_49_any_shape(self):
        for m, n in ((3, 1), (10, 7), (2, 2)):
            assert len(rep_ds(random_features(m=m, n=n))) == DS_LENGTH

    def test_constant_matrix(self):
        v = rep_ds(np.full((4, 3), 2.0)).values
        assert v.min() == 0.0  # std entries vanish everywhere
        assert 4.0 in v        # the count row survives both passes

    def test_column_permutation_invariance(self):
        f = random_features(1)
        a = rep_ds(f).values
        b = rep_ds(f[:, [3, 0, 4, 1, 2]]).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rep_ds(np.empty((0, 3)))


class TestRepOperation:
    def test_one_hot(self):
        v = rep_operation(3, 14)
        assert len(v) == 14
        assert v.values[3] == 1.0
        assert v.values.sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rep_operation(14, 14)


class TestComposeState:
    def test_arities(self):
        p = rep_ds(random_features())
        assert len(compose_state("group1", [p])) == 49
        assert len(compose_state("operation", [p, p])) == 98
        assert len(compose_state("group2", [p, p, p])) == 147

    def test_wrong_arity(self):
        p = rep_ds(random_features())
        with pytest.raises(ValueError):
            compose_state("operation", [p])

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            compose_state("group3", [rep_ds(random_features())])


class TestAutoencoder:
    def test_output_length(self):
        v = rep_ae(random_features())
        assert len(v) == 64

    def test_training_improves_reconstruction(self):
        cfg = EncoderConfig(seed=3)
        enc = AutoencoderEncoder(cfg)
        f = random_features(4, m=50, n=5)
        enc._build(50, 5)
        initial = enc.reconstruction_loss(f)
        enc.encode(f)
        assert enc.reconstruction_loss(f) <= initial

    def test_deterministic(self):
        f = random_features(5)
        a = rep_ae(f, EncoderConfig(seed=1)).values
        b = rep_ae(f, EncoderConfig(seed=1)).values
        assert np.array_equal(a, b)

    def test_rebuild_on_shape_change(self):
        enc = AutoencoderEncoder(EncoderConfig())
        enc.encode(random_features(0, n=4))
        shape_before = enc._shape
        enc.encode(random_features(0, n=6))
        assert enc._shape != shape_before

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
        v = rep_gae(random_features())
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
        initial = enc.reconstruction_loss(f)
        enc.encode(f)
        assert enc.reconstruction_loss(f) <= initial

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

    def test_singleton_fallback_warns(self, caplog):
        enc = GraphAutoencoderEncoder(EncoderConfig())
        with caplog.at_level(logging.WARNING):
            v = enc.encode(random_features(8, n=1))
        assert len(v) == DS_LENGTH
        assert any("falling back" in r.message for r in caplog.records)

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

    def test_scopes_are_independent(self):
        enc = StateEncoder("ae")
        enc.encode(random_features(n=5), scope="set")
        enc.encode(random_features(n=2), scope="group")
        assert enc._ae["set"]._shape != enc._ae["group"]._shape


class TestFitLength:
    def test_identity(self):
        v = np.arange(4.0)
        assert _fit_length(v, 4) is v

    def test_fold(self):
        out = _fit_length(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert np.array_equal(out, [1 + 3 + 5, 2 + 4])

    def test_pad(self):
        out = _fit_length(np.array([1.0]), 3)
        assert np.array_equal(out, [1.0, 0.0, 0.0])


class TestExactAdam:
    """Both encoders train as they did with the former out-of-place Adam."""

    @pytest.mark.parametrize("kind", [AutoencoderEncoder, GraphAutoencoderEncoder])
    def test_encoder_matches_reference(self, kind, monkeypatch):
        cfg = EncoderConfig(seed=3)
        # the width change rebuilds the encoder and restarts its Adam state
        inputs = [random_features(seed, m=40, n=n) for seed, n in ((0, 5), (1, 5), (2, 5), (3, 6), (4, 6))]
        enc = kind(cfg)
        states = [enc.encode(f).values for f in inputs]
        with monkeypatch.context() as patch:
            patch.setattr(state_rep, "adam_update", adam_reference.encoder_update)
            ref = kind(cfg)
            ref_states = [ref.encode(f).values for f in inputs]
        assert ref._adam.step == enc._adam.step == cfg.train_epochs + cfg.incremental_epochs
        assert all(np.array_equal(a, b) for a, b in zip(states, ref_states))
        params = enc._params if kind is AutoencoderEncoder else [enc._w]
        ref_params = ref._params if kind is AutoencoderEncoder else [ref._w]
        assert all(np.array_equal(a, b) for a, b in zip(params, ref_params))
        assert all(np.array_equal(a, b) for a, b in zip(enc._adam.m + enc._adam.v, ref._adam.m + ref._adam.v))

import adam_reference
import numpy as np
import pytest

from featforge.nnet import (
    AdamState,
    adam_step,
    backward,
    bce,
    forward,
    gradient_check,
    init_net,
    mse,
    softmax,
)


class TestInitNet:
    def test_shapes(self):
        net = init_net((4, 8, 3), ("relu", "linear"), seed=0)
        assert [w.shape for w in net.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in net.biases] == [(8,), (3,)]
        assert all(np.all(b == 0) for b in net.biases)

    def test_bound(self):
        net = init_net((9, 5), ("linear",), seed=1)
        assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)

    def test_seeded(self):
        a = init_net((3, 4), ("relu",), seed=7)
        b = init_net((3, 4), ("relu",), seed=7)
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            init_net((4,), (), seed=0)
        with pytest.raises(ValueError):
            init_net((4, 2), ("tanh",), seed=0)
        with pytest.raises(ValueError):
            init_net((4, 0), ("relu",), seed=0)


class TestForward:
    def test_linear_identity_math(self):
        net = init_net((1, 1), ("linear",), seed=0)
        net.weights[0][0, 0] = 3.0
        net.biases[0][0] = 1.0
        out, _ = forward(net, np.array([2.0]))
        assert abs(out[0] - 7.0) < 1e-12

    def test_batch_and_single_agree(self):
        net = init_net((3, 5, 2), ("relu", "linear"), seed=2)
        x = np.random.default_rng(0).normal(size=(4, 3))
        batch_out, _ = forward(net, x)
        for i in range(4):
            single_out, _ = forward(net, x[i])
            assert np.max(np.abs(batch_out[i] - single_out)) < 1e-12

    def test_width_mismatch(self):
        net = init_net((3, 2), ("linear",), seed=0)
        with pytest.raises(ValueError):
            forward(net, np.ones(4))


class TestBackward:
    def test_linear_1x1_analytic(self):
        net = init_net((1, 1), ("linear",), seed=0)
        x = np.array([3.0])
        out, cache = forward(net, x)
        grad_w, grad_b = backward(net, cache, np.array([1.0]))
        assert abs(grad_w[0][0, 0] - 3.0) < 1e-12
        assert abs(grad_b[0][0] - 1.0) < 1e-12

    def test_zero_gradient(self):
        net = init_net((3, 4, 2), ("sigmoid", "linear"), seed=3)
        x = np.ones(3)
        _, cache = forward(net, x)
        grad_w, grad_b = backward(net, cache, np.zeros(2))
        assert all(np.all(g == 0) for g in grad_w)
        assert all(np.all(g == 0) for g in grad_b)

    @pytest.mark.parametrize(
        "sizes,acts",
        [
            ((4, 8, 3), ("relu", "linear")),
            ((5, 6, 6, 1), ("relu", "sigmoid", "linear")),
            ((2, 7, 2), ("sigmoid", "sigmoid")),
        ],
    )
    def test_gradient_check(self, sizes, acts):
        net = init_net(sizes, acts, seed=11)
        x = np.random.default_rng(4).normal(size=sizes[0])
        assert gradient_check(net, x) < 1e-4

    def test_gradient_check_batch(self):
        net = init_net((3, 5, 2), ("relu", "linear"), seed=5)
        x = np.random.default_rng(6).normal(size=(6, 3))
        assert gradient_check(net, x) < 1e-4


class TestAdam:
    def test_first_step_magnitude(self):
        # With fresh moments the bias-corrected first step is exactly
        # lr * g / (|g| + eps), so it is close to lr in magnitude.
        net = init_net((1, 1), ("linear",), seed=0)
        before = net.weights[0][0, 0]
        state = AdamState(learning_rate=0.01)
        adam_step(net, ([np.array([[2.5]])], [np.array([0.0])]), state)
        moved = before - net.weights[0][0, 0]
        assert abs(moved - 0.01) < 1e-6

    def test_shape_mismatch(self):
        net = init_net((2, 2), ("linear",), seed=0)
        with pytest.raises(ValueError):
            adam_step(net, ([np.zeros((3, 3))], [np.zeros(2)]), AdamState())

    def test_training_reduces_mse_10x(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(32, 1))
        y = 2.0 * x
        net = init_net((1, 8, 1), ("relu", "linear"), seed=9)
        state = AdamState(learning_rate=0.01)

        def loss():
            out, _ = forward(net, x)
            return mse(out, y)

        initial = loss()
        for _ in range(200):
            out, cache = forward(net, x)
            grads = backward(net, cache, 2.0 * (out - y) / len(x))
            adam_step(net, grads, state)
        assert loss() <= initial / 10.0


class TestExactAdam:
    """The in-place Adam leaves the parameters and moments of the former one."""

    def test_adam_step_matches_reference(self):
        rng = np.random.default_rng(12)
        net = init_net((4, 6, 3), ("relu", "linear"), seed=2)
        ref = net.copy()
        state, ref_state = AdamState(learning_rate=0.05), AdamState(learning_rate=0.05)
        for _ in range(8):
            # gradients over many magnitudes, so every rounding step matters
            grads = (
                [rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 3) for w in net.weights],
                [rng.normal(size=b.shape) * 10.0 ** rng.integers(-6, 3) for b in net.biases],
            )
            kept = [g.copy() for g in grads[0] + grads[1]]
            adam_step(net, grads, state)
            adam_reference.adam_step(ref, grads, ref_state)
            assert all(np.array_equal(a, b) for a, b in zip(grads[0] + grads[1], kept))
            assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), ref.parameters()))
            assert all(np.array_equal(a, b) for a, b in zip(state.m + state.v, ref_state.m + ref_state.v))
        assert state.step == ref_state.step == 8


class TestLossesAndSoftmax:
    def test_mse(self):
        assert mse([1.0, 3.0], [0.0, 1.0]) == 2.5

    def test_bce_half(self):
        assert abs(bce(np.array([0.5]), np.array([1.0])) - np.log(2)) < 1e-12

    def test_bce_clips(self):
        assert np.isfinite(bce(np.array([0.0, 1.0]), np.array([1.0, 0.0])))

    def test_softmax_uniform(self):
        assert np.allclose(softmax([3.0, 3.0, 3.0, 3.0]), 0.25)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = softmax(rng.normal(size=6) * 10)
            assert np.all(p > 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_softmax_shift_invariance(self):
        logits = np.array([1.0, -2.0, 0.5])
        assert np.max(np.abs(softmax(logits) - softmax(logits + 100.0))) < 1e-12


class TestCopySemantics:
    def test_copy_is_deep(self):
        net = init_net((2, 3), ("relu",), seed=0)
        clone = net.copy()
        clone.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != clone.weights[0][0, 0]

    def test_copy_from(self):
        a = init_net((2, 3), ("relu",), seed=0)
        b = init_net((2, 3), ("relu",), seed=1)
        b.copy_from(a)
        assert np.array_equal(a.weights[0], b.weights[0])
        b.weights[0][0, 0] += 1.0
        assert not np.array_equal(a.weights[0], b.weights[0])

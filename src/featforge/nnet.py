"""Minimal dense-network substrate with exact reverse-mode gradients.

Fixed layer menu (dense + relu/sigmoid/linear), Adam, and the loss functions
the agents and encoders need.  Everything is float64 and deterministic given a
seed; gradient correctness is guarded by finite-difference checks in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "linear")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    return z


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


@dataclass
class DenseNet:
    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    def copy(self) -> "DenseNet":
        return DenseNet(
            layer_sizes=self.layer_sizes,
            activations=self.activations,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            seed=self.seed,
        )

    def copy_from(self, other: "DenseNet") -> None:
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]


def init_net(layer_sizes, activations, seed: int) -> DenseNet:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    activations = tuple(activations)
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError("one activation per layer required")
    for a in activations:
        if a not in ACTIVATIONS:
            raise ValueError(f"unknown activation {a!r}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNet(
        layer_sizes=layer_sizes,
        activations=activations,
        weights=weights,
        biases=biases,
        seed=seed,
    )


def forward(net: DenseNet, x):
    """Run a batch (or single vector) through the net; returns (output, cache)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[1]} != first layer size {net.layer_sizes[0]}"
        )
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    a = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w + b
        a = _act(act, z)
        pre.append(z)
        post.append(a)
    out = a[0] if single else a
    return out, {"pre": pre, "post": post, "single": single}


def backward(net: DenseNet, cache, output_gradient):
    """Exact gradients of all weights/biases given dL/d(output)."""
    g = np.asarray(output_gradient, dtype=float)
    if cache["single"]:
        g = g[None, :] if g.ndim == 1 else g
    if g.shape != cache["pre"][-1].shape:
        raise ValueError("output gradient shape mismatch")
    grad_w: list[np.ndarray] = [np.zeros(0)] * len(net.weights)
    grad_b: list[np.ndarray] = [np.zeros(0)] * len(net.biases)
    delta = g
    for layer in range(len(net.weights) - 1, -1, -1):
        z = cache["pre"][layer]
        a_out = cache["post"][layer + 1]
        a_in = cache["post"][layer]
        delta = delta * _act_grad(net.activations[layer], z, a_out)
        grad_w[layer] = a_in.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ net.weights[layer].T
    return grad_w, grad_b


@dataclass
class AdamState:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_update(params, grads, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update of ``params``, in place.

    The moments are updated in place as well, so at most two parameter-sized
    temporaries are alive at once.
    """
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError("gradient shape mismatch")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1 - b1**state.step
    c2 = 1 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += g * (1 - b1)
        g2 = g * (1 - b2)
        g2 *= g
        v *= b2
        v += g2
        delta = m / c1
        delta *= state.learning_rate
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += state.eps
        delta /= denom
        p -= delta


def adam_step(net: DenseNet, grads, state: AdamState) -> None:
    """One Adam update of every weight and bias of ``net``, in place."""
    grad_w, grad_b = grads
    adam_update(net.weights + net.biases, list(grad_w) + list(grad_b), state)


def mse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    return float(np.mean((pred - truth) ** 2))


def bce(pred, truth) -> float:
    pred = np.clip(np.asarray(pred, dtype=float), 1e-7, 1 - 1e-7)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    return float(np.mean(-(truth * np.log(pred) + (1 - truth) * np.log(1 - pred))))


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def gradient_check(net: DenseNet, x, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Loss is 0.5 * sum(output^2) so dL/d(out) = out.
    """
    out, cache = forward(net, x)
    grad_w, grad_b = backward(net, cache, np.asarray(out))
    analytic = list(grad_w) + list(grad_b)
    params = net.weights + net.biases
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            out_p, _ = forward(net, x)
            lp = 0.5 * float(np.sum(np.asarray(out_p) ** 2))
            flat[idx] = orig - h
            out_m, _ = forward(net, x)
            lm = 0.5 * float(np.sum(np.asarray(out_m) ** 2))
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(numeric - gflat[idx]) / denom)
    return worst

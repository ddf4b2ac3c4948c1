"""Dense relu networks on one flat parameter vector, with exact reverse-mode gradients.

A ``DenseNet`` has relu hidden layers and a linear output.  Its weights and
biases are views into one flat ``params`` vector (every weight matrix, then
every bias), ``backward`` returns the gradient in that layout, and Adam
updates the whole vector in one elementwise pass.  Also the loss functions the
agents and encoders need.  Everything is float64 and deterministic given a
seed; gradient correctness is guarded by finite-difference checks in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one per shape, in order."""
    parts, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        parts.append(flat[start:stop].reshape(shape))
        start = stop
    return parts


@dataclass
class AdamState:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


class DenseNet:
    """Relu hidden layers, a linear output, and the Adam state that trains ``params``.

    ``weights[i]`` (fan_in x fan_out) and ``biases[i]`` are views of
    ``params``, so an in-place change of either shows in the other.
    """

    def __init__(self, layer_sizes: tuple[int, ...], params: np.ndarray):
        self.layer_sizes = layer_sizes
        self.params = params
        self.adam = AdamState()
        self.weights, self.biases = self.split(params)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) views of a vector in the layout of ``params``."""
        fans = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        parts = views(flat, fans + [(fan_out,) for _, fan_out in fans])
        return parts[: len(fans)], parts[len(fans) :]

    def copy(self) -> "DenseNet":
        """The same weights in a new vector, with a fresh Adam state."""
        return DenseNet(self.layer_sizes, self.params.copy())

    def copy_from(self, other: "DenseNet") -> None:
        np.copyto(self.params, other.params)  # in place: the views stay live


def init_net(layer_sizes, seed: int) -> DenseNet:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
    return DenseNet(layer_sizes, np.concatenate([*weights, np.zeros(sum(layer_sizes[1:]))]))


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
    outputs = [x]
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = outputs[-1] @ w + b
        outputs.append(z if layer == last else np.maximum(z, 0.0))
    out = outputs[-1][0] if single else outputs[-1]
    return out, (outputs, single)


def backward(net: DenseNet, cache, output_gradient) -> np.ndarray:
    """Exact gradient of ``params``, in its layout, given dL/d(output)."""
    outputs, single = cache
    delta = np.asarray(output_gradient, dtype=float)
    if single and delta.ndim == 1:
        delta = delta[None, :]
    if delta.shape != outputs[-1].shape:
        raise ValueError("output gradient shape mismatch")
    grad = np.empty_like(net.params)
    grad_w, grad_b = net.split(grad)
    last = len(net.weights) - 1
    for layer in range(last, -1, -1):
        if layer < last:  # relu: a layer's output is > 0 exactly where its input is
            delta = delta * (outputs[layer + 1] > 0)
        grad_w[layer][...] = outputs[layer].T @ delta
        grad_b[layer][...] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ net.weights[layer].T
    return grad


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update of ``params``, in place, in one pass.

    The moments are updated in place as well, so at most two parameter-sized
    temporaries are alive at once.
    """
    if params.shape != grads.shape:
        raise ValueError("gradient shape mismatch")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1 - b1**state.step
    c2 = 1 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += grads * (1 - b1)
    g2 = grads * (1 - b2)
    g2 *= grads
    v *= b2
    v += g2
    delta = m / c1
    delta *= state.learning_rate
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += state.eps
    delta /= denom
    params -= delta


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
    analytic = backward(net, cache, np.asarray(out))

    def loss() -> float:
        return 0.5 * float(np.sum(np.asarray(forward(net, x)[0]) ** 2))

    worst = 0.0
    for idx in range(net.params.size):
        orig = net.params[idx]
        net.params[idx] = orig + h
        lp = loss()
        net.params[idx] = orig - h
        lm = loss()
        net.params[idx] = orig
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(analytic[idx]), 1e-8)
        worst = max(worst, abs(numeric - analytic[idx]) / denom)
    return worst

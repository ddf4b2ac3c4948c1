"""The two Adam updates in use before the nets and encoders shared one in-place Adam.

`adam_step` is the former `nnet.adam_step` and `_adam_update` the former
`state_rep._adam_update`, verbatim. Both walk a list of tensors. The tests
require `nnet.adam_update`, one pass over a flat vector, to leave the same
parameters and moments, compared with `==`, step after step. The agent and
encoder references train with these, so no oracle runs the Adam it checks.
"""

from __future__ import annotations

import numpy as np


def adam_step(net, grads, state) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    grad_w, grad_b = grads
    params = net.weights + net.biases
    gradients = list(grad_w) + list(grad_b)
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for p, g in zip(params, gradients):
        if p.shape != g.shape:
            raise ValueError("gradient shape mismatch")
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, gradients)):
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
        m_hat = state.m[i] / (1 - state.beta1**t)
        v_hat = state.v[i] / (1 - state.beta2**t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def _adam_update(params, grads, mom, vel, step, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    for i, (p, g) in enumerate(zip(params, grads)):
        mom[i] = b1 * mom[i] + (1 - b1) * g
        vel[i] = b2 * vel[i] + (1 - b2) * g * g
        m_hat = mom[i] / (1 - b1**step)
        v_hat = vel[i] / (1 - b2**step)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def encoder_update(params, grads, state) -> None:
    """`_adam_update` with its default settings, behind the signature of `nnet.adam_update`."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.step += 1
    _adam_update(params, grads, state.m, state.v, state.step)

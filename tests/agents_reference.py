"""The Q-learning updates in use before one batched `agents.q_update` replaced them.

`score_candidates`, `q_update_vanilla`, `DuelingNets`, `double_q_target`,
`dueling_q_values` and `q_update_double_dueling` are the former functions of
`featforge.agents`, verbatim but for two reads: the vanilla update takes the
chosen candidate as ``t.candidates[t.action_index]``, which the removed
``Transition.action_rep`` always equalled, and each flat gradient of
`nnet.backward` is read as the former (weights, biases) lists through
``DenseNet.split``. Their Adam is `adam_reference.adam_step`, the former
per-tensor `nnet.adam_step`. They run one forward and one
backward per transition and sum the gradients in Python lists. The tests hand
both paths the same seeded batches and compare the loss and the gradients
each hands to Adam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adam_reference import adam_step

from featforge.agents import AgentConfig, Transition
from featforge.nnet import AdamState, DenseNet, backward, forward


def _cat(state, cand) -> np.ndarray:
    return np.concatenate([state, cand])


def score_candidates(net: DenseNet, state, candidates) -> np.ndarray:
    """Scalar score per candidate from a state+candidate network."""
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    batch = np.stack([_cat(state, c) for c in candidates])
    out, _ = forward(net, batch)
    return out[:, 0]


def dueling_q_values(v_net: DenseNet, a_net: DenseNet, state, candidates) -> np.ndarray:
    """Q(s, a_i) = V(s) + A(s, a_i) - mean_j A(s, a_j)."""
    v_out, _ = forward(v_net, state)
    adv = score_candidates(a_net, state, candidates)
    return float(v_out[0]) + adv - adv.mean()


def q_update_vanilla(
    batch: list[Transition], net: DenseNet, adam: AdamState, cfg: AgentConfig
) -> float:
    """One Adam step on the mean squared TD error; returns the loss."""
    if not batch:
        raise ValueError("batch must be non-empty")
    total_gw = [np.zeros_like(w) for w in net.weights]
    total_gb = [np.zeros_like(b) for b in net.biases]
    loss = 0.0
    for t in batch:
        next_q = score_candidates(net, t.next_state, t.next_candidates)
        target = t.reward + cfg.gamma * float(next_q.max())
        x = _cat(t.state, t.candidates[t.action_index])
        out, cache = forward(net, x)
        q_sa = float(out[0])
        delta = q_sa - target
        loss += delta**2
        gw, gb = net.split(backward(net, cache, np.array([2.0 * delta / len(batch)])))
        for acc, g in zip(total_gw, gw):
            acc += g
        for acc, g in zip(total_gb, gb):
            acc += g
    adam_step(net, (total_gw, total_gb), adam)
    return loss / len(batch)


@dataclass
class DuelingNets:
    v_net: DenseNet
    a_net: DenseNet


def double_q_target(
    t: Transition, online: "DuelingNets", target: "DuelingNets", gamma: float
) -> float:
    """TD target: online nets pick the next action, target nets value it."""
    online_next = dueling_q_values(online.v_net, online.a_net, t.next_state, t.next_candidates)
    a_star = int(np.argmax(online_next))
    target_next = dueling_q_values(target.v_net, target.a_net, t.next_state, t.next_candidates)
    return t.reward + gamma * float(target_next[a_star])


def q_update_double_dueling(
    batch: list[Transition],
    online: DuelingNets,
    target: DuelingNets,
    adam_v: AdamState,
    adam_a: AdamState,
    cfg: AgentConfig,
) -> float:
    """Double-Q update with dueling decomposition.

    Action selection over next candidates uses the ONLINE nets; evaluation of
    the selected action uses the TARGET nets.  Only the online nets receive
    gradients.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if online.v_net.layer_sizes != target.v_net.layer_sizes:
        raise ValueError("online/target architecture mismatch")
    total_v_w = [np.zeros_like(w) for w in online.v_net.weights]
    total_v_b = [np.zeros_like(b) for b in online.v_net.biases]
    total_a_w = [np.zeros_like(w) for w in online.a_net.weights]
    total_a_b = [np.zeros_like(b) for b in online.a_net.biases]
    loss = 0.0
    for t in batch:
        y = double_q_target(t, online, target, cfg.gamma)

        v_out, v_cache = forward(online.v_net, t.state)
        adv_batch = np.stack([_cat(t.state, c) for c in t.candidates])
        adv_out, a_cache = forward(online.a_net, adv_batch)
        adv = adv_out[:, 0]
        q_sa = float(v_out[0]) + adv[t.action_index] - adv.mean()
        delta = q_sa - y
        loss += delta**2
        coeff = 2.0 * delta / len(batch)
        gw, gb = online.v_net.split(backward(online.v_net, v_cache, np.array([coeff])))
        for acc, g in zip(total_v_w, gw):
            acc += g
        for acc, g in zip(total_v_b, gb):
            acc += g
        n_cand = len(t.candidates)
        adv_grad = np.full((n_cand, 1), -coeff / n_cand)
        adv_grad[t.action_index, 0] += coeff
        gw, gb = online.a_net.split(backward(online.a_net, a_cache, adv_grad))
        for acc, g in zip(total_a_w, gw):
            acc += g
        for acc, g in zip(total_a_b, gb):
            acc += g
    adam_step(online.v_net, (total_v_w, total_v_b), adam_v)
    adam_step(online.a_net, (total_a_w, total_a_b), adam_a)
    return loss / len(batch)

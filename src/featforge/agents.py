"""Cascading reinforced agents over variable-size candidate sets.

Action sets (feature groups, operations) change every step, so each candidate
is scored by a network reading state + candidate_rep -> scalar.  Three
interchangeable optimizers: vanilla Q-learning, double Q with a dueling
value/advantage decomposition, and actor-critic with entropy regularization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from featforge.nnet import AdamState, DenseNet, adam_step, backward, forward, init_net, softmax
from featforge.state_rep import StateVector


@dataclass(frozen=True)
class Transition:
    state: StateVector
    action_rep: StateVector
    action_index: int
    candidates: tuple[StateVector, ...]
    reward: float
    next_state: StateVector
    next_candidates: tuple[StateVector, ...]
    action_prob: float = 1.0

    def __post_init__(self):
        if not self.next_candidates:
            raise ValueError("next_candidates must be non-empty")
        if not np.isfinite(self.reward):
            raise ValueError("reward must be finite")


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.9
    epsilon_start: float = 0.9
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.95
    batch_size: int = 8
    target_sync_every: int = 10
    entropy_beta: float = 0.01
    kind: str = "dqn"  # dqn | ddqn_dueling | actor_critic
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not (0.0 <= self.epsilon_start <= 1.0 and 0.0 <= self.epsilon_min <= 1.0):
            raise ValueError("epsilon_start and epsilon_min must be in [0, 1]")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.batch_size < 1 or self.target_sync_every < 1:
            raise ValueError("batch_size and target_sync_every must be positive")
        if not 0.0 <= self.entropy_beta < np.inf:
            raise ValueError("entropy_beta must be finite and >= 0")
        if self.kind not in ("dqn", "ddqn_dueling", "actor_critic"):
            raise ValueError(f"unknown agent kind {self.kind!r}")


def epsilon_at(step: int, cfg: AgentConfig = AgentConfig()) -> float:
    """Exploration rate after ``step`` global steps; monotone non-increasing."""
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay**step)


def compute_rewards(u_before: float, u_after: float, v_a: float) -> tuple[float, float, float]:
    """Rewards of the three cascading agents from utility change and task score."""
    for v in (u_before, u_after, v_a):
        if not np.isfinite(v):
            raise ValueError("reward inputs must be finite")
    r1 = u_before
    r_op = u_after - u_before
    r2 = u_after - u_before + v_a
    return r1, r_op, r2


class ReplayMemory:
    """Ring buffer with uniform without-replacement batch sampling."""

    def __init__(self, capacity: int, batch_size: int, rng: np.random.Generator):
        self.capacity = capacity
        self.batch_size = batch_size
        self._rng = rng
        self._buf: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, t: Transition) -> None:
        if len(self._buf) < self.capacity:
            self._buf.append(t)
        else:
            self._buf[self._next] = t
            self._next = (self._next + 1) % self.capacity

    def sample(self) -> list[Transition] | None:
        if len(self._buf) < self.batch_size:
            return None
        idx = self._rng.choice(len(self._buf), size=self.batch_size, replace=False)
        return [self._buf[i] for i in idx]


def _cat(state: StateVector, cand: StateVector) -> np.ndarray:
    return np.concatenate([state.values, cand.values])


def score_candidates(net: DenseNet, state: StateVector, candidates) -> np.ndarray:
    """Scalar score per candidate from a state+candidate network."""
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    batch = np.stack([_cat(state, c) for c in candidates])
    out, _ = forward(net, batch)
    return out[:, 0]


def select_epsilon_greedy(scores, epsilon: float, rng: np.random.Generator) -> int:
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(len(scores)))
    return int(np.argmax(scores))  # argmax ties -> lowest index


def dueling_q_values(
    v_net: DenseNet, a_net: DenseNet, state: StateVector, candidates
) -> np.ndarray:
    """Q(s, a_i) = V(s) + A(s, a_i) - mean_j A(s, a_j)."""
    v_out, _ = forward(v_net, state.values)
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
        x = _cat(t.state, t.action_rep)
        out, cache = forward(net, x)
        q_sa = float(out[0])
        delta = q_sa - target
        loss += delta**2
        gw, gb = backward(net, cache, np.array([2.0 * delta / len(batch)]))
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

        v_out, v_cache = forward(online.v_net, t.state.values)
        adv_batch = np.stack([_cat(t.state, c) for c in t.candidates])
        adv_out, a_cache = forward(online.a_net, adv_batch)
        adv = adv_out[:, 0]
        q_sa = float(v_out[0]) + adv[t.action_index] - adv.mean()
        delta = q_sa - y
        loss += delta**2
        coeff = 2.0 * delta / len(batch)
        gw, gb = backward(online.v_net, v_cache, np.array([coeff]))
        for acc, g in zip(total_v_w, gw):
            acc += g
        for acc, g in zip(total_v_b, gb):
            acc += g
        n_cand = len(t.candidates)
        adv_grad = np.full((n_cand, 1), -coeff / n_cand)
        adv_grad[t.action_index, 0] += coeff
        gw, gb = backward(online.a_net, a_cache, adv_grad)
        for acc, g in zip(total_a_w, gw):
            acc += g
        for acc, g in zip(total_a_b, gb):
            acc += g
    adam_step(online.v_net, (total_v_w, total_v_b), adam_v)
    adam_step(online.a_net, (total_a_w, total_a_b), adam_a)
    return loss / len(batch)


def ac_select(
    actor: DenseNet, state: StateVector, candidates, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Sample an action from the softmax over candidate logits."""
    logits = score_candidates(actor, state, candidates)
    probs = softmax(logits)
    idx = int(rng.choice(len(probs), p=probs))
    return idx, probs


def ac_update(
    t: Transition,
    actor: DenseNet,
    critic: DenseNet,
    adam_actor: AdamState,
    adam_critic: AdamState,
    cfg: AgentConfig,
) -> tuple[float, float]:
    """One actor-critic step; returns (critic loss, actor objective).

    delta = r + gamma * V(s') - V(s); the critic minimizes delta^2 and the
    actor ascends delta * ln pi(a|s) + beta * H(pi), with delta held constant
    for the actor.
    """
    v_s, v_cache = forward(critic, t.state.values)
    v_next, _ = forward(critic, t.next_state.values)
    delta = t.reward + cfg.gamma * float(v_next[0]) - float(v_s[0])

    # critic: d(delta^2)/dV(s) = -2 delta
    gw, gb = backward(critic, v_cache, np.array([-2.0 * delta]))
    adam_step(critic, (gw, gb), adam_critic)
    critic_loss = delta**2

    batch = np.stack([_cat(t.state, c) for c in t.candidates])
    logits_out, a_cache = forward(actor, batch)
    logits = logits_out[:, 0]
    probs = softmax(logits)
    a = t.action_index
    entropy = float(-np.sum(probs * np.log(np.clip(probs, 1e-12, None))))
    objective = delta * float(np.log(max(probs[a], 1e-12))) + cfg.entropy_beta * entropy

    # gradient of the objective wrt logits; negate for a descent step
    one_hot = np.zeros(len(probs))
    one_hot[a] = 1.0
    d_logpi = one_hot - probs
    d_entropy = -probs * (np.log(np.clip(probs, 1e-12, None)) + entropy)
    grad_logits = -(delta * d_logpi + cfg.entropy_beta * d_entropy)
    gw, gb = backward(actor, a_cache, grad_logits[:, None])
    adam_step(actor, (gw, gb), adam_actor)
    return critic_loss, objective


HIDDEN = (64, 64)      # widths of each network's two hidden layers
LEARNING_RATE = 0.01   # Adam step size of every network
MEMORY_CAPACITY = 32   # transitions each agent's replay memory keeps


class CascadeAgent:
    """One of the three cascading agents; owns its networks and replay memory."""

    def __init__(self, state_width: int, candidate_width: int, cfg: AgentConfig):
        self.cfg = cfg
        self.state_width = state_width
        self.candidate_width = candidate_width
        self._rng = np.random.default_rng(cfg.seed)
        in_q = state_width + candidate_width
        h1, h2 = HIDDEN
        acts = ("relu", "relu", "linear")
        if cfg.kind == "dqn":
            self.q_net = init_net((in_q, h1, h2, 1), acts, cfg.seed)
            self.adam = AdamState(learning_rate=LEARNING_RATE)
        elif cfg.kind == "ddqn_dueling":
            self.online = DuelingNets(
                v_net=init_net((state_width, h1, h2, 1), acts, cfg.seed),
                a_net=init_net((in_q, h1, h2, 1), acts, cfg.seed + 1),
            )
            self.target = DuelingNets(
                v_net=self.online.v_net.copy(), a_net=self.online.a_net.copy()
            )
            self.adam_v = AdamState(learning_rate=LEARNING_RATE)
            self.adam_a = AdamState(learning_rate=LEARNING_RATE)
            self._updates = 0
        else:
            self.actor = init_net((in_q, h1, h2, 1), acts, cfg.seed)
            self.critic = init_net((state_width, h1, h2, 1), acts, cfg.seed + 1)
            self.adam_actor = AdamState(learning_rate=LEARNING_RATE)
            self.adam_critic = AdamState(learning_rate=LEARNING_RATE)
        self.memory = ReplayMemory(
            MEMORY_CAPACITY, cfg.batch_size, np.random.default_rng(cfg.seed + 7)
        )

    def select(self, state: StateVector, candidates, epsilon: float) -> tuple[int, float]:
        """Pick a candidate index; returns (index, probability of that action)."""
        if self.cfg.kind == "actor_critic":
            idx, probs = ac_select(self.actor, state, candidates, self._rng)
            return idx, float(probs[idx])
        if self.cfg.kind == "dqn":
            scores = score_candidates(self.q_net, state, candidates)
        else:
            scores = dueling_q_values(self.online.v_net, self.online.a_net, state, candidates)
        idx = select_epsilon_greedy(scores, epsilon, self._rng)
        return idx, 1.0

    def observe(self, t: Transition) -> float | None:
        """Store a completed transition and run the optimizer; returns the loss."""
        self.memory.push(t)
        if self.cfg.kind == "actor_critic":
            critic_loss, _ = ac_update(
                t, self.actor, self.critic, self.adam_actor, self.adam_critic, self.cfg
            )
            return critic_loss
        batch = self.memory.sample()
        if batch is None:
            return None
        if self.cfg.kind == "dqn":
            return q_update_vanilla(batch, self.q_net, self.adam, self.cfg)
        loss = q_update_double_dueling(
            batch, self.online, self.target, self.adam_v, self.adam_a, self.cfg
        )
        self._updates += 1
        if self._updates % self.cfg.target_sync_every == 0:
            self.target.v_net.copy_from(self.online.v_net)
            self.target.a_net.copy_from(self.online.a_net)
        return loss

"""Cascading reinforced agents over variable-size candidate sets.

Action sets (feature groups, operations) change every step, so each candidate
is scored by a network reading state + candidate_rep -> scalar.  A state is a
1-D float array and a candidate set a 2-D array with one row per candidate.  Two
optimizers: one batched TD update whose two switches, a dueling value/advantage
head and a double-Q target, ``dqn`` turns off and ``ddqn_dueling`` on; and
actor-critic with entropy regularization.  Every network carries its own Adam
state (``DenseNet.adam``), so neither update takes an optimizer argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from featforge.nnet import DenseNet, adam_update, backward, forward, init_net, softmax


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action_index: int
    candidates: np.ndarray
    reward: float
    next_state: np.ndarray
    next_candidates: np.ndarray

    def __post_init__(self):
        if len(self.next_candidates) == 0:
            raise ValueError("next_candidates must be non-empty")
        if not 0 <= self.action_index < len(self.candidates):
            raise ValueError("action_index must index candidates")
        if not np.isfinite(self.reward):
            raise ValueError("reward must be finite")


HIDDEN = (64, 64)      # widths of each network's two hidden layers
MEMORY_CAPACITY = 32   # transitions each Q agent's replay memory keeps


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
        if self.kind != "actor_critic" and self.batch_size > MEMORY_CAPACITY:
            # only the two Q kinds keep a replay memory to sample batches from
            raise ValueError(f"batch_size must be <= the replay memory's {MEMORY_CAPACITY}")
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


def _pairs(states, cand_sets) -> np.ndarray:
    """One row state + candidate per candidate of each state, states in order."""
    width, start = len(states[0]), 0
    rows = np.empty((sum(map(len, cand_sets)), width + len(cand_sets[0][0])))
    for s, cands in zip(states, cand_sets):
        block = rows[start : start + len(cands)]
        block[:, :width], block[:, width:] = s, cands
        start += len(cands)
    return rows


def select_epsilon_greedy(scores, epsilon: float, rng: np.random.Generator) -> int:
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(len(scores)))
    return int(np.argmax(scores))  # argmax ties -> lowest index


@dataclass
class QNets:
    """Q-networks: advantage net A(s, c) and, for a dueling head, value net V(s)."""

    a_net: DenseNet
    v_net: DenseNet | None = None

    @property
    def nets(self) -> list[DenseNet]:
        return [self.a_net] if self.v_net is None else [self.a_net, self.v_net]


def _q_rows(nets: QNets, states, cand_sets):
    """Q of every candidate of every state, flat and in order; returns (q, starts, caches).

    Q = A(s, c), or V(s) + A(s, c) - mean_j A(s, c_j) with a dueling head.
    ``starts`` are the flat index of each state's first candidate.
    """
    counts = [len(c) for c in cand_sets]
    starts = np.cumsum(counts) - counts
    adv_out, a_cache = forward(nets.a_net, _pairs(states, cand_sets))
    adv = adv_out[:, 0]
    if nets.v_net is None:
        return adv, starts, (a_cache, None)
    v_out, v_cache = forward(nets.v_net, np.stack(states))
    mean = [seg.mean() for seg in np.split(adv, starts[1:])]
    q = np.repeat(v_out[:, 0], counts) + adv - np.repeat(mean, counts)
    return q, starts, (a_cache, v_cache)


def q_values(nets: QNets, state: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Q(s, c) of each candidate row of one state; without V, each candidate's score."""
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    return _q_rows(nets, [state], [candidates])[0]


def q_update(batch: list[Transition], online: QNets, target: QNets, cfg: AgentConfig) -> float:
    """One Adam step of each net of ``online`` on the mean squared TD error; returns the loss.

    The online nets pick each next candidate and the target nets value it
    (double Q); with ``target is online`` that value is the max, vanilla Q.
    Without a dueling head only the taken candidate's row gets a gradient, so
    only that row of each current state is run.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if [net.layer_sizes for net in online.nets] != [net.layer_sizes for net in target.nets]:
        raise ValueError("online/target architecture mismatch")
    next_states = [t.next_state for t in batch]
    next_cands = [t.next_candidates for t in batch]
    q_next, starts = _q_rows(online, next_states, next_cands)[:2]
    picked = starts + [int(np.argmax(seg)) for seg in np.split(q_next, starts[1:])]
    if target is not online:
        q_next = _q_rows(target, next_states, next_cands)[0]
    y = np.array([t.reward for t in batch]) + cfg.gamma * q_next[picked]

    dueling = online.v_net is not None
    cand_sets = [t.candidates if dueling else t.candidates[t.action_index : t.action_index + 1] for t in batch]
    q, starts, (a_cache, v_cache) = _q_rows(online, [t.state for t in batch], cand_sets)
    taken = starts + [t.action_index if dueling else 0 for t in batch]
    delta = q[taken] - y
    coeff = 2.0 * delta / len(batch)
    grad_q = np.zeros(len(q))
    if dueling:  # every A(s, c_j) enters its Q(s, a) through the mean
        counts = np.array([len(t.candidates) for t in batch])
        grad_q -= np.repeat(coeff / counts, counts)
    grad_q[taken] += coeff
    grads = [backward(online.a_net, a_cache, grad_q[:, None])]
    if dueling:
        grads.append(backward(online.v_net, v_cache, coeff[:, None]))
    del a_cache, v_cache  # free the activations before Adam's temporaries
    for net, grad in zip(online.nets, grads):
        adam_update(net.params, grad, net.adam)
    return float(np.mean(delta**2))


def ac_select(
    actor: DenseNet, state: np.ndarray, candidates: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Sample an action from the softmax over candidate logits."""
    probs = softmax(forward(actor, _pairs([state], [candidates]))[0][:, 0])
    idx = int(rng.choice(len(probs), p=probs))
    return idx, probs


def ac_update(t: Transition, actor: DenseNet, critic: DenseNet, cfg: AgentConfig) -> tuple[float, float]:
    """One actor-critic step; returns (critic loss, actor objective).

    delta = r + gamma * V(s') - V(s); the critic minimizes delta^2 and the
    actor ascends delta * ln pi(a|s) + beta * H(pi), with delta held constant
    for the actor.
    """
    v_s, v_cache = forward(critic, t.state)
    v_next, _ = forward(critic, t.next_state)
    delta = t.reward + cfg.gamma * float(v_next[0]) - float(v_s[0])

    # critic: d(delta^2)/dV(s) = -2 delta
    adam_update(critic.params, backward(critic, v_cache, np.array([-2.0 * delta])), critic.adam)
    critic_loss = delta**2

    logits_out, a_cache = forward(actor, _pairs([t.state], [t.candidates]))
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
    adam_update(actor.params, backward(actor, a_cache, grad_logits[:, None]), actor.adam)
    return critic_loss, objective


class CascadeAgent:
    """One of the three cascading agents; owns its networks and, for the Q kinds, a replay memory."""

    def __init__(self, state_width: int, candidate_width: int, cfg: AgentConfig):
        self.cfg = cfg
        self._rng = np.random.default_rng(cfg.seed)
        in_q = state_width + candidate_width
        if cfg.kind == "actor_critic":
            self.actor = init_net((in_q, *HIDDEN, 1), cfg.seed)
            self.critic = init_net((state_width, *HIDDEN, 1), cfg.seed + 1)
        else:  # ddqn_dueling turns on both switches of q_update
            ddqn = cfg.kind == "ddqn_dueling"
            self.online = QNets(
                a_net=init_net((in_q, *HIDDEN, 1), cfg.seed + int(ddqn)),
                v_net=init_net((state_width, *HIDDEN, 1), cfg.seed) if ddqn else None,
            )
            self.target = QNets(*(net.copy() for net in self.online.nets)) if ddqn else self.online
            self.memory = ReplayMemory(
                MEMORY_CAPACITY, cfg.batch_size, np.random.default_rng(cfg.seed + 7)
            )

    def select(self, state: np.ndarray, candidates: np.ndarray, epsilon: float) -> tuple[int, float]:
        """Pick a candidate index; returns (index, probability of that action)."""
        if self.cfg.kind == "actor_critic":
            idx, probs = ac_select(self.actor, state, candidates, self._rng)
            return idx, float(probs[idx])
        idx = select_epsilon_greedy(q_values(self.online, state, candidates), epsilon, self._rng)
        return idx, 1.0

    def observe(self, t: Transition) -> float | None:
        """Learn from a completed transition; returns the loss, or None before a Q
        agent's replay memory holds a batch."""
        if self.cfg.kind == "actor_critic":
            return ac_update(t, self.actor, self.critic, self.cfg)[0]
        self.memory.push(t)
        batch = self.memory.sample()
        if batch is None:
            return None
        loss = q_update(batch, self.online, self.target, self.cfg)
        step = self.online.a_net.adam.step
        if self.target is not self.online and step % self.cfg.target_sync_every == 0:
            for mine, theirs in zip(self.target.nets, self.online.nets):
                mine.copy_from(theirs)
        return loss

import tracemalloc

import agents_reference
import numpy as np
import pytest

from featforge import agents
from featforge.agents import (
    HIDDEN,
    MEMORY_CAPACITY,
    AgentConfig,
    CascadeAgent,
    QNets,
    ReplayMemory,
    Transition,
    ac_select,
    ac_update,
    compute_rewards,
    epsilon_at,
    q_update,
    q_values,
    select_epsilon_greedy,
)
from featforge.nnet import AdamState, adam_update, forward, init_net


def sv(*values):
    return np.array(values, dtype=float)


def StateVector(values):
    """A state or candidate row: a 1-D float array (the peak-memory test builds its rows with it)."""
    return np.asarray(values, dtype=float)


def make_transition(reward=1.0, action_index=0):
    cands = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Transition(
        state=sv(0.5),
        action_index=action_index,
        candidates=cands,
        reward=reward,
        next_state=sv(-0.5),
        next_candidates=cands,
    )


def linear_net(weights, bias=0.0):
    """Single linear layer with explicit weights (input width = len(weights))."""
    net = init_net((len(weights), 1), seed=0)
    net.weights[0][:, 0] = np.asarray(weights, dtype=float)
    net.biases[0][0] = bias
    return net


class TestAgentConfig:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            AgentConfig(gamma=0.0)
        with pytest.raises(ValueError):
            AgentConfig(gamma=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AgentConfig(kind="sarsa")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon_start", 1.5), ("epsilon_start", -0.1), ("epsilon_min", 2.0), ("epsilon_min", float("nan")),
            ("epsilon_decay", 0.0), ("epsilon_decay", 2.0), ("target_sync_every", 0),
            ("batch_size", MEMORY_CAPACITY + 1),
            ("entropy_beta", float("nan")), ("entropy_beta", float("inf")), ("entropy_beta", -0.01),
        ],
    )
    def test_schedule_bounds(self, field, value):
        with pytest.raises(ValueError):
            AgentConfig(**{field: value})

    def test_schedule_edges_allowed(self):
        AgentConfig(
            epsilon_start=1.0, epsilon_min=0.0, epsilon_decay=1.0, target_sync_every=1,
            batch_size=MEMORY_CAPACITY,
        )

    def test_batch_cap_only_for_replay_kinds(self):
        """Actor-critic agents keep no replay memory, so its capacity does not cap them."""
        AgentConfig(kind="actor_critic", batch_size=40)
        for kind in ("dqn", "ddqn_dueling"):
            with pytest.raises(ValueError, match="replay memory"):
                AgentConfig(kind=kind, batch_size=40)


class TestEpsilonSchedule:
    def test_formula(self):
        cfg = AgentConfig()
        for t in (0, 1, 5, 20):
            assert abs(epsilon_at(t, cfg) - max(0.05, 0.9 * 0.95**t)) < 1e-12

    def test_monotone_and_floored(self):
        cfg = AgentConfig()
        values = [epsilon_at(t, cfg) for t in range(200)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.05


class TestComputeRewards:
    def test_substitution(self):
        assert compute_rewards(0.2, 0.5, 0.7) == (0.2, pytest.approx(0.3), pytest.approx(1.0))

    def test_no_change(self):
        r1, r_op, r2 = compute_rewards(0.4, 0.4, 0.6)
        assert (r1, r_op, r2) == (0.4, 0.0, 0.6)

    def test_negative_allowed(self):
        _, r_op, _ = compute_rewards(0.5, 0.4, 0.0)
        assert abs(r_op + 0.1) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compute_rewards(float("nan"), 0.0, 0.0)


class TestReplayMemory:
    def test_ring_eviction(self):
        mem = ReplayMemory(32, 8, np.random.default_rng(0))
        transitions = [make_transition(reward=float(i)) for i in range(33)]
        for t in transitions:
            mem.push(t)
        assert len(mem) == 32
        stored_rewards = {t.reward for t in mem._buf}
        assert 0.0 not in stored_rewards
        assert 32.0 in stored_rewards

    def test_warmup_returns_none(self):
        mem = ReplayMemory(32, 8, np.random.default_rng(0))
        for i in range(5):
            mem.push(make_transition(reward=float(i)))
        assert mem.sample() is None

    def test_seeded_sampling(self):
        a = ReplayMemory(32, 4, np.random.default_rng(3))
        b = ReplayMemory(32, 4, np.random.default_rng(3))
        for i in range(10):
            t = make_transition(reward=float(i))
            a.push(t)
            b.push(t)
        assert [t.reward for t in a.sample()] == [t.reward for t in b.sample()]

    def test_sample_without_replacement(self):
        mem = ReplayMemory(32, 8, np.random.default_rng(1))
        for i in range(8):
            mem.push(make_transition(reward=float(i)))
        batch = mem.sample()
        assert sorted(t.reward for t in batch) == [float(i) for i in range(8)]


class TestTransition:
    def test_empty_next_candidates(self):
        with pytest.raises(ValueError):
            Transition(
                state=sv(0.0),
                action_index=0,
                candidates=np.array([[1.0]]),
                reward=0.0,
                next_state=sv(0.0),
                next_candidates=np.empty((0, 1)),
            )

    def test_nonfinite_reward(self):
        with pytest.raises(ValueError):
            make_transition(reward=float("inf"))

    @pytest.mark.parametrize("action_index", [-1, 2])
    def test_action_index_out_of_range(self, action_index):
        with pytest.raises(ValueError):
            make_transition(action_index=action_index)


class TestScoreCandidates:
    def test_single(self):
        net = init_net((3, 4, 1), seed=0)
        scores = q_values(QNets(net), sv(0.1), np.array([[1.0, 0.0]]))
        assert scores.shape == (1,)

    def test_identical_candidates_identical_scores(self):
        net = init_net((3, 4, 1), seed=1)
        scores = q_values(QNets(net), sv(0.1), np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert scores[0] == scores[1]

    def test_zero_weights_give_bias(self):
        net = linear_net([0.0, 0.0, 0.0], bias=0.25)
        scores = q_values(QNets(net), sv(0.3), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(scores, 0.25)

    def test_empty_rejected(self):
        net = init_net((3, 1), seed=0)
        with pytest.raises(ValueError):
            q_values(QNets(net), sv(0.1), np.empty((0, 2)))


class TestSelectEpsilonGreedy:
    def test_greedy(self):
        rng = np.random.default_rng(0)
        assert select_epsilon_greedy([0.1, 0.9, 0.5], 0.0, rng) == 1

    def test_tie_lowest_index(self):
        rng = np.random.default_rng(0)
        assert select_epsilon_greedy([1.0, 1.0, 0.0], 0.0, rng) == 0

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(42)
        n, draws = 4, 10000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[select_epsilon_greedy(np.zeros(n), 1.0, rng)] += 1
        p = 1.0 / n
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            select_epsilon_greedy([1.0], 1.5, np.random.default_rng(0))


class TestQUpdateVanilla:
    def test_loss_matches_hand_computation(self):
        # linear net: Q(s, c) = 0.1*s + 0.2*c1 + 0.3*c2 + 0.05
        net = linear_net([0.1, 0.2, 0.3], bias=0.05)
        cfg = AgentConfig(gamma=0.9)
        t = make_transition(reward=1.0, action_index=0)
        q_sa = 0.1 * 0.5 + 0.2 * 1.0 + 0.05
        next_q = [0.1 * -0.5 + 0.2 + 0.05, 0.1 * -0.5 + 0.3 + 0.05]
        target = 1.0 + 0.9 * max(next_q)
        expected_loss = (q_sa - target) ** 2
        nets = QNets(net)
        loss = q_update([t], nets, nets, cfg)
        assert abs(loss - expected_loss) < 1e-12

    def test_tiny_gamma_target_is_reward(self):
        net = linear_net([0.1, 0.2, 0.3], bias=0.05)
        cfg = AgentConfig(gamma=1e-12)
        t = make_transition(reward=2.0, action_index=1)
        q_sa = 0.1 * 0.5 + 0.3 * 1.0 + 0.05
        nets = QNets(net)
        loss = q_update([t], nets, nets, cfg)
        assert abs(loss - (q_sa - 2.0) ** 2) < 1e-9

    def test_repeated_updates_converge_10x(self):
        net = init_net((3, 8, 1), seed=4)
        nets = QNets(net)
        cfg = AgentConfig(gamma=0.9)
        t = make_transition(reward=1.0)

        def residual():
            next_q = q_values(nets, t.next_state, t.next_candidates)
            target = t.reward + cfg.gamma * float(next_q.max())
            out, _ = forward(net, np.concatenate([t.state, t.candidates[t.action_index]]))
            return abs(float(out[0]) - target)

        initial = residual()
        for _ in range(100):
            q_update([t], nets, nets, cfg)
        assert residual() <= initial / 10.0

    def test_empty_batch(self):
        nets = QNets(init_net((3, 1), seed=0))
        with pytest.raises(ValueError):
            q_update([], nets, nets, AgentConfig())


class TestDuelingDoubleQ:
    def handcrafted_nets(self):
        # V nets read the 1-wide state; A nets read state + 2-wide candidate.
        online = QNets(
            v_net=linear_net([0.0], bias=0.0),
            a_net=linear_net([0.0, 0.0, 1.0], bias=0.0),  # adv = [0, 1]
        )
        target = QNets(
            v_net=linear_net([0.0], bias=0.55),
            a_net=linear_net([0.0, 0.35, -0.35], bias=0.0),  # adv = [0.35, -0.35]
        )
        return online, target

    def test_advantage_shift_invariance(self):
        online, _ = self.handcrafted_nets()
        state = sv(0.0)
        cands = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = q_values(online, state, cands)
        online.a_net.biases[0][0] += 5.0
        q_shift = q_values(online, state, cands)
        assert np.max(np.abs(q - q_shift)) < 1e-12

    def test_double_q_decoupling(self):
        online, target = self.handcrafted_nets()
        t = make_transition(reward=1.0, action_index=0)
        # online Q over next candidates = [-0.5, 0.5] -> picks candidate 1;
        # target Q = [0.9, 0.2] -> evaluates the ONLINE choice at 0.2
        q_online = q_values(online, t.next_state, t.next_candidates)
        assert int(np.argmax(q_online)) == 1
        q_target = q_values(target, t.next_state, t.next_candidates)
        assert abs(q_target[0] - 0.9) < 1e-12 and abs(q_target[1] - 0.2) < 1e-12
        # online Q over the current candidates is also [-0.5, 0.5]; action 0 was taken
        q_sa = -0.5
        loss = q_update([t], online, target, AgentConfig(gamma=0.9))
        assert abs(loss - (q_sa - (1.0 + 0.9 * 0.2)) ** 2) < 1e-12
        assert abs(loss - (q_sa - (1.0 + 0.9 * 0.9)) ** 2) > 0.1  # not the target net's own max

    def test_update_runs_and_reduces_residual(self):
        cfg = AgentConfig(kind="ddqn_dueling", gamma=0.9)
        online = QNets(
            v_net=init_net((1, 8, 1), seed=0),
            a_net=init_net((3, 8, 1), seed=1),
        )
        target = QNets(v_net=online.v_net.copy(), a_net=online.a_net.copy())
        t = make_transition(reward=1.0)
        first = q_update([t], online, target, cfg)
        for _ in range(60):
            last = q_update([t], online, target, cfg)
        assert last < first

    def test_architecture_mismatch(self):
        cfg = AgentConfig(kind="ddqn_dueling")
        online = QNets(
            v_net=init_net((1, 4, 1), seed=0),
            a_net=init_net((3, 4, 1), seed=1),
        )
        target = QNets(
            v_net=init_net((2, 4, 1), seed=0),
            a_net=init_net((3, 4, 1), seed=1),
        )
        with pytest.raises(ValueError):
            q_update([make_transition()], online, target, cfg)

    def test_sync_makes_nets_identical(self):
        agent = CascadeAgent(1, 2, AgentConfig(kind="ddqn_dueling", batch_size=1, target_sync_every=1))
        agent.observe(make_transition())
        state = sv(0.2)
        cands = np.array([[1.0, 0.0], [0.0, 1.0]])
        q_on = q_values(agent.online, state, cands)
        q_tg = q_values(agent.target, state, cands)
        assert np.max(np.abs(q_on - q_tg)) < 1e-12


def td_batch(seed):
    """Seeded batch of 1-8 transitions over 1-14 candidates, with nets to match."""
    rng = np.random.default_rng(seed)
    state_w, cand_w = int(rng.integers(1, 6)), int(rng.integers(1, 5))

    def candidates():
        return rng.normal(size=(rng.integers(1, 15), cand_w))

    batch = []
    for _ in range(rng.integers(1, 9)):
        cands = candidates()
        batch.append(
            Transition(
                state=rng.normal(size=state_w),
                action_index=int(rng.integers(len(cands))),
                candidates=cands,
                reward=float(rng.normal()),
                next_state=rng.normal(size=state_w),
                next_candidates=candidates(),
            )
        )

    def nets(net_seed):
        return QNets(
            a_net=init_net((state_w + cand_w, *HIDDEN, 1), net_seed),
            v_net=init_net((state_w, *HIDDEN, 1), net_seed + 1),
        )

    return batch, nets(seed), nets(seed + 1000)


class TestBatchedTDUpdate:
    """``q_update`` against the former per-transition updates in ``agents_reference``."""

    @staticmethod
    def assert_close(grad, ref):
        # every entry to 1e-12 of its net's largest: A's output bias has an
        # exact gradient of 0, so both paths leave only rounding noise there
        ref = np.concatenate([r.ravel() for r in ref])  # the weights, then the biases
        assert grad.shape == ref.shape
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["dqn", "dueling_shared_target", "dueling_separate_target"])
    def test_matches_former_updates(self, kind, monkeypatch):
        handed, ref_handed = [], []
        monkeypatch.setattr(agents, "adam_update", lambda params, grads, state: handed.append(grads))
        monkeypatch.setattr(
            agents_reference, "adam_step", lambda net, grads, state: ref_handed.append([*grads[0], *grads[1]])
        )
        cfg = AgentConfig(gamma=0.9)
        for seed in range(100):
            batch, online, other = td_batch(seed)
            handed.clear()
            ref_handed.clear()
            if kind == "dqn":
                nets = QNets(online.a_net)
                loss = q_update(batch, nets, nets, cfg)
                ref_loss = agents_reference.q_update_vanilla(batch, online.a_net, AdamState(), cfg)
                (ref_a,) = ref_handed
                ref_v = None
            else:
                target = online if kind == "dueling_shared_target" else other
                loss = q_update(batch, online, target, cfg)
                ref_loss = agents_reference.q_update_double_dueling(
                    batch,
                    agents_reference.DuelingNets(v_net=online.v_net, a_net=online.a_net),
                    agents_reference.DuelingNets(v_net=target.v_net, a_net=target.a_net),
                    AdamState(),
                    AdamState(),
                    cfg,
                )
                ref_v, ref_a = ref_handed
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            # one flat gradient per net: A's, then V's with a dueling head
            assert len(handed) == (1 if ref_v is None else 2)
            self.assert_close(handed[0], ref_a)
            if ref_v is not None:
                self.assert_close(handed[1], ref_v)

    def test_one_state_q_values_match_former_scores(self):
        # select reads these: equal with == so the search picks what it picked
        for seed in range(20):
            batch, online, _ = td_batch(seed)
            t = batch[0]
            assert np.array_equal(
                q_values(QNets(online.a_net), t.state, t.candidates),
                agents_reference.score_candidates(online.a_net, t.state, t.candidates),
            )
            assert np.array_equal(
                q_values(online, t.state, t.candidates),
                agents_reference.dueling_q_values(online.v_net, online.a_net, t.state, t.candidates),
            )

    @pytest.mark.parametrize("dueling", [False, True])
    def test_peak_memory_within_former_updates(self, dueling):
        # the operation agent's shape on outlier_ae (8 transitions x 14
        # candidates, state 129 and candidate 143 wide): the batched arrays
        # must not outgrow the per-transition ones, or the benchmark's peak
        # RSS grows with them
        rng = np.random.default_rng(0)

        def rows(width, n):
            return tuple(StateVector(values=rng.normal(size=width)) for _ in range(n))

        batch = [
            Transition(
                state=rows(129, 1)[0],
                action_index=int(rng.integers(14)),
                candidates=rows(143, 14),
                reward=1.0,
                next_state=rows(129, 1)[0],
                next_candidates=rows(143, 14),
            )
            for _ in range(8)
        ]
        online = QNets(
            a_net=init_net((129 + 143, *HIDDEN, 1), 0),
            v_net=init_net((129, *HIDDEN, 1), 1) if dueling else None,
        )
        target = QNets(*(net.copy() for net in online.nets)) if dueling else online
        cfg = AgentConfig()

        def peak(update):
            update()  # the first call allocates the Adam moments
            tracemalloc.start()
            update()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        batched = peak(lambda: q_update(batch, online, target, cfg))
        if dueling:
            pair = agents_reference.DuelingNets(v_net=online.v_net, a_net=online.a_net)
            other = agents_reference.DuelingNets(v_net=target.v_net, a_net=target.a_net)
            adam_v, adam_a = AdamState(), AdamState()
            former = peak(
                lambda: agents_reference.q_update_double_dueling(batch, pair, other, adam_v, adam_a, cfg)
            )
        else:
            adam = AdamState()
            former = peak(lambda: agents_reference.q_update_vanilla(batch, online.a_net, adam, cfg))
        assert batched <= former

    def test_dqn_runs_only_the_taken_rows(self, monkeypatch):
        # without a dueling head no other current-state row gets a gradient
        rows = []
        monkeypatch.setattr(agents, "forward", lambda net, x: rows.append(len(x)) or forward(net, x))
        batch, online, _ = td_batch(1)
        nets = QNets(online.a_net)
        q_update(batch, nets, nets, AgentConfig())
        assert rows == [sum(len(t.next_candidates) for t in batch), len(batch)]

    def test_one_adam_state_equals_one_per_net(self):
        # the dueling pair steps in lockstep, so one Adam over both vectors is one per net
        _, apart, _ = td_batch(3)
        joint, one = np.concatenate([apart.a_net.params, apart.v_net.params]), AdamState()
        k = apart.a_net.params.size
        rng = np.random.default_rng(0)
        for _ in range(5):
            grads = rng.normal(size=joint.size)
            adam_update(joint, grads, one)
            adam_update(apart.a_net.params, grads[:k], apart.a_net.adam)
            adam_update(apart.v_net.params, grads[k:], apart.v_net.adam)
        assert np.array_equal(joint, np.concatenate([apart.a_net.params, apart.v_net.params]))


class TestPairs:
    """``_pairs`` fills one matrix, row for row the former per-candidate concatenations."""

    def test_matches_per_candidate_rows(self):
        rng = np.random.default_rng(0)
        for counts in ((3, 1, 5), (1,), (14, 2), (1, 1, 1, 9)):  # ragged, and one-candidate states
            states = [rng.normal(size=4) for _ in counts]
            cand_sets = [rng.normal(size=(k, 3)) for k in counts]
            expected = np.stack(
                [agents_reference._cat(s, c) for s, cands in zip(states, cand_sets) for c in cands]
            )
            assert np.array_equal(agents._pairs(states, cand_sets), expected)


class TestActorCritic:
    def test_select_probabilities(self):
        actor = init_net((3, 4, 1), seed=2)
        idx, probs = ac_select(actor, sv(0.1), np.array([[1.0, 0.0], [0.0, 1.0]]), np.random.default_rng(0))
        assert 0 <= idx < 2
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_equal_logits_uniform(self):
        actor = linear_net([0.0, 0.0, 0.0], bias=0.7)
        cands = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        _, probs = ac_select(actor, sv(0.0), cands, np.random.default_rng(1))
        assert np.allclose(probs, 0.25)

    def test_sampling_frequencies(self):
        # logits ln(0.7), ln(0.3) -> pi = (0.7, 0.3)
        actor = linear_net([0.0, np.log(0.7), np.log(0.3)], bias=0.0)
        cands = np.array([[1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(123)
        draws = 10000
        hits = sum(ac_select(actor, sv(0.0), cands, rng)[0] == 0 for _ in range(draws))
        sigma = np.sqrt(draws * 0.7 * 0.3)
        assert abs(hits - draws * 0.7) < 3 * sigma

    def test_delta_substitution(self):
        # zero-weight critic: V = 0 everywhere -> delta = reward; critic loss = delta^2
        actor = init_net((3, 4, 1), seed=3)
        critic = linear_net([0.0], bias=0.0)
        t = make_transition(reward=1.0)
        critic_loss, _ = ac_update(t, actor, critic, AgentConfig(gamma=0.9))
        assert abs(critic_loss - 1.0) < 1e-12

    def test_uniform_entropy_in_objective(self):
        # uniform pi over 2 candidates: objective = delta*ln(1/2) + beta*ln(2)
        actor = linear_net([0.0, 0.0, 0.0], bias=0.0)
        critic = linear_net([0.0], bias=0.0)
        t = make_transition(reward=1.0)
        cfg = AgentConfig(gamma=0.9, entropy_beta=0.01)
        _, objective = ac_update(t, actor, critic, cfg)
        expected = 1.0 * np.log(0.5) + 0.01 * np.log(2.0)
        assert abs(objective - expected) < 1e-12

    def test_positive_delta_increases_action_probability(self):
        actor = init_net((3, 8, 1), seed=5)
        critic = linear_net([0.0], bias=0.0)
        t = make_transition(reward=2.0, action_index=1)

        def prob_of_action():
            return ac_select(actor, t.state, t.candidates, np.random.default_rng(0))[1][t.action_index]

        before = prob_of_action()
        ac_update(t, actor, critic, AgentConfig(gamma=0.9))
        assert prob_of_action() > before


class TestCascadeAgent:
    @pytest.mark.parametrize("kind", ["dqn", "ddqn_dueling", "actor_critic"])
    def test_select_and_observe(self, kind):
        cfg = AgentConfig(kind=kind, batch_size=2, seed=0)
        agent = CascadeAgent(1, 2, cfg)
        cands = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx, prob = agent.select(sv(0.1), cands, epsilon=0.5)
        assert 0 <= idx < 2
        assert 0.0 < prob <= 1.0
        for i in range(4):
            agent.observe(make_transition(reward=float(i)))

    def test_dqn_warmup(self):
        agent = CascadeAgent(1, 2, AgentConfig(kind="dqn", batch_size=8))
        assert agent.observe(make_transition()) is None

    def test_deterministic_selection_sequence(self):
        def run():
            agent = CascadeAgent(1, 2, AgentConfig(kind="dqn", seed=11))
            cands = np.array([[1.0, 0.0], [0.0, 1.0]])
            return [agent.select(sv(0.1 * i), cands, epsilon=0.5)[0] for i in range(20)]

        assert run() == run()

    def test_ddqn_target_sync_counter(self):
        cfg = AgentConfig(kind="ddqn_dueling", batch_size=1, target_sync_every=3)
        agent = CascadeAgent(1, 2, cfg)
        for i in range(3):
            agent.observe(make_transition(reward=float(i)))
        q_on = q_values(agent.online, sv(0.3), np.array([[1.0, 0.0], [0.0, 1.0]]))
        q_tg = q_values(agent.target, sv(0.3), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.max(np.abs(q_on - q_tg)) < 1e-12

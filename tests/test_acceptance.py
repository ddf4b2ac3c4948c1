"""End-to-end acceptance gate: one test per criterion, each printing PASS/FAIL."""

import time

import numpy as np
import pytest
from conftest import record_criterion
from encoder_reference import pearson_abs

from featforge.agents import (
    AgentConfig,
    QNets,
    ac_select,
    ac_update,
    q_update,
    q_values,
)
from featforge.data_core import Dataset, Task
from featforge.evaluator import ModelSpec, metric_1rae, metric_auc, metric_f1, train_random_forest
from featforge.grouping import FeatureGroup, group_distance, m_cluster
from featforge.measures import entropy, mutual_information, utility_u
from featforge.nnet import adam_update, gradient_check, init_net
from featforge.operators import (
    ALL_OPERATIONS,
    FeatureExpr,
    apply_binary,
    apply_unary,
    evaluate_expr,
    expr_to_string,
)
from featforge.pipeline import PipelineConfig, run_grfg, run_rdg_baseline
from featforge.state_rep import AutoencoderEncoder, EncoderConfig, GraphAutoencoderEncoder


# --------------------------------------------------------------------------
# criterion 1: measures oracle suite
# --------------------------------------------------------------------------


def _plugin_mi_oracle(lx, ly):
    lx, ly = np.asarray(lx), np.asarray(ly)
    total = 0.0
    for a in np.unique(lx):
        for b in np.unique(ly):
            pab = np.mean((lx == a) & (ly == b))
            if pab > 0:
                total += pab * np.log(pab / (np.mean(lx == a) * np.mean(ly == b)))
    return total


def test_criterion_1_measures_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-12
    for _ in range(20):
        x = rng.integers(0, 5, size=50).astype(float)
        assert abs(mutual_information(x, x) - entropy(x)) < 1e-12
    assert mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    derived = mutual_information([0, 0, 1, 1], [0, 0, 0, 1])
    assert abs(derived - _plugin_mi_oracle([0, 0, 1, 1], [0, 0, 0, 1])) < 1e-6
    worst = 0.0
    for _ in range(100):
        features = rng.normal(size=(25, 3))
        target = rng.normal(size=25)
        brute = -sum(
            mutual_information(features[:, i], features[:, j])
            for i in range(3)
            for j in range(3)
        ) / 9 + sum(mutual_information(features[:, i], target) for i in range(3)) / 3
        worst = max(worst, abs(utility_u(features, target) - brute))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    record_criterion(1, True, f"measures oracle suite in {elapsed:.2f}s (utility dev {worst:.2e})")


# --------------------------------------------------------------------------
# criterion 2: grouping suite
# --------------------------------------------------------------------------


def test_criterion_2_grouping():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        features = rng.normal(size=(25, 4))
        target = rng.normal(size=25)
        c1 = FeatureGroup((0, 1))
        c2 = FeatureGroup((2, 3))
        d12 = group_distance(c1, c2, features, target)
        d21 = group_distance(c2, c1, features, target)
        assert d12 >= 0.0
        assert abs(d12 - d21) < 1e-12
    f = rng.normal(size=60)
    dup_features = np.column_stack([f, f, rng.normal(size=60), rng.normal(size=60)])
    partition = m_cluster(dup_features, rng.normal(size=60), stop_threshold=np.inf)
    assert any(set(g.indices) >= {0, 1} for g in partition.groups)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        features = rng.normal(size=(30, n))
        target = rng.normal(size=30)
        partition = m_cluster(features, target)
        covered = sorted(i for g in partition.groups for i in g.indices)
        assert covered == list(range(n))
    features = rng.normal(size=(30, 5))
    target = rng.normal(size=30)
    assert m_cluster(features, target) == m_cluster(features, target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    record_criterion(2, True, f"grouping suite in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 3: neural substrate
# --------------------------------------------------------------------------


def _encoder_fd_worst(params, grads_fn, rng, samples=60):
    h = 1e-5
    loss0, grads = grads_fn()
    worst = 0.0
    for p, g in zip(params, grads):
        flat, gflat = p.ravel(), np.asarray(g).ravel()
        idx = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = grads_fn()[0]
            flat[i] = orig - h
            lm = grads_fn()[0]
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(num - gflat[i]) / denom)
    return worst


def test_criterion_3_neural_substrate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    # every dense architecture the agents instantiate (ds state width 49, 14 ops)
    w = 49
    n_ops = len(ALL_OPERATIONS)
    agent_shapes = [
        (2 * w, 64, 64, 1),            # agent 1 Q / advantage / actor
        (w, 64, 64, 1),                # agent 1 dueling V / critic
        (2 * w + n_ops, 64, 64, 1),    # operation agent Q (state 2w, candidate one-hot)
        (2 * w, 64, 64, 1),            # operation agent V
        (4 * w + n_ops, 64, 64, 1),    # agent 2 Q (state 3w+ops, candidate w)
        (3 * w + n_ops, 64, 64, 1),    # agent 2 V
    ]
    worst = 0.0
    for i, shape in enumerate(dict.fromkeys(agent_shapes)):
        net = init_net(shape, seed=i)
        x = rng.normal(size=shape[0])
        worst = max(worst, gradient_check(net, x, h=1e-5))
    assert worst < 1e-4
    # encoder architectures via their own gradient paths
    ae = AutoencoderEncoder(EncoderConfig(seed=3))
    f = rng.normal(size=(30, 5))
    ae._build(30, 5)
    worst_ae = _encoder_fd_worst(ae._params, lambda: ae._gradients(f), rng)
    assert worst_ae < 1e-4
    gae = GraphAutoencoderEncoder(EncoderConfig(seed=4))
    a = gae.adjacency(f)
    msg = gae._message_matrix(f, a)
    gae._build(30)
    worst_gae = _encoder_fd_worst(
        [gae._w], lambda: (lambda lo, g: (lo, [g]))(*gae._gradients(msg, a)), rng
    )
    assert worst_gae < 1e-4
    # Adam first-step magnitude ~ lr
    net = init_net((1, 1), seed=0)
    before = net.weights[0][0, 0]
    adam_update(net.params, np.array([3.0, 0.0]), net.adam)  # (weight, bias) gradient
    assert abs((before - net.weights[0][0, 0]) - 0.01) < 1e-6
    # seeded reproducibility
    a1 = init_net((10, 64, 1), seed=9)
    a2 = init_net((10, 64, 1), seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a1.weights, a2.weights))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record_criterion(
        3, True,
        f"gradient checks in {elapsed:.2f}s (agents {worst:.2e}, ae {worst_ae:.2e}, gae {worst_gae:.2e})",
    )


# --------------------------------------------------------------------------
# criterion 4: RL update correctness
# --------------------------------------------------------------------------


def _linear_net(weights, bias=0.0):
    net = init_net((len(weights), 1), seed=0)
    net.weights[0][:, 0] = np.asarray(weights, dtype=float)
    net.biases[0][0] = bias
    return net


def _fixed_transition(reward=1.0, action_index=0):
    from featforge.agents import Transition

    cands = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Transition(
        state=np.array([0.5]),
        action_index=action_index,
        candidates=cands,
        reward=reward,
        next_state=np.array([-0.5]),
        next_candidates=cands,
    )


def test_criterion_4_rl_updates():
    t0 = time.perf_counter()
    # (a) vanilla TD target vs hand computation
    net = _linear_net([0.1, 0.2, 0.3], bias=0.05)
    t = _fixed_transition(reward=1.0, action_index=0)
    q_sa = 0.1 * 0.5 + 0.2 + 0.05
    target = 1.0 + 0.9 * max(0.1 * -0.5 + 0.2 + 0.05, 0.1 * -0.5 + 0.3 + 0.05)
    nets = QNets(net)
    loss = q_update([t], nets, nets, AgentConfig(gamma=0.9))
    assert abs(loss - (q_sa - target) ** 2) < 1e-12
    # (b) double-Q decoupling on handcrafted weights
    online = QNets(v_net=_linear_net([0.0]), a_net=_linear_net([0.0, 0.0, 1.0]))
    tnets = QNets(v_net=_linear_net([0.0], bias=0.55), a_net=_linear_net([0.0, 0.35, -0.35]))
    q_online = q_values(online, t.next_state, t.next_candidates)
    assert int(np.argmax(q_online)) == 1
    q_sa = -0.5  # V = 0 and A = [0, 1] over the current candidates; action 0 taken
    loss = q_update([t], online, tnets, AgentConfig(gamma=0.9))
    assert abs(loss - (q_sa - (1.0 + 0.9 * 0.2)) ** 2) < 1e-12  # target net evaluates the ONLINE pick
    # (c) dueling invariance under constant advantage shift
    q_before = q_values(online, t.state, t.candidates)
    online.a_net.biases[0][0] += 7.0
    q_after = q_values(online, t.state, t.candidates)
    assert np.max(np.abs(q_before - q_after)) < 1e-12
    # (d) actor-critic: delta substitution, uniform entropy, probability increase
    actor = _linear_net([0.0, 0.0, 0.0])
    critic = _linear_net([0.0])
    cfg = AgentConfig(gamma=0.9, entropy_beta=0.01)
    critic_loss, objective = ac_update(
        _fixed_transition(reward=1.0), actor.copy(), critic.copy(), cfg
    )
    assert abs(critic_loss - 1.0) < 1e-12  # V == 0 everywhere -> delta = r
    assert abs(objective - (np.log(0.5) + 0.01 * np.log(2.0))) < 1e-12  # uniform pi, H = ln 2
    actor = init_net((3, 8, 1), seed=5)
    t2 = _fixed_transition(reward=2.0, action_index=1)

    def prob():
        return ac_select(actor, t2.state, t2.candidates, np.random.default_rng(0))[1][1]

    p_before = prob()
    ac_update(t2, actor, _linear_net([0.0]), cfg)
    assert prob() > p_before
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record_criterion(4, True, f"RL update hand checks in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 5: operator totality and traceability fuzz
# --------------------------------------------------------------------------


def test_criterion_5_operator_fuzz():
    t0 = time.perf_counter()
    columns = {
        "z": np.zeros(6),
        "n": np.array([-1e12, -5.0, -1e-9, -0.1, -3.0, -7.5]),
        "h": np.array([1e12, 1e9, 123456.0, 1e-12, 2.0, 0.5]),
    }
    names = list(columns)
    dataset = Dataset(
        samples=np.column_stack([columns[n] for n in names]),
        feature_names=tuple(names),
        target=np.arange(6, dtype=float),
        task=Task.REGRESSION,
    )
    unary = [op for op in ALL_OPERATIONS if op.is_unary]
    binary = [op for op in ALL_OPERATIONS if op.is_binary]
    rng = np.random.default_rng(6)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            name = names[rng.integers(3)]
            return FeatureExpr.leaf(name), columns[name]
        if rng.random() < 0.5:
            op = unary[rng.integers(len(unary))]
            child, values = build(depth - 1)
            return FeatureExpr.unary(op, child), apply_unary(op, values)
        op = binary[rng.integers(len(binary))]
        left, lv = build(depth - 1)
        right, rv = build(depth - 1)
        return FeatureExpr.binary(op, left, right), apply_binary(op, lv, rv)

    worst = 0.0
    for _ in range(100_000):
        expr, stored = build(4)
        assert np.all(np.isfinite(stored))
        replayed = evaluate_expr(expr, dataset)
        worst = max(worst, float(np.max(np.abs(replayed - stored))))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    record_criterion(5, True, f"100k tree fuzz in {elapsed:.2f}s (max dev {worst:.2e})")


# --------------------------------------------------------------------------
# criterion 6: downstream evaluators
# --------------------------------------------------------------------------


def test_criterion_6_evaluators():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_classes = int(rng.integers(2, 5))
        truth = rng.integers(0, n_classes, size=20)
        pred = rng.integers(0, n_classes, size=20)
        f1s, precs, recs = [], [], []
        for c in np.unique(truth):
            tp = np.sum((pred == c) & (truth == c))
            fp = np.sum((pred == c) & (truth != c))
            fn = np.sum((pred != c) & (truth == c))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            precs.append(p)
            recs.append(r)
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        assert metric_f1(pred, truth) == pytest.approx(np.mean(f1s), abs=1e-15)
    y = rng.normal(size=30)
    assert metric_1rae(y, y) == 1.0
    assert abs(metric_1rae(np.full(30, y.mean()), y)) < 1e-12
    truth = np.concatenate([np.zeros(15), np.ones(15)])
    scores = rng.normal(size=30)
    base = metric_auc(scores, truth)
    assert abs(metric_auc(np.exp(scores), truth) - base) < 1e-12
    assert abs(metric_auc(5 * scores - 3, truth) - base) < 1e-12
    accs = []
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        x0 = np.column_stack([r2.uniform(-2, -1, 10), r2.normal(size=10)])
        x1 = np.column_stack([r2.uniform(1, 2, 10), r2.normal(size=10)])
        X = np.vstack([x0, x1])
        yy = np.concatenate([np.zeros(10), np.ones(10)])
        model = train_random_forest(X, yy, ModelSpec(seed=seed), classification=True)
        accs.append(float(np.mean(model.predict(X) == yy)))
    assert min(accs) >= 0.95
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    record_criterion(6, True, f"evaluator suite in {elapsed:.2f}s (min RF acc {min(accs):.2f})")


# --------------------------------------------------------------------------
# criteria 7-9: scaled end-to-end behavioral checks (shared runs)
# --------------------------------------------------------------------------


N_SEEDS = 5


def _fixture_dataset(seed: int) -> Dataset:
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(500, 5))
    y = X[:, 0] * X[:, 1] + 0.05 * rng.normal(size=500)
    return Dataset(
        samples=X,
        feature_names=("f1", "f2", "f3", "f4", "f5"),
        target=y,
        task=Task.REGRESSION,
    )


@pytest.fixture(scope="module")
def synthetic_runs():
    runs = {}
    for seed in range(N_SEEDS):
        d = _fixture_dataset(seed)
        base = dict(epochs=10, steps_per_epoch=10, seed=seed)
        grfg_report, grfg_best = run_grfg(d, PipelineConfig(**base))
        rdg_report, _ = run_rdg_baseline(d, PipelineConfig(**base))
        ac_report, _ = run_grfg(
            d, PipelineConfig(agent=AgentConfig(kind="actor_critic"), **base)
        )
        runs[seed] = {
            "dataset": d,
            "grfg": grfg_report,
            "grfg_best": grfg_best,
            "rdg": rdg_report,
            "ac": ac_report,
        }
    return runs


def _has_multiplicative_f1_f2(best, dataset) -> bool:
    product = dataset.samples[:, 0] * dataset.samples[:, 1]
    for i, expr in enumerate(best.table.exprs):
        text = expr_to_string(expr)
        if expr.depth >= 1 and "*" in text and "f1" in text and "f2" in text:
            return True
        if expr.depth >= 1 and pearson_abs(best.table.values[:, i], product) > 0.99:
            return True
    return False


def test_criterion_7_grfg_beats_raw_and_rdg(synthetic_runs):
    t0 = time.perf_counter()
    wins_raw = wins_rdg = 0
    for seed, run in synthetic_runs.items():
        if run["grfg"].best_score > run["grfg"].baseline_score:
            wins_raw += 1
        if run["grfg"].best_score > run["rdg"].best_score:
            wins_rdg += 1
    best_seed = max(synthetic_runs, key=lambda s: synthetic_runs[s]["grfg"].best_score)
    traced = _has_multiplicative_f1_f2(
        synthetic_runs[best_seed]["grfg_best"], synthetic_runs[best_seed]["dataset"]
    )
    elapsed = time.perf_counter() - t0
    passed = wins_raw >= 4 and wins_rdg >= 4 and traced
    record_criterion(
        7, passed,
        f"beats raw {wins_raw}/5, beats rdg {wins_rdg}/5, f1*f2 traced={traced} "
        f"(check {elapsed:.1f}s after shared runs)",
    )
    assert wins_raw >= 4
    assert wins_rdg >= 4
    assert traced


def _epochs_to_near_best(report, tolerance=0.98):
    final_best = max(r["V_A"] for r in report.steps)
    threshold = tolerance * final_best
    running = float("-inf")
    for rec in report.steps:
        running = max(running, rec["V_A"])
        if running >= threshold:
            return rec["epoch"]
    return report.steps[-1]["epoch"]


def test_criterion_8_optimizer_comparison_informational(synthetic_runs):
    faster_or_equal = 0
    for seed, run in synthetic_runs.items():
        if _epochs_to_near_best(run["ac"]) <= _epochs_to_near_best(run["grfg"]):
            faster_or_equal += 1
    met = faster_or_equal >= 3
    record_criterion(
        8, True,
        f"informational: actor-critic converged no later than dqn in "
        f"{faster_or_equal}/5 seeds (target 3/5 {'met' if met else 'not met'}; never hard-fails)",
    )


def test_criterion_9_size_control(synthetic_runs):
    d0 = 5
    checked = 0
    for run in synthetic_runs.values():
        for report in (run["grfg"], run["rdg"], run["ac"]):
            for rec in report.steps:
                assert rec["feature_count"] <= 2 * d0
                checked += 1
    record_criterion(9, True, f"feature_count <= 2x original in all {checked} step records")

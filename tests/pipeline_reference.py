"""The two step loops of featforge's search before they became one engine.

Test oracle only: ``run_grfg`` and ``run_rdg_baseline`` below are the
separate cascading-agent loop and random-baseline loop, kept verbatim.
``TestOneStepEngine`` requires the one step engine in ``featforge.pipeline``
to give the same reports, best tables and output files.

``_finish_report`` is the final CV as it was before one fit grew every fold's
forest: one ``downstream_performance`` call per fold.
"""

from __future__ import annotations

import numpy as np

from featforge.agents import AgentConfig, CascadeAgent, Transition, compute_rewards, epsilon_at
from featforge.data_core import Dataset, SplitPlan, make_folds, make_split
from featforge.evaluator import downstream_performance
from featforge.generation import (
    FeatureTable,
    GenerationConfig,
    cross_binary_topk,
    generate_unary,
    postprocess,
    size_control,
)
from featforge.grouping import FeatureGroup, GroupPartition, m_cluster
from featforge.measures import MIEngine, utility_u
from featforge.operators import ALL_OPERATIONS
from featforge.pipeline import FINAL_CV_FOLDS, TEST_FRACTION, BestFeatureSet, PipelineConfig, RunReport, _write_outputs
from featforge.state_rep import EncoderConfig, StateEncoder, StateVector, compose_state, rep_operation


def _singleton_partition(n: int) -> GroupPartition:
    return GroupPartition(
        groups=tuple(FeatureGroup((i,)) for i in range(n)), threshold_used=0.0
    )


def _group_names(table: FeatureTable, group: FeatureGroup) -> list[str]:
    names = table.names  # renders every column's expression, so read it once
    return [names[i] for i in group.indices]


class _PendingTransition:
    """Half-built transition waiting for the next step's state and candidates."""

    __slots__ = ("state", "action_index", "candidates", "reward")

    def __init__(self, state, action_index, candidates, reward):
        self.state = state
        self.action_index = action_index
        self.candidates = candidates
        self.reward = reward

    def finalize(self, next_state: StateVector, next_candidates) -> Transition:
        return Transition(
            state=self.state,
            action_index=self.action_index,
            candidates=tuple(self.candidates),
            reward=self.reward,
            next_state=next_state,
            next_candidates=tuple(next_candidates),
        )


def run_grfg(dataset: Dataset, cfg: PipelineConfig):
    """Run the reinforced search; returns (RunReport, BestFeatureSet)."""
    ss = np.random.SeedSequence(cfg.seed)
    seeds = ss.generate_state(8).tolist()
    split = make_split(dataset, TEST_FRACTION, seed=int(seeds[0]) % 2**31)
    original = FeatureTable.from_dataset(dataset)
    d0 = original.n_features
    y = dataset.target
    mi = MIEngine(y)

    enc_cfg = EncoderConfig(
        ae_col_dim=cfg.encoder.ae_col_dim,
        ae_row_dim=cfg.encoder.ae_row_dim,
        gae_dim=cfg.encoder.gae_dim,
        train_epochs=cfg.encoder.train_epochs,
        incremental_epochs=cfg.encoder.incremental_epochs,
        row_subsample_cap=cfg.encoder.row_subsample_cap,
        seed=int(seeds[1]) % 2**31,
    )
    encoder = StateEncoder(cfg.state_method, enc_cfg)
    width = encoder.length
    n_ops = len(ALL_OPERATIONS)
    op_candidates = tuple(rep_operation(i, n_ops) for i in range(n_ops))

    def agent_cfg(i: int) -> AgentConfig:
        return AgentConfig(
            gamma=cfg.agent.gamma,
            epsilon_start=cfg.agent.epsilon_start,
            epsilon_min=cfg.agent.epsilon_min,
            epsilon_decay=cfg.agent.epsilon_decay,
            batch_size=cfg.agent.batch_size,
            target_sync_every=cfg.agent.target_sync_every,
            entropy_beta=cfg.agent.entropy_beta,
            kind=cfg.agent.kind,
            seed=int(seeds[2 + i]) % 2**31,
        )

    agent1 = CascadeAgent(width, width, agent_cfg(0))
    agent_op = CascadeAgent(2 * width, n_ops, agent_cfg(1))
    agent2 = CascadeAgent(2 * width + n_ops, width, agent_cfg(2))
    gen_rng = np.random.default_rng(int(seeds[5]) % 2**31)

    report = RunReport(method="grfg", config_seed=cfg.seed)
    report.baseline_score = downstream_performance(
        original.values, y, dataset.task, cfg.model, split
    )
    best = BestFeatureSet(table=original, score=report.baseline_score, step=-1)

    table = original
    pending: dict[str, _PendingTransition | None] = {"g1": None, "op": None, "g2": None}
    global_step = 0
    metric = "euclidean" if cfg.euclidean_distance else "relevance_redundancy"

    for epoch in range(cfg.epochs):
        if cfg.reset_per_epoch and epoch > 0:
            table = original
        for step in range(cfg.steps_per_epoch):
            n = table.n_features
            if cfg.no_cluster or n == 1:
                partition = _singleton_partition(n)
            else:
                partition = m_cluster(
                    table,
                    y,
                    stop_threshold=cfg.clustering.stop_threshold,
                    epsilon=cfg.clustering.epsilon,
                    metric=metric,
                    mi=mi,
                )
            rep_f = encoder.encode(table.values, scope="set")
            group_reps = tuple(
                encoder.encode(table.values[:, list(g.indices)], scope="group")
                for g in partition.groups
            )
            state1 = compose_state("group1", [rep_f])
            if pending["g1"] is not None:
                agent1.observe(pending["g1"].finalize(state1, group_reps))

            eps = epsilon_at(global_step, agent1.cfg)
            idx1, _ = agent1.select(state1, group_reps, eps)
            c1 = partition.groups[idx1]

            state_op = compose_state("operation", [rep_f, group_reps[idx1]])
            if pending["op"] is not None:
                agent_op.observe(pending["op"].finalize(state_op, op_candidates))
            idx_op, _ = agent_op.select(state_op, op_candidates, eps)
            op = ALL_OPERATIONS[idx_op]

            state2 = compose_state(
                "group2", [rep_f, group_reps[idx1], op_candidates[idx_op]]
            )
            if pending["g2"] is not None:
                agent2.observe(pending["g2"].finalize(state2, group_reps))
            idx2, _ = agent2.select(state2, group_reps, eps)
            c2 = partition.groups[idx2]

            if op.is_binary:
                try:
                    generated = cross_binary_topk(op, c1, c2, table, cfg.generation, gen_rng)
                except ValueError:
                    generated = []
            else:
                generated = generate_unary(op, c1, c2, table, y, cfg.generation, rng=gen_rng, mi=mi)

            u_before = utility_u(table, y, mi=mi)
            new_table = postprocess(table, generated, step=global_step)
            u_after = utility_u(new_table, y, mi=mi)
            v_a = downstream_performance(new_table.values, y, dataset.task, cfg.model, split)
            r1, r_op, r2 = compute_rewards(u_before, u_after, v_a)
            if cfg.r1_delta:
                r1 = r_op

            pending["g1"] = _PendingTransition(state1, idx1, group_reps, r1)
            pending["op"] = _PendingTransition(state_op, idx_op, op_candidates, r_op)
            pending["g2"] = _PendingTransition(state2, idx2, group_reps, r2)

            if v_a > best.score:
                best = BestFeatureSet(table=new_table, score=v_a, step=global_step)

            table = size_control(new_table, d0, y, cfg.generation, mi=mi)
            report.steps.append(
                {
                    "epoch": epoch,
                    "step": step,
                    "group1": _group_names(new_table, c1),
                    "operation": op.name.lower(),
                    "group2": _group_names(new_table, c2),
                    "r1": r1,
                    "r_op": r_op,
                    "r2": r2,
                    "U_before": u_before,
                    "U_after": u_after,
                    "V_A": v_a,
                    "feature_count": table.n_features,
                }
            )
            global_step += 1

    _finish_report(report, best, dataset, cfg)
    if cfg.out_dir:
        _write_outputs(report, best, cfg.out_dir)
    return report, best


def run_rdg_baseline(dataset: Dataset, cfg: PipelineConfig):
    """Matched-budget random feature-operation-feature baseline."""
    ss = np.random.SeedSequence(cfg.seed)
    seeds = ss.generate_state(8).tolist()
    split = make_split(dataset, TEST_FRACTION, seed=int(seeds[0]) % 2**31)
    rng = np.random.default_rng(int(seeds[6]) % 2**31)
    original = FeatureTable.from_dataset(dataset)
    d0 = original.n_features
    y = dataset.target
    mi = MIEngine(y)

    report = RunReport(method="rdg", config_seed=cfg.seed)
    report.baseline_score = downstream_performance(
        original.values, y, dataset.task, cfg.model, split
    )
    best = BestFeatureSet(table=original, score=report.baseline_score, step=-1)
    table = original
    global_step = 0

    for epoch in range(cfg.epochs):
        if cfg.reset_per_epoch and epoch > 0:
            table = original
        for step in range(cfg.steps_per_epoch):
            n = table.n_features
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            op = ALL_OPERATIONS[int(rng.integers(len(ALL_OPERATIONS)))]
            c1 = FeatureGroup((i,))
            c2 = FeatureGroup((j,))
            if op.is_binary:
                if i == j:
                    generated = []
                else:
                    generated = cross_binary_topk(
                        op, c1, c2, table, GenerationConfig(top_k_pairs=1), rng
                    )
            else:
                generated = generate_unary(op, c1, c1, table, y, rng=rng, mi=mi)

            u_before = utility_u(table, y, mi=mi)
            new_table = postprocess(table, generated, step=global_step)
            u_after = utility_u(new_table, y, mi=mi)
            v_a = downstream_performance(new_table.values, y, dataset.task, cfg.model, split)
            r1, r_op, r2 = compute_rewards(u_before, u_after, v_a)

            if v_a > best.score:
                best = BestFeatureSet(table=new_table, score=v_a, step=global_step)
            table = size_control(new_table, d0, y, cfg.generation, mi=mi)
            report.steps.append(
                {
                    "epoch": epoch,
                    "step": step,
                    "group1": _group_names(new_table, c1),
                    "operation": op.name.lower(),
                    "group2": _group_names(new_table, c2),
                    "r1": r1,
                    "r_op": r_op,
                    "r2": r2,
                    "U_before": u_before,
                    "U_after": u_after,
                    "V_A": v_a,
                    "feature_count": table.n_features,
                }
            )
            global_step += 1

    _finish_report(report, best, dataset, cfg)
    if cfg.out_dir:
        _write_outputs(report, best, cfg.out_dir)
    return report, best


def _finish_report(report: RunReport, best: BestFeatureSet, dataset: Dataset, cfg: PipelineConfig):
    report.best_score = best.score
    report.best_step = best.step
    report.best_feature_names = list(best.table.names)
    k = min(FINAL_CV_FOLDS, dataset.n_rows)
    if k >= 2:
        plan = make_folds(dataset, k, seed=cfg.seed)
        scores = []
        for train, test in plan.folds:
            fold_split = SplitPlan(train_indices=train, test_indices=test, seed=cfg.seed)
            try:
                scores.append(
                    downstream_performance(
                        best.table.values, dataset.target, dataset.task, cfg.model, fold_split
                    )
                )
            except ValueError:
                continue
        if scores:
            report.final_cv_score = float(np.mean(scores))

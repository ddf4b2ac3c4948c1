"""Full search loop: cluster -> cascade-select -> generate -> evaluate -> prune.

One step engine runs both methods.  A policy chooses each step's two groups,
operation and generated columns, and learns from the rewards: the cascading
agents over M-Clustering's groups (GRFG), or a uniformly random
feature-operation-feature pick (the RDG baseline).  The engine owns the rest,
so both methods share the budget, post-processing, rewards, size control and
step records by construction.  Also exports the traceable best feature set.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from featforge.agents import AgentConfig, CascadeAgent, Transition, compute_rewards, epsilon_at
from featforge.data_core import Dataset, make_folds, make_split
from featforge.evaluator import ModelSpec, downstream_performance, fold_predictions, reward
from featforge.generation import (
    FeatureTable,
    GenerationConfig,
    cross_binary_topk,
    generate_unary,
    postprocess,
    size_control,
)
from featforge.grouping import DEFAULT_EPSILON, FeatureGroup, GroupPartition, m_cluster
from featforge.measures import MIEngine, utility_u
from featforge.operators import ALL_OPERATIONS, expr_to_string
from featforge.state_rep import EncoderConfig, StateEncoder

TEST_FRACTION = 0.2  # share of rows that V_A scores; the rest fit the model
FINAL_CV_FOLDS = 5   # folds of the report's cross-validated score of the best set


@dataclass(frozen=True)
class ClusterConfig:
    stop_threshold: "float | str" = "auto"
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.stop_threshold != "auto" and not (
            isinstance(self.stop_threshold, numbers.Real) and np.isfinite(self.stop_threshold)
        ):
            raise ValueError(f"stop_threshold must be 'auto' or a finite number, got {self.stop_threshold!r}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"clustering epsilon must be finite and > 0, got {self.epsilon!r}")


@dataclass(frozen=True)
class PipelineConfig:
    epochs: int = 30
    steps_per_epoch: int = 15
    state_method: str = "ds"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    clustering: ClusterConfig = field(default_factory=ClusterConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    no_cluster: bool = False           # ablation: every feature its own group
    euclidean_distance: bool = False   # ablation: mean-vector Euclidean grouping
    r1_delta: bool = False             # alternative: reward agent 1 with the utility change
    reset_per_epoch: bool = False
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ValueError("epochs and steps_per_epoch must be >= 1")
        if self.state_method not in StateEncoder.METHODS:
            raise ValueError(f"unknown state method {self.state_method!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "model", replace(self.model, seed=self.seed))  # one seed drives the forest too

    def cluster_kwargs(self) -> dict:
        """``m_cluster``'s settings; ``run`` and ``cluster`` both read them here."""
        return dict(
            stop_threshold=self.clustering.stop_threshold,
            epsilon=self.clustering.epsilon,
            metric="euclidean" if self.euclidean_distance else "relevance_redundancy",
        )


@dataclass
class RunReport:
    method: str
    steps: list = field(default_factory=list)
    best_score: float = float("-inf")
    best_step: int = -1
    best_feature_names: list = field(default_factory=list)
    baseline_score: float = 0.0
    final_cv_score: float | None = None
    config_seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BestFeatureSet:
    table: FeatureTable
    score: float
    step: int


def _singleton_partition(n: int) -> GroupPartition:
    return GroupPartition(
        groups=tuple(FeatureGroup((i,)) for i in range(n)), threshold_used=0.0
    )


class _CascadePolicy:
    """GRFG: M-Clustering's groups, state encoders and the three cascading agents."""

    def __init__(self, cfg: PipelineConfig, seeds: list, y: np.ndarray, mi: MIEngine):
        self.cfg, self.y, self.mi = cfg, y, mi
        self.encoder = StateEncoder(cfg.state_method, replace(cfg.encoder, seed=int(seeds[1]) % 2**31))
        width = self.encoder.length
        n_ops = len(ALL_OPERATIONS)
        self.op_candidates = np.eye(n_ops)  # one one-hot row per operation
        shapes = ((width, width), (2 * width, n_ops), (2 * width + n_ops, width))
        self.agents = [
            CascadeAgent(state_width, candidate_width, replace(cfg.agent, seed=int(seeds[2 + i]) % 2**31))
            for i, (state_width, candidate_width) in enumerate(shapes)
        ]
        self.gen_rng = np.random.default_rng(int(seeds[5]) % 2**31)
        # each agent's last choice, a Transition waiting for its reward and the next state
        self.pending: list = [None] * len(self.agents)

    def choose(self, table: FeatureTable, global_step: int):
        cfg = self.cfg
        if cfg.no_cluster:
            partition = _singleton_partition(table.n_features)
        else:
            partition = m_cluster(table, self.y, mi=self.mi, **cfg.cluster_kwargs())
        rep_f = self.encoder.encode(table.values, scope="set")
        group_reps = np.stack(
            [self.encoder.encode(table.values[:, list(g.indices)], scope="group") for g in partition.groups]
        )
        eps = epsilon_at(global_step, cfg.agent)
        parts, chosen = [rep_f], []
        for k, (agent, candidates) in enumerate(zip(self.agents, (group_reps, self.op_candidates, group_reps))):
            state = np.concatenate(parts)  # the set's encoding, then each earlier agent's chosen row
            if self.pending[k] is not None:
                agent.observe(self.pending[k](next_state=state, next_candidates=candidates))
            idx, _ = agent.select(state, candidates, eps)
            self.pending[k] = partial(
                Transition, state=state, action_index=idx, candidates=candidates
            )
            parts.append(candidates[idx])
            chosen.append(idx)
        i1, i_op, i2 = chosen
        c1, op, c2 = partition.groups[i1], ALL_OPERATIONS[i_op], partition.groups[i2]

        if op.is_binary:
            generated = cross_binary_topk(op, c1, c2, table, cfg.generation, self.gen_rng)
        else:
            generated = generate_unary(op, c1, c2, table, self.y, cfg.generation, rng=self.gen_rng, mi=self.mi)
        return c1, op, c2, generated

    def learn(self, rewards: tuple[float, float, float]) -> tuple[float, float, float]:
        r1, r_op, r2 = rewards
        if self.cfg.r1_delta:
            r1 = r_op
        self.pending = [partial(t, reward=r) for t, r in zip(self.pending, (r1, r_op, r2))]
        return r1, r_op, r2


class _RandomPolicy:
    """RDG: a uniformly random feature, operation and feature each step."""

    def __init__(self, cfg: PipelineConfig, seeds: list, y: np.ndarray, mi: MIEngine):
        self.rng = np.random.default_rng(int(seeds[6]) % 2**31)
        self.y, self.mi = y, mi

    def choose(self, table: FeatureTable, global_step: int):
        rng = self.rng
        n = table.n_features
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        op = ALL_OPERATIONS[int(rng.integers(len(ALL_OPERATIONS)))]
        c1, c2 = FeatureGroup((i,)), FeatureGroup((j,))
        if not op.is_binary:
            generated = generate_unary(op, c1, c1, table, self.y, rng=rng, mi=self.mi)
        else:
            generated = cross_binary_topk(op, c1, c2, table, GenerationConfig(top_k_pairs=1), rng)
        return c1, op, c2, generated

    def learn(self, rewards: tuple[float, float, float]) -> tuple[float, float, float]:
        return rewards


def _search(dataset: Dataset, cfg: PipelineConfig, method: str, policy):
    """Run ``cfg``'s step budget with ``policy``; returns (RunReport, BestFeatureSet).

    ``policy(cfg, seeds, y, mi)`` gives an object whose ``choose(table, step)``
    returns (c1, op, c2, generated) and whose ``learn(rewards)`` returns the
    rewards it credited, which the step record keeps.
    """
    seeds = np.random.SeedSequence(cfg.seed).generate_state(8).tolist()
    split = make_split(dataset, TEST_FRACTION, seed=int(seeds[0]) % 2**31)
    original = FeatureTable.from_dataset(dataset)
    y = dataset.target
    mi = MIEngine(y)
    policy = policy(cfg, seeds, y, mi)

    report = RunReport(method=method, config_seed=cfg.seed)
    report.baseline_score = downstream_performance(
        original.values, y, dataset.task, cfg.model, split
    )
    best = BestFeatureSet(table=original, score=report.baseline_score, step=-1)
    table = original

    for epoch in range(cfg.epochs):
        if cfg.reset_per_epoch and epoch > 0:
            table = original
        for step in range(cfg.steps_per_epoch):
            global_step = epoch * cfg.steps_per_epoch + step
            c1, op, c2, generated = policy.choose(table, global_step)

            u_before = utility_u(table, y, mi=mi)
            new_table = postprocess(table, generated, step=global_step)
            u_after = utility_u(new_table, y, mi=mi)
            v_a = downstream_performance(new_table.values, y, dataset.task, cfg.model, split)
            r1, r_op, r2 = policy.learn(compute_rewards(u_before, u_after, v_a))

            if v_a > best.score:
                best = BestFeatureSet(table=new_table, score=v_a, step=global_step)
            table = size_control(new_table, original.n_features, y, cfg.generation, mi=mi)
            report.steps.append(
                {
                    "epoch": epoch,
                    "step": step,
                    "group1": [new_table.names[i] for i in c1.indices],
                    "operation": op.name.lower(),
                    "group2": [new_table.names[i] for i in c2.indices],
                    "r1": r1,
                    "r_op": r_op,
                    "r2": r2,
                    "U_before": u_before,
                    "U_after": u_after,
                    "V_A": v_a,
                    "feature_count": table.n_features,
                }
            )

    _finish_report(report, best, dataset, cfg)
    if cfg.out_dir:
        _write_outputs(report, best, cfg.out_dir)
    return report, best


def run_grfg(dataset: Dataset, cfg: PipelineConfig):
    """Run the reinforced search; returns (RunReport, BestFeatureSet)."""
    return _search(dataset, cfg, "grfg", _CascadePolicy)


def run_rdg_baseline(dataset: Dataset, cfg: PipelineConfig):
    """Matched-budget random feature-operation-feature baseline."""
    return _search(dataset, cfg, "rdg", _RandomPolicy)


def _finish_report(report: RunReport, best: BestFeatureSet, dataset: Dataset, cfg: PipelineConfig):
    report.best_score = best.score
    report.best_step = best.step
    report.best_feature_names = list(best.table.names)
    k = min(FINAL_CV_FOLDS, dataset.n_rows)
    if k < 2:
        return
    target, task = dataset.target, dataset.task
    folds = []
    for train, test in make_folds(dataset, k, seed=cfg.seed):
        try:  # a fold whose test side has no score, such as one class under ROC-AUC, is left out
            reward(target[test], target[test], task)
        except ValueError:
            continue
        folds.append((train, test))
    preds = fold_predictions(best.table.values, target, task, cfg.model, folds)
    scores = [reward(pred, target[test], task) for pred, (_, test) in zip(preds, folds)]
    if scores:
        report.final_cv_score = float(np.mean(scores))


def export_trace(best: BestFeatureSet, out_dir: str) -> tuple[str, str]:
    """Write trace.jsonl + best_features.csv; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    csv_path = os.path.join(out_dir, "best_features.csv")
    with open(trace_path, "w", encoding="utf-8") as fh:
        for i, expr in enumerate(best.table.exprs):
            rec = {
                "name": best.table.names[i],
                "expression": expr_to_string(expr),
                "depth": expr.depth,
                "created_at_step": best.table.created_at[i],
            }
            fh.write(json.dumps(rec) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(best.table.names)  # a name may need quoting
        # a float never does: each row is what csv.writer writes, each float's repr
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in best.table.values.tolist())
    return trace_path, csv_path


def _write_outputs(report: RunReport, best: BestFeatureSet, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    export_trace(best, out_dir)

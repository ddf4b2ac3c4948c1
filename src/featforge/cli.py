"""Command-line interface.

Subcommands: run (full reinforced search), baseline (--method rdg), cluster
(print feature groups as JSON), evaluate (score a dataset's raw features),
trace (print / verify a run's provenance records).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from featforge.agents import AgentConfig
from featforge.data_core import DataError, Task, load_csv, make_split
from featforge.evaluator import ModelSpec, evaluate_predictions, predict_test_side
from featforge.generation import GenerationConfig
from featforge.grouping import m_cluster
from featforge.operators import evaluate_expr
from featforge.pipeline import ClusterConfig, PipelineConfig, run_grfg, run_rdg_baseline
from featforge.state_rep import EncoderConfig

TASK_ALIASES = {
    "cls": Task.CLASSIFICATION,
    "reg": Task.REGRESSION,
    "outlier": Task.OUTLIER_DETECTION,
}
AGENT_ALIASES = {"dqn": "dqn", "ddqn": "ddqn_dueling", "ac": "actor_critic"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_value(raw: str):
    low = raw.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            pass
    return low


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"bad config line: {line!r}")
            key, raw = line.split("=", 1)
            values[key.strip()] = _parse_value(raw)
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="featforge")
    sub = parser.add_subparsers(dest="command")

    def add_data_flags(p, need_out=False):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--target", required=True, help="target column name")
        p.add_argument("--task", required=True, choices=sorted(TASK_ALIASES))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file")
        if need_out:
            p.add_argument("--out", default=None, help="output directory")

    run_p = sub.add_parser("run", help="full reinforced feature generation")
    add_data_flags(run_p, need_out=True)
    # explicit flags override config-file values; None means "not given"
    run_p.add_argument("--agent", choices=sorted(AGENT_ALIASES), default=None)
    run_p.add_argument(
        "--state", choices=["ds", "ae", "gae", "ds+ae", "ds+ae+gae"], default=None
    )
    run_p.add_argument("--epochs", type=int, default=None)
    run_p.add_argument("--steps", type=int, default=None)
    run_p.add_argument("--reset-per-epoch", action="store_true")

    base_p = sub.add_parser("baseline", help="matched-budget random baseline")
    add_data_flags(base_p, need_out=True)
    base_p.add_argument("--method", choices=["rdg"], default="rdg")
    base_p.add_argument("--epochs", type=int, default=None)
    base_p.add_argument("--steps", type=int, default=None)

    cluster_p = sub.add_parser("cluster", help="print feature groups as JSON")
    add_data_flags(cluster_p)

    eval_p = sub.add_parser("evaluate", help="score the raw feature set")
    add_data_flags(eval_p)

    trace_p = sub.add_parser("trace", help="print or verify a run's trace")
    trace_p.add_argument("--run", required=True, help="run output directory")
    trace_p.add_argument("--data", default=None, help="original CSV (for --verify)")
    trace_p.add_argument("--target", default=None)
    trace_p.add_argument("--task", choices=sorted(TASK_ALIASES), default=None)
    trace_p.add_argument("--verify", action="store_true")
    return parser


def _resolve_seed(args, file_cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in file_cfg:
        return int(file_cfg["seed"])
    env = os.environ.get("FEATFORGE_SEED")
    if env is not None:
        return int(env)
    return 0


def _pipeline_config(args, file_cfg: dict) -> PipelineConfig:
    def get(key, default):
        return file_cfg.get(key, default)

    epochs = getattr(args, "epochs", None)
    if epochs is None:
        epochs = int(get("epochs", 30))
    steps = getattr(args, "steps", None)
    if steps is None:
        steps = int(get("steps", 15))
    if epochs < 1 or steps < 1:
        raise _UsageError("epochs and steps must be >= 1")
    agent_flag = getattr(args, "agent", None)
    if agent_flag is not None:
        agent_kind = AGENT_ALIASES[agent_flag]
    else:
        agent_kind = str(get("agent.kind", "dqn"))
    state_method = getattr(args, "state", None) or str(get("state.method", "ds"))
    seed = _resolve_seed(args, file_cfg)
    return PipelineConfig(
        epochs=epochs,
        steps_per_epoch=steps,
        state_method=state_method,
        encoder=EncoderConfig(
            ae_col_dim=int(get("state.ae_k", 8)),
            ae_row_dim=int(get("state.ae_d", 8)),
            gae_dim=int(get("state.gae_k", 16)),
            train_epochs=int(get("state.train_epochs", 20)),
        ),
        agent=AgentConfig(
            kind=str(agent_kind),
            gamma=float(get("agent.gamma", 0.9)),
            epsilon_start=float(get("agent.epsilon_start", 0.9)),
            epsilon_min=float(get("agent.epsilon_min", 0.05)),
            epsilon_decay=float(get("agent.epsilon_decay", 0.95)),
            entropy_beta=float(get("agent.beta", 0.01)),
            target_sync_every=int(get("agent.target_sync", 10)),
        ),
        generation=GenerationConfig(
            top_k_pairs=get("generation.top_k_pairs", "auto"),
            size_tolerance_factor=float(get("generation.size_tolerance_factor", 2.0)),
            random_unary=bool(get("ablation.random_unary", False)),
            random_binary=bool(get("ablation.random_binary", False)),
        ),
        clustering=ClusterConfig(
            stop_threshold=get("clustering.stop_threshold", "auto"),
            epsilon=float(get("clustering.epsilon", 1e-6)),
        ),
        model=ModelSpec(
            n_trees=int(get("model.n_trees", 10)),
            max_depth=int(get("model.max_depth", 8)),
            seed=seed,
        ),
        no_cluster=bool(get("ablation.no_cluster", False)),
        r1_delta=bool(get("agent.r1_delta", False)),
        euclidean_distance=bool(get("ablation.euclidean_distance", False)),
        reset_per_epoch=bool(getattr(args, "reset_per_epoch", False) or get("reset_per_epoch", False)),
        seed=seed,
        out_dir=getattr(args, "out", None),
    )


def _load(args):
    return load_csv(args.data, args.target, TASK_ALIASES[args.task])


def _cmd_run(args, file_cfg):
    cfg = _pipeline_config(args, file_cfg)
    dataset = _load(args)
    report, best = run_grfg(dataset, cfg)
    print(json.dumps({
        "method": "grfg",
        "best_score": report.best_score,
        "best_step": report.best_step,
        "final_cv_score": report.final_cv_score,
        "n_features": best.table.n_features,
        "out_dir": cfg.out_dir,
    }, indent=2))
    return 0


def _cmd_baseline(args, file_cfg):
    cfg = _pipeline_config(args, file_cfg)
    dataset = _load(args)
    report, best = run_rdg_baseline(dataset, cfg)
    print(json.dumps({
        "method": args.method,
        "best_score": report.best_score,
        "final_cv_score": report.final_cv_score,
        "n_features": best.table.n_features,
        "out_dir": cfg.out_dir,
    }, indent=2))
    return 0


def _cmd_cluster(args, file_cfg):
    dataset = _load(args)
    partition = m_cluster(
        dataset.samples,
        dataset.target,
        stop_threshold=file_cfg.get("clustering.stop_threshold", "auto"),
        epsilon=float(file_cfg.get("clustering.epsilon", 1e-6)),
    )
    groups = [
        [dataset.feature_names[i] for i in g.indices] for g in partition.groups
    ]
    print(json.dumps({"groups": groups, "threshold_used": partition.threshold_used}, indent=2))
    return 0


def _cmd_evaluate(args, file_cfg):
    dataset = _load(args)
    seed = _resolve_seed(args, file_cfg)
    split = make_split(dataset, 0.2, seed)
    pred = predict_test_side(dataset.samples, dataset.target, dataset.task, ModelSpec(seed=seed), split)
    result = evaluate_predictions(pred, dataset.target[split.test_indices], dataset.task)
    print(json.dumps({"primary_metric": result.primary_metric, "auxiliary": result.auxiliary}, indent=2))
    return 0


def _cmd_trace(args, file_cfg):
    trace_path = os.path.join(args.run, "trace.jsonl")
    if not os.path.exists(trace_path):
        raise DataError(f"no trace file at {trace_path}")
    records = []
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    if args.verify:
        if not (args.data and args.target and args.task):
            raise _UsageError("--verify requires --data, --target, and --task")
        dataset = _load(args)
        import csv as _csv

        from featforge.operators import parse_expression

        with open(os.path.join(args.run, "best_features.csv"), encoding="utf-8") as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            cols = np.array([[float(v) for v in row] for row in reader])
        worst = 0.0
        for j, rec in enumerate(records):
            expr = parse_expression(rec["expression"])
            values = evaluate_expr(expr, dataset)
            worst = max(worst, float(np.max(np.abs(values - cols[:, j]))))
        print(json.dumps({"records": records, "max_abs_deviation": worst}, indent=2))
    else:
        print(json.dumps({"records": records}, indent=2))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    file_cfg = {}
    try:
        if getattr(args, "config", None):
            file_cfg = read_config_file(args.config)
        handler = {
            "run": _cmd_run,
            "baseline": _cmd_baseline,
            "cluster": _cmd_cluster,
            "evaluate": _cmd_evaluate,
            "trace": _cmd_trace,
        }[args.command]
        return handler(args, file_cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

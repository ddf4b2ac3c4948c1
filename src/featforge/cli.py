"""Command-line interface.

Subcommands: run (full reinforced search), baseline (--method rdg), cluster
(print feature groups as JSON), evaluate (score a dataset's raw features),
trace (print / verify a run's provenance records).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from featforge.data_core import DataError, Task, load_csv, make_split
from featforge.evaluator import evaluate_predictions, fold_predictions
from featforge.grouping import m_cluster
from featforge.operators import evaluate_expr, parse_expression
from featforge.pipeline import TEST_FRACTION, PipelineConfig, run_grfg, run_rdg_baseline

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


def _integer(text: str) -> int:
    """An integer literal, or a finite real with no fractional part ("1e3", "10.0")."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _auto_or(parse):
    return lambda text: text if text == "auto" else parse(text)


# config-file key -> (section, field, parser). The section is the PipelineConfig
# field that holds the setting's dataclass, or None for PipelineConfig itself.
# Parsers only convert text; each dataclass holds its defaults and range checks.
CONFIG_KEYS = {
    "epochs": (None, "epochs", _integer),
    "steps": (None, "steps_per_epoch", _integer),
    "seed": (None, "seed", _integer),
    "state.method": (None, "state_method", str),
    "ablation.no_cluster": (None, "no_cluster", _boolean),
    "ablation.euclidean_distance": (None, "euclidean_distance", _boolean),
    "agent.r1_delta": (None, "r1_delta", _boolean),
    "reset_per_epoch": (None, "reset_per_epoch", _boolean),
    "state.ae_k": ("encoder", "ae_col_dim", _integer),
    "state.ae_d": ("encoder", "ae_row_dim", _integer),
    "state.gae_k": ("encoder", "gae_dim", _integer),
    "state.train_epochs": ("encoder", "train_epochs", _integer),
    "agent.kind": ("agent", "kind", str),
    "agent.gamma": ("agent", "gamma", float),
    "agent.epsilon_start": ("agent", "epsilon_start", float),
    "agent.epsilon_min": ("agent", "epsilon_min", float),
    "agent.epsilon_decay": ("agent", "epsilon_decay", float),
    "agent.beta": ("agent", "entropy_beta", float),
    "agent.target_sync": ("agent", "target_sync_every", _integer),
    "generation.top_k_pairs": ("generation", "top_k_pairs", _auto_or(_integer)),
    "generation.size_tolerance_factor": ("generation", "size_tolerance_factor", float),
    "ablation.random_unary": ("generation", "random_unary", _boolean),
    "ablation.random_binary": ("generation", "random_binary", _boolean),
    "clustering.stop_threshold": ("clustering", "stop_threshold", _auto_or(float)),
    "clustering.epsilon": ("clustering", "epsilon", float),
    "model.n_trees": ("model", "n_trees", _integer),
    "model.max_depth": ("model", "max_depth", _integer),
}
# each section's dataclass, which is its field's default factory
_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig) if f.default_factory is not MISSING}


def _parse(key: str, text: str):
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return CONFIG_KEYS[key][2](text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment. Returns each key's parsed value."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            values[key] = _parse(key, text)
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


def _config(args) -> PipelineConfig:
    """The command's settings: the --config file's keys, FEATFORGE_SEED when no
    seed is given, explicit flags over both and dataclass defaults for the rest.

    Any bad value is a usage error.
    """
    try:
        values = read_config_file(args.config) if args.config else {}
        flags = {
            "epochs": getattr(args, "epochs", None),
            "steps": getattr(args, "steps", None),
            "seed": args.seed,
            "agent.kind": AGENT_ALIASES.get(getattr(args, "agent", None)),
            "state.method": getattr(args, "state", None),
            "reset_per_epoch": getattr(args, "reset_per_epoch", False) or None,
        }
        values.update((key, value) for key, value in flags.items() if value is not None)
        if "seed" not in values and "FEATFORGE_SEED" in os.environ:
            values["seed"] = _parse("seed", os.environ["FEATFORGE_SEED"])
        top, sections = {}, {name: {} for name in _SECTIONS}
        for key, value in values.items():
            section, name, _ = CONFIG_KEYS[key]
            (sections[section] if section else top)[name] = value
        return PipelineConfig(
            **top,
            **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()},
            out_dir=getattr(args, "out", None),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load(args):
    return load_csv(args.data, args.target, TASK_ALIASES[args.task])


def _cmd_run(args):
    cfg = _config(args)
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


def _cmd_baseline(args):
    cfg = _config(args)
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


def _cmd_cluster(args):
    cfg = _config(args)
    dataset = _load(args)
    partition = m_cluster(dataset.samples, dataset.target, **cfg.cluster_kwargs())
    groups = [
        [dataset.feature_names[i] for i in g.indices] for g in partition.groups
    ]
    print(json.dumps({"groups": groups, "threshold_used": partition.threshold_used}, indent=2))
    return 0


def _cmd_evaluate(args):
    cfg = _config(args)
    dataset = _load(args)
    split = make_split(dataset, TEST_FRACTION, cfg.seed)
    fold = (split.train_indices, split.test_indices)
    pred = fold_predictions(dataset.samples, dataset.target, dataset.task, cfg.model, [fold])[0]
    print(json.dumps(evaluate_predictions(pred, dataset.target[split.test_indices], dataset.task), indent=2))
    return 0


def _cmd_trace(args):
    trace_path = os.path.join(args.run, "trace.jsonl")
    if not os.path.exists(trace_path):
        raise DataError(f"no trace file at {trace_path}")
    try:
        with open(trace_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except json.JSONDecodeError as exc:
        raise DataError(f"{trace_path}: {exc.doc.strip()!r} is not JSON ({exc.msg})") from exc
    if args.verify:
        if not (args.data and args.target and args.task):
            raise _UsageError("--verify requires --data, --target, and --task")
        dataset = _load(args)
        csv_path = os.path.join(args.run, "best_features.csv")
        with open(csv_path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no header row
            try:
                cols = np.array([[float(v) for v in row] for row in reader])
            except ValueError as exc:
                raise DataError(f"{csv_path}: {exc}") from exc
        if len(cols) != dataset.n_rows or len(header) < len(records):
            want = f"--data has {dataset.n_rows} rows, the trace {len(records)} records"
            raise DataError(f"{csv_path} is {len(cols)} rows x {len(header)} columns; {want}")
        worst = 0.0
        for j, rec in enumerate(records):
            try:
                expr = parse_expression(rec["expression"])
            except ValueError as exc:
                raise DataError(f"{trace_path}: {exc}") from exc
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
    try:
        handler = {
            "run": _cmd_run,
            "baseline": _cmd_baseline,
            "cluster": _cmd_cluster,
            "evaluate": _cmd_evaluate,
            "trace": _cmd_trace,
        }[args.command]
        return handler(args)
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

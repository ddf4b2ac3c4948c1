"""Output checks and holdout scoring of one search's output directory.

A search writes ``trace.jsonl`` (one expression per kept feature),
``best_features.csv`` (the values of those features on the search rows) and
``report.json``. The expressions are replayed with ``operators`` on the
search rows, where they must give ``best_features.csv`` exactly, and on the
holdout rows, which the program never saw.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from featforge.data_core import SplitPlan, Task
from featforge.evaluator import ModelSpec, downstream_performance
from featforge.operators import evaluate_expr, parse_expression


def read_trace(out_dir: Path) -> list[dict]:
    with open(out_dir / "trace.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay(trace: list[dict], names: list[str], x: np.ndarray) -> np.ndarray:
    """Columns of the traced feature set, recomputed from the raw columns ``x``."""
    original = SimpleNamespace(samples=x, feature_names=tuple(names))
    return np.column_stack(
        [evaluate_expr(parse_expression(rec["expression"]), original) for rec in trace]
    )


def replay_problem(out_dir: Path, names: list[str], search_x: np.ndarray) -> str | None:
    """Why the replay disagrees with ``best_features.csv``, or None if it agrees."""
    trace = read_trace(out_dir)
    with open(out_dir / "best_features.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        written = np.array([[float(v) for v in row] for row in reader if row])
    if header != [rec["name"] for rec in trace]:
        return "best_features.csv header differs from trace.jsonl"
    replayed = replay(trace, names, search_x)
    if replayed.shape != written.shape:
        return f"replay shape {replayed.shape} != best_features.csv {written.shape}"
    if not np.array_equal(replayed, written):
        worst = float(np.max(np.abs(replayed - written)))
        return f"replay differs from best_features.csv (max abs diff {worst:.3g})"
    return None


def report_hash(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()


def holdout_score(out_dir: Path, task: str, g) -> float:
    """Task metric of the replayed best feature set, fit on search rows, on holdout rows."""
    trace = read_trace(out_dir)
    n_search, n_holdout = len(g.search_y), len(g.holdout_y)
    features = np.vstack([replay(trace, g.names, g.search_x), replay(trace, g.names, g.holdout_x)])
    split = SplitPlan(
        train_indices=np.arange(n_search),
        test_indices=np.arange(n_search, n_search + n_holdout),
        seed=0,
    )
    target = np.concatenate([g.search_y, g.holdout_y])
    return downstream_performance(features, target, Task(task), ModelSpec(), split)

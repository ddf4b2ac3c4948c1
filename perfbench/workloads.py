"""Seeded workloads: the data generators and the search settings of each.

Every workload draws search rows and holdout rows from one generator. The
seed drives the draw and the split, so one seed always gives the same two
sets. Only the search rows are written to the CSV that featforge reads; the
holdout rows stay in the benchmark and score the replayed best feature set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

TARGET = "y"


@dataclass(frozen=True)
class Workload:
    name: str
    task: str            # featforge.data_core.Task value
    n_search: int
    n_holdout: int
    agent: str           # featforge.agents.AgentConfig.kind
    state: str           # featforge.state_rep.StateEncoder method
    steps_per_epoch: int  # of the one epoch a search runs
    draws: int           # independent datasets per run; their scores and costs are averaged
    rows: Callable[[np.random.Generator, int], tuple[list[str], np.ndarray, np.ndarray]]


def _reg_rows(rng, m):
    # the acceptance-fixture shape: y depends on one product of two columns
    x = rng.normal(size=(m, 5))
    y = x[:, 0] * x[:, 1] + 0.05 * rng.normal(size=m)
    return [f"f{i + 1}" for i in range(5)], x, y


CLS_BLOCKS = 8
CLS_BLOCK_WIDTH = 5


def _cls_rows(rng, m):
    # 8 latent factors, each seen through a block of 5 noisy copies, so
    # M-Clustering has correlated blocks to merge into multi-member groups
    z = rng.normal(size=(m, CLS_BLOCKS))
    x = np.repeat(z, CLS_BLOCK_WIDTH, axis=1) + 0.5 * rng.normal(
        size=(m, CLS_BLOCKS * CLS_BLOCK_WIDTH)
    )
    score = z[:, 0] * z[:, 1] + 0.7 * z[:, 2]
    y = np.digitize(score, (-0.45, 0.45)).astype(float)
    names = [f"b{k}_{j}" for k in range(CLS_BLOCKS) for j in range(CLS_BLOCK_WIDTH)]
    return names, x, y


OUTLIER_RATE = 0.05


def _outlier_rows(rng, m):
    # anomalies flip the sign of the a0-a1 correlation; every column keeps a
    # standard normal marginal, so only the pair of columns reveals them
    x = rng.normal(size=(m, 8))
    anomal = rng.random(m) < OUTLIER_RATE
    sign = np.where(anomal, -1.0, 1.0)
    x[:, 1] = sign * 0.9 * x[:, 0] + np.sqrt(1 - 0.81) * x[:, 1]
    return [f"a{i}" for i in range(8)], x, anomal.astype(float)


# Why each workload exists is recorded in BENCHMARK.json. In short: the RF
# dominates reg_fixture, MI and M-Clustering dominate cls_wide, and
# outlier_ae never touches the RF while its neural state encoders do real work.
# Which features a search finds, and so what a search costs, varies from one
# draw of rows to the next, so a run averages several draws where a search is
# cheap: as many as fit twice into a 40 s run.
# Twelve steps let the agents' replay memory (batch 8) fill and update, ten
# on outlier_ae, whose steps cost more; cls_wide's three steps are its cost
# limit, so its agents never update.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reg_fixture", "regression", 500, 2000, "dqn", "ds", 12, 3, _reg_rows),
        Workload("cls_wide", "classification", 500, 2000, "dqn", "ds", 3, 2, _cls_rows),
        Workload(
            "outlier_ae", "outlier_detection", 2000, 4000, "ddqn_dueling", "ds+ae+gae",
            10, 3, _outlier_rows,
        ),
    )
}


@dataclass(frozen=True)
class Generated:
    names: list[str]
    search_x: np.ndarray
    search_y: np.ndarray
    holdout_x: np.ndarray
    holdout_y: np.ndarray


def generate(w: Workload, seed: int, draw: int = 0) -> Generated:
    """Draw all rows of one draw from ``seed`` and split them into search and holdout rows."""
    rng = np.random.default_rng([seed, draw, sum(map(ord, w.name))])
    m = w.n_search + w.n_holdout
    names, x, y = w.rows(rng, m)
    order = rng.permutation(m)
    s, h = order[: w.n_search], order[w.n_search :]
    return Generated(names, x[s], y[s], x[h], y[h])


def write_search_csv(g: Generated, path: str) -> None:
    """Write only the search rows; floats are written with ``repr`` so they round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(g.names + [TARGET])
        for row, t in zip(g.search_x, g.search_y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(t))])


def read_rows(path: str) -> set[tuple[float, ...]]:
    """Every data row of a CSV as a tuple of floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {tuple(float(v) for v in row) for row in reader if row}


def holdout_leaks(g: Generated, csv_path: str) -> int:
    """Number of holdout rows that also appear in the search CSV."""
    written = read_rows(csv_path)
    holdout = np.column_stack([g.holdout_x, g.holdout_y])
    return sum(tuple(float(v) for v in row) in written for row in holdout)

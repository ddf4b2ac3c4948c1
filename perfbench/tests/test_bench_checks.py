"""The benchmark's own correctness checks: holdout isolation, replay, report hash.

Run with: python3 -m pytest perfbench/tests
"""

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_search_csv_holds_no_holdout_row(name, tmp_path):
    w = workloads.WORKLOADS[name]
    g = workloads.generate(w, seed=3)
    assert g.search_x.shape == (w.n_search, len(g.names))
    assert g.holdout_x.shape == (w.n_holdout, len(g.names))
    path = tmp_path / "search.csv"
    workloads.write_search_csv(g, str(path))
    assert len(workloads.read_rows(str(path))) == w.n_search
    assert workloads.holdout_leaks(g, str(path)) == 0


def test_leak_check_sees_a_holdout_row(tmp_path):
    g = workloads.generate(workloads.WORKLOADS["reg_fixture"], seed=3)
    leaky = replace(
        g,
        search_x=np.vstack([g.search_x, g.holdout_x[:1]]),
        search_y=np.append(g.search_y, g.holdout_y[0]),
    )
    path = tmp_path / "search.csv"
    workloads.write_search_csv(leaky, str(path))
    assert workloads.holdout_leaks(g, str(path)) == 1


def test_same_seed_same_rows_other_seed_or_draw_other_rows():
    w = workloads.WORKLOADS["cls_wide"]
    a, b = workloads.generate(w, 5), workloads.generate(w, 5)
    assert np.array_equal(a.search_x, b.search_x) and np.array_equal(a.holdout_y, b.holdout_y)
    assert not np.array_equal(a.search_x, workloads.generate(w, 6).search_x)
    assert not np.array_equal(a.search_x, workloads.generate(w, 5, draw=1).search_x)
    assert set(np.unique(a.search_y)) == {0.0, 1.0, 2.0}


def _write_search_output(out: Path, names, x, exprs, values):
    out.mkdir()
    with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
        for e in exprs:
            fh.write(json.dumps({"name": e, "expression": e}) + "\n")
    with open(out / "best_features.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(exprs)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
    (out / "report.json").write_text('{"best_score": 0.5}')


@pytest.fixture
def search_output(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    names = ["f1", "f2", "f3"]
    exprs = ["f3", "(f1*f2)", "sqrt(f1)"]
    values = np.column_stack([x[:, 2], x[:, 0] * x[:, 1], np.sqrt(np.abs(x[:, 0]))])
    return tmp_path, names, x, exprs, values


def test_replay_matches_best_features(search_output):
    tmp, names, x, exprs, values = search_output
    _write_search_output(tmp / "ok", names, x, exprs, values)
    assert checks.replay_problem(tmp / "ok", names, x) is None


def test_replay_flags_a_changed_value(search_output):
    tmp, names, x, exprs, values = search_output
    values = values.copy()
    values[4, 1] = np.nextafter(values[4, 1], np.inf)
    _write_search_output(tmp / "bad", names, x, exprs, values)
    assert "differs" in checks.replay_problem(tmp / "bad", names, x)


def test_replay_flags_a_renamed_column(search_output):
    tmp, names, x, exprs, values = search_output
    _write_search_output(tmp / "bad", names, x, exprs, values)
    lines = (tmp / "bad" / "best_features.csv").read_text().splitlines()
    lines[0] = lines[0].replace("f3", "f2", 1)
    (tmp / "bad" / "best_features.csv").write_text("\n".join(lines) + "\n")
    assert "header" in checks.replay_problem(tmp / "bad", names, x)


def test_report_hash_tracks_content(search_output):
    tmp, names, x, exprs, values = search_output
    _write_search_output(tmp / "a", names, x, exprs, values)
    _write_search_output(tmp / "b", names, x, exprs, values)
    assert checks.report_hash(tmp / "a") == checks.report_hash(tmp / "b")
    (tmp / "b" / "report.json").write_text('{"best_score": 0.6}')
    assert checks.report_hash(tmp / "a") != checks.report_hash(tmp / "b")

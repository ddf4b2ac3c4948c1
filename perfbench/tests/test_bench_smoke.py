"""Tiny-budget runs of every workload through the benchmark's entry point.

Each workload is cut to one search step. Each run makes at least two searches
of one draw, so the replay check, the report-hash check and (in the traced
run) the layer split all run. Takes about a minute.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def one_step(monkeypatch):
    """Every workload cut to one step; the thread settings run.main makes are undone after."""
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, replace(w, steps_per_epoch=1))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _result(capsys, *args):
    assert run.main(["--seed", "7", "--seconds", "1", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end_and_traced(name, one_step, capsys):
    plain = _result(capsys, "--workload", name, "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0

    traced = _result(capsys, "--workload", name, "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 4
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    uses_rf = name != "outlier_ae"
    assert (layer["evaluator.fit_calls"] > 0) == uses_rf
    assert (layer["evaluator.knn_s"] > 0) == (not uses_rf)
    assert layer["pipeline.search_s"] >= layer["pipeline.self_s"] > 0


def test_all_workloads_in_one_command(one_step, capsys):
    result = _result(capsys)
    assert result["correct"]
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            assert f"{w['name']}.{m['name']}" in result["metrics"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"]],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()

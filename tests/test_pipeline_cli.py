import json
import os

import numpy as np
import pytest

from featforge.agents import AgentConfig
from featforge.cli import cli_main
from featforge.data_core import Dataset, Task, load_csv, make_split, save_csv
from featforge.evaluator import ModelSpec, downstream_performance
from featforge.operators import evaluate_expr, parse_expression
from featforge.pipeline import (
    BestFeatureSet,
    PipelineConfig,
    export_trace,
    run_grfg,
    run_rdg_baseline,
)


def small_dataset(seed=0, m=60, task=Task.REGRESSION):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 4))
    if task is Task.CLASSIFICATION:
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
    elif task is Task.OUTLIER_DETECTION:
        y = np.zeros(m)
        y[rng.choice(m, size=max(2, m // 10), replace=False)] = 1.0
    else:
        y = X[:, 0] * X[:, 1] + 0.05 * rng.normal(size=m)
    return Dataset(
        samples=X,
        feature_names=("f1", "f2", "f3", "f4"),
        target=y,
        task=task,
    )


def tiny_config(**overrides):
    defaults = dict(epochs=1, steps_per_epoch=2, seed=0)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunGrfg:
    def test_single_step_record(self):
        report, _ = run_grfg(small_dataset(), tiny_config(steps_per_epoch=1))
        assert len(report.steps) == 1

    def test_budget_accounting(self):
        report, _ = run_grfg(small_dataset(), tiny_config(epochs=2, steps_per_epoch=3))
        assert len(report.steps) == 6

    def test_determinism(self):
        cfg = tiny_config(epochs=2, steps_per_epoch=3, seed=5)
        a, _ = run_grfg(small_dataset(), cfg)
        b, _ = run_grfg(small_dataset(), cfg)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_best_score_consistency(self):
        report, best = run_grfg(small_dataset(), tiny_config(epochs=2, steps_per_epoch=4))
        step_best = max(r["V_A"] for r in report.steps)
        assert abs(report.best_score - max(report.baseline_score, step_best)) < 1e-12
        assert best.score == report.best_score

    def test_size_control_invariant(self):
        report, _ = run_grfg(small_dataset(), tiny_config(epochs=3, steps_per_epoch=4))
        for rec in report.steps:
            assert rec["feature_count"] <= 2 * 4

    def test_reward_wiring_in_records(self):
        report, _ = run_grfg(small_dataset(), tiny_config(epochs=2, steps_per_epoch=2))
        for rec in report.steps:
            assert abs(rec["r1"] - rec["U_before"]) < 1e-12
            assert abs(rec["r_op"] - (rec["U_after"] - rec["U_before"])) < 1e-12
            assert abs(rec["r2"] - (rec["r_op"] + rec["V_A"])) < 1e-12

    def test_traceability_roundtrip(self):
        d = small_dataset()
        _, best = run_grfg(d, tiny_config(epochs=2, steps_per_epoch=4))
        for i, expr in enumerate(best.table.exprs):
            values = evaluate_expr(expr, d)
            assert np.max(np.abs(values - best.table.values[:, i])) < 1e-9

    @pytest.mark.parametrize("kind", ["dqn", "ddqn_dueling", "actor_critic"])
    def test_agent_kinds(self, kind):
        cfg = tiny_config(agent=AgentConfig(kind=kind))
        report, _ = run_grfg(small_dataset(), cfg)
        assert len(report.steps) == 2

    @pytest.mark.parametrize("method", ["ds", "ae", "gae", "ds+ae+gae"])
    def test_state_methods(self, method):
        report, _ = run_grfg(small_dataset(), tiny_config(state_method=method))
        assert len(report.steps) == 2

    @pytest.mark.parametrize("task", [Task.CLASSIFICATION, Task.OUTLIER_DETECTION])
    def test_other_tasks(self, task):
        report, _ = run_grfg(small_dataset(task=task), tiny_config())
        assert len(report.steps) == 2

    def test_ablation_flags(self):
        from featforge.generation import GenerationConfig

        for kwargs in (
            dict(no_cluster=True),
            dict(euclidean_distance=True),
            dict(generation=GenerationConfig(random_unary=True, random_binary=True)),
            dict(reset_per_epoch=True, epochs=2),
            dict(r1_delta=True),
        ):
            report, _ = run_grfg(small_dataset(), tiny_config(**kwargs))
            assert report.steps

    def test_final_cv_score_present(self):
        report, _ = run_grfg(small_dataset(), tiny_config())
        assert report.final_cv_score is not None
        assert np.isfinite(report.final_cv_score)


class TestRunRdg:
    def test_schema_matches_grfg(self):
        g, _ = run_grfg(small_dataset(), tiny_config())
        r, _ = run_rdg_baseline(small_dataset(), tiny_config())
        assert set(g.steps[0].keys()) == set(r.steps[0].keys())
        assert r.method == "rdg"

    def test_determinism(self):
        a, _ = run_rdg_baseline(small_dataset(), tiny_config(seed=3))
        b, _ = run_rdg_baseline(small_dataset(), tiny_config(seed=3))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_size_control_invariant(self):
        report, _ = run_rdg_baseline(small_dataset(), tiny_config(epochs=3, steps_per_epoch=5))
        for rec in report.steps:
            assert rec["feature_count"] <= 8


class TestExportTrace:
    def test_trace_and_csv(self, tmp_path):
        d = small_dataset()
        _, best = run_grfg(d, tiny_config(epochs=2, steps_per_epoch=3))
        trace_path, csv_path = export_trace(best, str(tmp_path))
        records = [json.loads(line) for line in open(trace_path, encoding="utf-8")]
        assert len(records) == best.table.n_features
        # any surviving original feature must be recorded as a depth-0 leaf
        for r in records:
            if r["name"] in ("f1", "f2", "f3", "f4"):
                assert r["depth"] == 0
        # CSV headers are expression strings and values round-trip
        import csv as _csv

        with open(csv_path, encoding="utf-8") as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            cols = np.array([[float(v) for v in row] for row in reader])
        assert tuple(header) == best.table.names
        for j, name in enumerate(header):
            values = evaluate_expr(parse_expression(name), d)
            assert np.max(np.abs(values - cols[:, j])) < 1e-9


    def test_raw_table_exports_as_leaves(self, tmp_path):
        from featforge.generation import FeatureTable

        d = small_dataset()
        best = BestFeatureSet(table=FeatureTable.from_dataset(d), score=0.0, step=-1)
        trace_path, _ = export_trace(best, str(tmp_path / "raw"))
        records = [json.loads(line) for line in open(trace_path, encoding="utf-8")]
        assert [r["name"] for r in records] == ["f1", "f2", "f3", "f4"]
        assert all(r["depth"] == 0 for r in records)


def write_dataset_csv(tmp_path, task=Task.REGRESSION, seed=0):
    d = small_dataset(seed=seed, task=task)
    path = str(tmp_path / "data.csv")
    save_csv(d, path, target_column="y")
    return path, d


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path)
        out = str(tmp_path / "run")
        code = cli_main(
            [
                "run", "--data", path, "--target", "y", "--task", "reg",
                "--agent", "dqn", "--epochs", "1", "--steps", "2",
                "--seed", "7", "--out", out,
            ]
        )
        assert code == 0
        for name in ("report.json", "trace.jsonl", "best_features.csv"):
            assert os.path.exists(os.path.join(out, name))
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "grfg"

    def test_baseline_subcommand(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path)
        code = cli_main(
            [
                "baseline", "--data", path, "--target", "y", "--task", "reg",
                "--epochs", "1", "--steps", "2", "--seed", "0",
                "--out", str(tmp_path / "rdg"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["method"] == "rdg"

    def test_cluster_subcommand(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path)
        code = cli_main(["cluster", "--data", path, "--target", "y", "--task", "reg"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = sorted(n for g in payload["groups"] for n in g)
        assert names == ["f1", "f2", "f3", "f4"]

    def test_evaluate_subcommand(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path, task=Task.CLASSIFICATION)
        code = cli_main(["evaluate", "--data", path, "--target", "y", "--task", "cls"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["primary_metric"] <= 1.0

    def test_evaluate_matches_downstream_performance(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path, task=Task.CLASSIFICATION, seed=4)
        code = cli_main(["evaluate", "--data", path, "--target", "y", "--task", "cls", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        d = load_csv(path, "y", Task.CLASSIFICATION)
        split = make_split(d, 0.2, 3)
        expected = downstream_performance(d.samples, d.target, d.task, ModelSpec(seed=3), split)
        assert payload["primary_metric"] == expected

    def test_trace_verify(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path)
        out = str(tmp_path / "run")
        assert cli_main(
            [
                "run", "--data", path, "--target", "y", "--task", "reg",
                "--epochs", "1", "--steps", "2", "--seed", "0", "--out", out,
            ]
        ) == 0
        capsys.readouterr()
        code = cli_main(
            [
                "trace", "--run", out, "--verify",
                "--data", path, "--target", "y", "--task", "reg",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_deviation"] < 1e-9

    def test_missing_target_usage_error(self, tmp_path):
        path, _ = write_dataset_csv(tmp_path)
        assert cli_main(["run", "--data", path, "--task", "reg"]) == 1

    def test_zero_epochs_usage_error(self, tmp_path):
        path, _ = write_dataset_csv(tmp_path)
        assert cli_main(
            ["run", "--data", path, "--target", "y", "--task", "reg", "--epochs", "0"]
        ) == 1

    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_file_data_error(self):
        assert cli_main(
            ["evaluate", "--data", "/nope/missing.csv", "--target", "y", "--task", "reg"]
        ) == 2

    def test_config_file_and_env_seed(self, tmp_path, monkeypatch, capsys):
        path, _ = write_dataset_csv(tmp_path)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("epochs=1  # tiny\nsteps=2\nagent.kind=actor_critic\n")
        monkeypatch.setenv("FEATFORGE_SEED", "9")
        code = cli_main(
            [
                "run", "--data", path, "--target", "y", "--task", "reg",
                "--config", str(cfg_path), "--out", str(tmp_path / "c"),
            ]
        )
        assert code == 0
        report = json.load(open(tmp_path / "c" / "report.json", encoding="utf-8"))
        assert report["config_seed"] == 9
        assert len(report["steps"]) == 2

    def test_bad_config_line(self, tmp_path):
        path, _ = write_dataset_csv(tmp_path)
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text("this is not a key value pair\n")
        assert cli_main(
            [
                "run", "--data", path, "--target", "y", "--task", "reg",
                "--config", str(cfg_path),
            ]
        ) == 1

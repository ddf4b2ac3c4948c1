import json
import os
from dataclasses import replace
from operator import attrgetter

import evaluator_reference
import numpy as np
import pipeline_reference
import pytest
from csv_writer import save_csv

from featforge import cli, evaluator
from featforge.agents import AgentConfig
from featforge.cli import cli_main
from featforge.data_core import Dataset, Task, load_csv, make_folds, make_split
from featforge.evaluator import ModelSpec, downstream_performance, evaluate_predictions
from featforge.generation import FeatureTable, GenerationConfig
from featforge.grouping import m_cluster
from featforge.operators import evaluate_expr, parse_expression
from featforge.pipeline import (
    BestFeatureSet,
    PipelineConfig,
    RunReport,
    _finish_report,
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


class TestPipelineConfig:
    @pytest.mark.parametrize("kwargs", [dict(seed=-1), dict(state_method="foo")])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


    def test_seed_drives_the_model(self):
        cfg = PipelineConfig(seed=5, model=ModelSpec(n_trees=3, seed=0))
        assert cfg.model == ModelSpec(n_trees=3, seed=5)
        assert replace(cfg, seed=7).model == ModelSpec(n_trees=3, seed=7)


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

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        """The joined rows are the bytes that ``csv.writer`` writes, quoted names included."""
        import csv as _csv
        import io

        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-300, 300, size=(30, 4))
        values[0] = [-0.0, 5e-324, 1.0, -1.7976931348623157e308]
        d = Dataset(samples=values, feature_names=("a,b", 'say "hi"', "f3", "f 4"), target=np.zeros(30), task=Task.REGRESSION)
        best = BestFeatureSet(table=FeatureTable.from_dataset(d), score=0.0, step=-1)
        _, csv_path = export_trace(best, str(tmp_path))
        expected = io.StringIO(newline="")
        writer = _csv.writer(expected)
        writer.writerow(best.table.names)
        writer.writerows(values.tolist())
        with open(csv_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == expected.getvalue()


def write_dataset_csv(tmp_path, task=Task.REGRESSION, seed=0):
    d = small_dataset(seed=seed, task=task)
    path = str(tmp_path / "data.csv")
    save_csv(d, path, target_column="y")
    return path, d


def write_one_anomaly_csv(tmp_path):
    """20 rows whose one anomaly, row 0, is on the train side of seed 0's evaluate and search splits."""
    rng = np.random.default_rng(0)
    y = np.zeros(20)
    y[0] = 1.0
    d = Dataset(rng.normal(size=(20, 3)), ("a1", "a2", "a3"), y, Task.OUTLIER_DETECTION)
    path = str(tmp_path / "one_anomaly.csv")
    save_csv(d, path, target_column="y")
    return path


class TestCli:
    @pytest.mark.parametrize("command", ["evaluate", "run", "baseline"])
    def test_one_anomaly_outlier_data_error(self, tmp_path, capsys, command):
        """A scored side with no anomaly has no ROC-AUC: a data error that says so, not a traceback."""
        path = write_one_anomaly_csv(tmp_path)
        budget = [] if command == "evaluate" else ["--epochs", "1", "--steps", "1"]
        code = cli_main([command, "--data", path, "--target", "y", "--task", "outlier", "--seed", "0", *budget])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: AUC undefined for single-class truth")

    def test_library_and_cli_runs_match(self, tmp_path, capsys):
        """The run's seed drives the model in both, so they grow the same forests and write the same files."""
        path, _ = write_dataset_csv(tmp_path)
        lib, cmd = tmp_path / "lib", tmp_path / "cli"
        cfg = PipelineConfig(epochs=1, steps_per_epoch=3, seed=3, out_dir=str(lib))
        run_grfg(load_csv(path, "y", Task.REGRESSION), cfg)
        argv = ["--data", path, "--target", "y", "--task", "reg", "--epochs", "1", "--steps", "3", "--seed", "3"]
        assert cli_main(["run", *argv, "--out", str(cmd)]) == 0
        for name in ("report.json", "trace.jsonl", "best_features.csv"):
            assert (lib / name).read_bytes() == (cmd / name).read_bytes()

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

    def test_cluster_subcommand_honours_euclidean_ablation(self, tmp_path, capsys):
        path, d = write_dataset_csv(tmp_path)
        printed = {}
        for metric, flag in (("relevance_redundancy", "false"), ("euclidean", "true")):
            cfg_path = tmp_path / f"{metric}.cfg"
            cfg_path.write_text(f"ablation.euclidean_distance = {flag}\n")
            code = cli_main(["cluster", "--data", path, "--target", "y", "--task", "reg", "--config", str(cfg_path)])
            assert code == 0
            printed[metric] = json.loads(capsys.readouterr().out)
            partition = m_cluster(d.samples, d.target, metric=metric)
            assert printed[metric] == {
                "groups": [[d.feature_names[i] for i in g.indices] for g in partition.groups],
                "threshold_used": partition.threshold_used,
            }
        assert printed["euclidean"] != printed["relevance_redundancy"]

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

    def test_evaluate_reads_model_keys(self, tmp_path, capsys):
        """``model.*`` keys reach the scoring model, as the slice-then-fit scorer with that spec scores."""
        path, _ = write_dataset_csv(tmp_path, task=Task.CLASSIFICATION, seed=4)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("model.n_trees=1\n")
        argv = ["evaluate", "--data", path, "--target", "y", "--task", "cls", "--seed", "3"]
        assert cli_main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert cli_main([*argv, "--config", str(cfg_path)]) == 0
        one_tree = json.loads(capsys.readouterr().out)
        d = load_csv(path, "y", Task.CLASSIFICATION)
        split = make_split(d, 0.2, 3)
        pred = evaluator_reference.predict_test_side(d.samples, d.target, d.task, ModelSpec(n_trees=1, seed=3), split)
        expected = evaluate_predictions(pred, d.target[split.test_indices], d.task)
        assert one_tree == json.loads(json.dumps(expected))
        assert one_tree != default

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

    @staticmethod
    def raw_trace(tmp_path):
        """A run directory holding the raw four-column table's trace; returns (data path, run dir, verify argv)."""
        path, d = write_dataset_csv(tmp_path)
        out = str(tmp_path / "run")
        export_trace(BestFeatureSet(table=FeatureTable.from_dataset(d), score=0.0, step=-1), out)
        argv = ["trace", "--run", out, "--verify", "--data", path, "--target", "y", "--task", "reg"]
        assert cli_main(argv) == 0
        return path, out, argv

    def test_trace_verify_row_count_mismatch_data_error(self, tmp_path, capsys):
        _, _, argv = self.raw_trace(tmp_path)
        short = str(tmp_path / "short.csv")
        save_csv(small_dataset(m=50), short, target_column="y")
        capsys.readouterr()
        assert cli_main([*argv[:5], short, *argv[6:]]) == 2
        assert "is 60 rows x 4 columns; --data has 50 rows" in capsys.readouterr().err

    def test_trace_malformed_line_data_error(self, tmp_path, capsys):
        _, out, argv = self.raw_trace(tmp_path)
        with open(os.path.join(out, "trace.jsonl"), "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        capsys.readouterr()
        assert cli_main(argv[:3]) == 2
        assert "'{not json' is not JSON" in capsys.readouterr().err

    def test_trace_verify_empty_csv_data_error(self, tmp_path, capsys):
        _, out, argv = self.raw_trace(tmp_path)
        open(os.path.join(out, "best_features.csv"), "w").close()
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "is 0 rows x 0 columns; --data has 60 rows" in capsys.readouterr().err

    def test_trace_verify_too_few_columns_data_error(self, tmp_path, capsys):
        _, out, argv = self.raw_trace(tmp_path)
        csv_path = os.path.join(out, "best_features.csv")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            lines = [",".join(line.split(",")[:2]) for line in fh.read().splitlines()]
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "is 60 rows x 2 columns; --data has 60 rows, the trace 4 records" in capsys.readouterr().err

    def test_trace_verify_non_numeric_cell_data_error(self, tmp_path, capsys):
        _, out, argv = self.raw_trace(tmp_path)
        csv_path = os.path.join(out, "best_features.csv")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        lines[3] = "abc," + lines[3].split(",", 1)[1]
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert f"{csv_path}: could not convert string to float: 'abc'" in capsys.readouterr().err

    def test_trace_verify_unparsable_expression_data_error(self, tmp_path, capsys):
        _, out, argv = self.raw_trace(tmp_path)
        trace_path = os.path.join(out, "trace.jsonl")
        with open(trace_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        records[1]["expression"] = "(f1 +"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert f"{trace_path}: unbalanced parentheses in '(f1 +'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command, config_text, env_seed",
        [
            ("run", "epochs=abc\n", None),
            ("run", "epochs=1\nsteps=1\n", "x"),
            ("run", "epochs=1\nsteps=1\nmodel.n_trees=0\n", None),
            ("run", "epochs=1\nsteps=1\nagent.kind=sarsa\n", None),
            ("cluster", "clustering.epsilon=abc\n", None),
            ("cluster", "clustering.epsilon=0\n", None),
            # an infinite epsilon makes every group distance 0
            ("run", "epochs=1\nsteps=1\nclustering.epsilon=inf\n", None),
            ("baseline", "epochs=1\nsteps=1\nclustering.epsilon=inf\n", None),
            ("cluster", "clustering.epsilon=inf\n", None),
            ("run", "epochs=1\nsteps=1\nclustering.stop_threshold=abc\n", None),
            ("cluster", "clustering.stop_threshold=abc\n", None),
            # a stop threshold must be finite
            ("run", "epochs=1\nsteps=1\nclustering.stop_threshold=nan\n", None),
            ("baseline", "epochs=1\nsteps=1\nclustering.stop_threshold=inf\n", None),
            ("cluster", "clustering.stop_threshold=nan\n", None),
            ("cluster", "clustering.stop_threshold=inf\n", None),
            ("cluster", "clustering.stop_threshold=-inf\n", None),
            # a boolean key takes only true or false
            ("run", "epochs=1\nsteps=1\nablation.random_unary=yes\n", None),
            ("run", "epochs=1\nsteps=1\nablation.random_binary=1\n", None),
            ("run", "epochs=1\nsteps=1\nablation.no_cluster=no\n", None),
            ("run", "epochs=1\nsteps=1\nablation.euclidean_distance=on\n", None),
            ("run", "epochs=1\nsteps=1\nagent.r1_delta=0\n", None),
            ("run", "epochs=1\nsteps=1\nreset_per_epoch=off\n", None),
            # values that used to crash mid-search
            ("run", "epochs=1\nsteps=2\ngeneration.size_tolerance_factor=inf\n", None),
            ("run", "epochs=1\nsteps=2\ngeneration.size_tolerance_factor=nan\n", None),
            ("run", "epochs=1\nsteps=2\nagent.epsilon_decay=2\n", None),
            ("run", "epochs=1\nsteps=10\nagent.kind=ddqn_dueling\nagent.target_sync=0\n", None),
            # a seed below 0, from the file or FEATFORGE_SEED
            ("run", "epochs=1\nsteps=1\nseed=-1\n", None),
            ("run", "epochs=1\nsteps=1\n", "-1"),
            ("evaluate", "seed=-1\n", None),
            ("evaluate", "", "-1"),
            # the actor-critic entropy weight must be finite and >= 0
            ("run", "epochs=1\nsteps=3\nagent.kind=actor_critic\nagent.beta=nan\n", None),
            ("run", "epochs=1\nsteps=3\nagent.kind=actor_critic\nagent.beta=inf\n", None),
            ("run", "epochs=1\nsteps=1\nagent.kind=actor_critic\nagent.beta=-1\n", None),
            # an integer key takes only an integral value
            ("run", "epochs=1\nsteps=2\ngeneration.top_k_pairs=inf\n", None),
            ("run", "epochs=1\nsteps=1\ngeneration.top_k_pairs=2.5\n", None),
            ("run", "epochs=1\nsteps=1\ngeneration.top_k_pairs=true\n", None),
            ("run", "epochs=1\nsteps=1\nstate.method=ae\nstate.ae_k=1e400\n", None),
            ("run", "epochs=1\nsteps=1\nmodel.n_trees=2.5\n", None),
            ("run", "epochs=1.7\nsteps=1\n", None),
            ("run", "epochs=1\nsteps=1\nseed=3.9\n", None),
            # a key that no setting reads, and a state method that does not exist
            ("run", "epochs=1\nsteps=1\nagent.gama=0.5\n", None),
            ("run", "epochs=1\nsteps=1\nstate.method=foo\n", None),
        ],
        ids=[
            "epochs", "env_seed", "n_trees", "agent_kind",
            "cluster_epsilon", "cluster_zero_epsilon",
            "epsilon_inf", "baseline_epsilon_inf", "cluster_epsilon_inf", "stop_threshold", "cluster_stop_threshold",
            "stop_threshold_nan", "baseline_stop_threshold_inf",
            "cluster_stop_threshold_nan", "cluster_stop_threshold_inf", "cluster_stop_threshold_neg_inf",
            "random_unary_yes", "random_binary_1", "no_cluster_no", "euclidean_distance_on",
            "r1_delta_0", "reset_per_epoch_off",
            "size_tolerance_inf", "size_tolerance_nan", "epsilon_decay_2", "target_sync_0",
            "seed_negative", "env_seed_negative", "evaluate_seed_negative", "evaluate_env_seed_negative",
            "beta_nan", "beta_inf", "beta_negative",
            "top_k_pairs_inf", "top_k_pairs_fraction", "top_k_pairs_true", "ae_k_overflow",
            "n_trees_fraction", "epochs_fraction", "seed_fraction",
            "unknown_key", "state_method_unknown",
        ],
    )
    def test_malformed_config_value_usage_error(
        self, tmp_path, monkeypatch, capsys, command, config_text, env_seed
    ):
        path, _ = write_dataset_csv(tmp_path)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(config_text)
        if env_seed is None:
            monkeypatch.delenv("FEATFORGE_SEED", raising=False)
        else:
            monkeypatch.setenv("FEATFORGE_SEED", env_seed)
        code = cli_main(
            [command, "--data", path, "--target", "y", "--task", "reg", "--config", str(cfg_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    def test_unknown_key_error_names_it(self, tmp_path, capsys):
        path, _ = write_dataset_csv(tmp_path)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("agent.gama=0.5\n")
        code = cli_main(["cluster", "--data", path, "--target", "y", "--task", "reg", "--config", str(cfg_path)])
        assert code == 1
        assert "agent.gama" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "baseline", "evaluate"])
    def test_negative_seed_flag_usage_error(self, tmp_path, capsys, command):
        path, _ = write_dataset_csv(tmp_path)
        budget = [] if command == "evaluate" else ["--epochs", "1", "--steps", "1"]
        code = cli_main([command, "--data", path, "--target", "y", "--task", "reg", "--seed", "-1", *budget])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")


# each config-file key: a valid non-default value, the PipelineConfig field it
# must reach (dotted into a section) and that field's expected value
KEY_FIELDS = {
    "epochs": ("3", "epochs", 3),
    "steps": ("1e1", "steps_per_epoch", 10),
    "seed": ("11", "seed", 11),
    "state.method": ("ds+ae", "state_method", "ds+ae"),
    "ablation.no_cluster": ("true", "no_cluster", True),
    "ablation.euclidean_distance": ("TRUE", "euclidean_distance", True),
    "agent.r1_delta": ("true", "r1_delta", True),
    "reset_per_epoch": ("true", "reset_per_epoch", True),
    "state.ae_k": ("4", "encoder.ae_col_dim", 4),
    "state.ae_d": ("5", "encoder.ae_row_dim", 5),
    "state.gae_k": ("6", "encoder.gae_dim", 6),
    "state.train_epochs": ("7.0", "encoder.train_epochs", 7),
    "agent.kind": ("actor_critic", "agent.kind", "actor_critic"),
    "agent.gamma": ("0.8", "agent.gamma", 0.8),
    "agent.epsilon_start": ("0.7", "agent.epsilon_start", 0.7),
    "agent.epsilon_min": ("0.1", "agent.epsilon_min", 0.1),
    "agent.epsilon_decay": ("0.9", "agent.epsilon_decay", 0.9),
    "agent.beta": ("0", "agent.entropy_beta", 0.0),
    "agent.target_sync": ("4", "agent.target_sync_every", 4),
    "generation.top_k_pairs": ("3", "generation.top_k_pairs", 3),
    "generation.size_tolerance_factor": ("1.5", "generation.size_tolerance_factor", 1.5),
    "ablation.random_unary": ("true", "generation.random_unary", True),
    "ablation.random_binary": ("true", "generation.random_binary", True),
    "clustering.stop_threshold": ("0.05", "clustering.stop_threshold", 0.05),
    "clustering.epsilon": ("1e-3", "clustering.epsilon", 1e-3),
    "model.n_trees": ("4", "model.n_trees", 4),
    "model.max_depth": ("5", "model.max_depth", 5),
}


def built_config(tmp_path, monkeypatch, config_text, argv=(), env_seed=None):
    """The PipelineConfig that `featforge run` hands to the search."""
    path, _ = write_dataset_csv(tmp_path)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_text)
    if env_seed is None:
        monkeypatch.delenv("FEATFORGE_SEED", raising=False)
    else:
        monkeypatch.setenv("FEATFORGE_SEED", env_seed)
    built = []

    def search(dataset, cfg):
        built.append(cfg)
        return RunReport(method="grfg"), BestFeatureSet(FeatureTable.from_dataset(dataset), 0.0, -1)

    monkeypatch.setattr(cli, "run_grfg", search)
    code = cli_main(
        ["run", "--data", path, "--target", "y", "--task", "reg", "--config", str(cfg_path), *argv]
    )
    assert code == 0
    (cfg,) = built
    assert cfg.model.seed == cfg.seed
    return cfg


class TestConfigKeys:
    def test_every_key_is_covered(self):
        assert set(KEY_FIELDS) == set(cli.CONFIG_KEYS)
        all_keys = os.path.join(os.path.dirname(__file__), "all_keys.cfg")
        assert set(cli.read_config_file(all_keys)) == set(cli.CONFIG_KEYS)

    @pytest.mark.parametrize("key", sorted(KEY_FIELDS))
    def test_key_reaches_its_field(self, tmp_path, monkeypatch, key, capsys):
        text, field, expected = KEY_FIELDS[key]
        assert attrgetter(field)(PipelineConfig()) != expected
        cfg = built_config(tmp_path, monkeypatch, f"{key} = {text}\n")
        assert attrgetter(field)(cfg) == expected
        assert type(attrgetter(field)(cfg)) is type(expected)

    @pytest.mark.parametrize(
        "config_text, argv, env_seed, expected",
        [
            ("", [], None, 0),
            ("", [], "9", 9),
            ("seed=5\n", [], "9", 5),
            ("seed=5\n", ["--seed", "3"], "9", 3),
        ],
    )
    def test_seed_precedence(self, tmp_path, monkeypatch, capsys, config_text, argv, env_seed, expected):
        assert built_config(tmp_path, monkeypatch, config_text, argv, env_seed).seed == expected

    def test_flags_override_the_file(self, tmp_path, monkeypatch, capsys):
        cfg = built_config(
            tmp_path, monkeypatch,
            "epochs=3\nsteps=4\nagent.kind=dqn\nstate.method=ds\nreset_per_epoch=false\n",
            ["--epochs", "2", "--steps", "5", "--agent", "ac", "--state", "gae", "--reset-per-epoch"],
        )
        assert (cfg.epochs, cfg.steps_per_epoch, cfg.agent.kind, cfg.state_method, cfg.reset_per_epoch) == (
            2, 5, "actor_critic", "gae", True
        )


ENGINE_VARIANTS = {
    "dqn": {},
    "ddqn_dueling": {"agent": AgentConfig(kind="ddqn_dueling")},
    "actor_critic": {"agent": AgentConfig(kind="actor_critic")},
    "ds+ae+gae": {"state_method": "ds+ae+gae"},
    "no_cluster": {"no_cluster": True},
    "euclidean_distance": {"euclidean_distance": True},
    "random_unary+random_binary": {
        "generation": GenerationConfig(random_unary=True, random_binary=True)
    },
    "reset_per_epoch": {"reset_per_epoch": True},
    "r1_delta": {"r1_delta": True},
}


class TestOneStepEngine:
    """Both methods through the one step engine equal the two separate loops they replace."""

    @pytest.mark.parametrize("variant", sorted(ENGINE_VARIANTS))
    @pytest.mark.parametrize("task", list(Task))
    def test_matches_separate_loops(self, task, variant, tmp_path):
        data = small_dataset(seed=2, m=48, task=task)
        methods = (
            (run_grfg, pipeline_reference.run_grfg),
            (run_rdg_baseline, pipeline_reference.run_rdg_baseline),
        )
        for seed in (0, 7):
            for run, reference in methods:
                runs = []
                for side, fn in (("engine", run), ("reference", reference)):
                    out = tmp_path / f"{seed}-{run.__name__}-{side}"
                    cfg = tiny_config(
                        epochs=2, steps_per_epoch=2, seed=seed, out_dir=str(out),
                        **ENGINE_VARIANTS[variant],
                    )
                    report, best = fn(data, cfg)
                    files = {n: (out / n).read_bytes() for n in sorted(os.listdir(out))}
                    runs.append((json.dumps(report.to_dict(), sort_keys=True), best.table, files))
                (got, got_table, got_files), (want, want_table, want_files) = runs
                assert got == want
                assert np.array_equal(got_table.values, want_table.values)
                assert got_table.exprs == want_table.exprs
                assert got_table.created_at == want_table.created_at
                assert got_files == want_files
                assert sorted(got_files) == ["best_features.csv", "report.json", "trace.jsonl"]


def _top_class_alone(n_classes: int, seed: int, m: int = 90) -> Dataset:
    """Classes 0..n_classes-2 on most rows and the top class on one row only.

    The columns take four values, so many cuts tie and a Gini score summed
    in another order can grow another tree.
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(m, 8)).astype(float)
    y = rng.integers(0, n_classes - 1, size=m).astype(float)
    y[int(rng.integers(m))] = n_classes - 1
    return Dataset(samples=X, feature_names=tuple(f"f{i}" for i in range(8)), target=y, task=Task.CLASSIFICATION)


class TestFinalCv:
    """The final CV, from one ``fold_predictions`` call, scores as the per-fold loop did."""

    # (data, seed): regression, and classification where the fold that tests
    # the top class's one row fits without it. With 8 or 16 classes numpy sums
    # that fold's Gini terms in another order than the other folds' terms; at
    # these seeds a sum over every class would move the score
    @pytest.mark.parametrize(
        "data, seed",
        [
            (small_dataset(seed=4, m=70), 0),
            (_top_class_alone(3, seed=1), 0),
            (_top_class_alone(8, seed=20), 0),
            (_top_class_alone(8, seed=26), 5),
            (_top_class_alone(16, seed=32), 0),
            (_top_class_alone(16, seed=34), 5),
            (small_dataset(seed=0, m=40, task=Task.OUTLIER_DETECTION), 0),
            (small_dataset(seed=3, m=40, task=Task.OUTLIER_DETECTION), 3),
        ],
        ids=[
            "regression", "3 classes", "8 classes", "8 classes, seed 5", "16 classes", "16 classes, seed 5",
            "outlier", "outlier, seed 3",
        ],
    )
    def test_matches_per_fold_loop(self, data, seed):
        cfg = tiny_config(seed=seed, model=ModelSpec(n_trees=4, min_samples_leaf=1, seed=seed))
        if data.task is Task.CLASSIFICATION:
            top = data.target.max()
            assert sum(data.target[train].max() < top for train, _ in make_folds(data, 5, seed)) == 1
        if data.task is Task.OUTLIER_DETECTION:
            # some folds test one class only, which ROC-AUC cannot score: they are skipped
            one_class = [len(set(data.target[test])) == 1 for _, test in make_folds(data, 5, seed)]
            assert any(one_class) and not all(one_class)
        best = BestFeatureSet(table=FeatureTable.from_dataset(data), score=0.0, step=0)
        got, want = RunReport(method="grfg"), RunReport(method="grfg")
        _finish_report(got, best, data, cfg)
        pipeline_reference._finish_report(want, best, data, cfg)
        assert got.final_cv_score is not None
        assert got.final_cv_score == want.final_cv_score

    def test_two_row_outlier_has_no_score(self):
        data = Dataset(
            samples=np.array([[0.0, 1.0], [2.0, 5.0]]),
            feature_names=("a", "b"),
            target=np.array([0.0, 1.0]),
            task=Task.OUTLIER_DETECTION,
        )
        best = BestFeatureSet(table=FeatureTable.from_dataset(data), score=0.0, step=0)
        got, want = RunReport(method="grfg"), RunReport(method="grfg")
        _finish_report(got, best, data, tiny_config())
        pipeline_reference._finish_report(want, best, data, tiny_config())
        assert got.final_cv_score is None
        assert want.final_cv_score is None

    def test_forest_fit_error_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("fit failed")

        monkeypatch.setattr(evaluator, "train_random_forest", fail)
        data = small_dataset(seed=1, m=30)
        best = BestFeatureSet(table=FeatureTable.from_dataset(data), score=0.0, step=0)
        with pytest.raises(ValueError, match="fit failed"):
            _finish_report(RunReport(method="grfg"), best, data, tiny_config())

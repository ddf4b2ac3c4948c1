"""featforge benchmark: seeded search workloads, holdout-scored, with a traced layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload reg_fixture --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload cls_wide --profile   # cProfile cross-check

Each search runs ``run_grfg`` in a fresh single-threaded process on a CSV of
search rows drawn from the seed. Searches cycle through the workload's draws
of rows until ``--seconds`` is used up; a timing is the median of each draw's
searches, averaged over the draws. Every search is checked: its
``trace.jsonl`` must replay to ``best_features.csv`` and its ``report.json``
must match the other searches at the same seed. The best feature set is then
scored on holdout rows the program never saw.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of traced searches, interleaved with untraced ones to measure the
tracing overhead. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# the search settings, seed included, are part of a workload; --seed draws its data
PROGRAM_SEED = 0
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run must end within 180 s


class WorkerError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line for line in cpuinfo.read_text().splitlines() if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def search_spec(w, csv_path: Path) -> dict:
    """Worker settings for one workload and CSV; the caller adds mode and out_dir."""
    from workloads import TARGET

    return {
        "src": str(SRC), "csv": str(csv_path), "target": TARGET, "task": w.task,
        "agent": w.agent, "state": w.state, "steps": w.steps_per_epoch,
        "program_seed": PROGRAM_SEED,
    }


def spawn(spec: dict, limit: float) -> dict:
    """Run one worker process to completion; returns its result with its set-up time."""
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(limit, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {limit:.0f} s") from None
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise WorkerError(f"worker exit {done.returncode}: {tail}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result["ready"] - start
    return result


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """All searches of one run of one workload; returns the run's record.

    Searches run in whole cycles through the workload's draws of rows, at
    least two, so every draw is searched as often as every other and twice
    at least for the report-hash check. A traced run uses the first draw only,
    so its count metrics can be compared search to search.
    """
    import checks
    from workloads import generate, holdout_leaks, write_search_csv

    started = time.monotonic()
    deadline = started + seconds
    hard_deadline = started + HARD_LIMIT_S
    work = RUNS / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    searches: list[dict] = []
    setups: list[dict] = []
    draws = 1 if trace else w.draws
    scored: dict[int, Path] = {}  # draw -> output of its first finished search
    try:
        data, specs = [], []
        for draw in range(draws):
            g = generate(w, seed, draw)
            csv_path = work / f"search{draw}.csv"
            write_search_csv(g, str(csv_path))
            leaks = holdout_leaks(g, str(csv_path))
            if leaks:
                problems.append(f"draw {draw}: {leaks} holdout rows in the search CSV")
            data.append(g)
            specs.append(search_spec(w, csv_path))

        for i in range(SETUP_PROBES):
            spec = dict(specs[0], mode="setup", out_dir=str(work / f"setup{i}"))
            try:
                setups.append(spawn(spec, hard_deadline - time.monotonic()))
            except WorkerError as exc:
                problems.append(f"setup probe: {exc}")

        modes = ("search", "trace") if trace else ("search",)
        cycles: list[float] = []
        while True:
            cycle_start = time.monotonic()
            for draw, mode in ((d, m) for d in range(draws) for m in modes):
                out = work / f"it{len(searches)}"
                rec = {"mode": mode, "draw": draw, "problem": None}
                try:
                    rec.update(spawn(dict(specs[draw], mode=mode, out_dir=str(out)),
                                     hard_deadline - time.monotonic()))
                    g = data[draw]
                    rec["problem"] = checks.replay_problem(out, g.names, g.search_x)
                    rec["report_sha256"] = checks.report_hash(out)
                    if mode == "trace":
                        spans = json.loads((out / "spans.json").read_text())
                        rec["layers"] = layers.layer_metrics(spans["spans"], spans["counts"])
                except (WorkerError, OSError, ValueError, KeyError) as exc:
                    # a missing or malformed output fails this search, not the run
                    rec["problem"] = f"{type(exc).__name__}: {exc}"
                searches.append(rec)
                if draw not in scored and "report_sha256" in rec and not trace:
                    scored[draw] = out
                else:
                    shutil.rmtree(out, ignore_errors=True)
            cycles.append(time.monotonic() - cycle_start)
            now = time.monotonic()
            if now + median(cycles) > hard_deadline:
                break
            if len(cycles) >= 2 and now + median(cycles) > deadline:
                break
        if len(cycles) < 2:
            problems.append("one cycle of searches used up the time; report.json left unchecked")

        first: dict[int, str] = {}
        for s in searches:
            if "report_sha256" not in s:
                continue
            ref = first.setdefault(s["draw"], s["report_sha256"])
            if s["problem"] is None and s["report_sha256"] != ref:
                s["problem"] = "report.json differs from the first search of this draw"
        traced = [s for s in searches if "layers" in s]
        for s in traced[1:]:
            differ = [k for k in layers.COUNTS + layers.RATIOS
                      if s["layers"][k] != traced[0]["layers"][k]]
            if differ and s["problem"] is None:
                s["problem"] = f"{', '.join(differ)} differ from the first traced search"
        holdout = {d: checks.holdout_score(out, w.task, data[d]) for d, out in scored.items()}
        if not trace and len(holdout) < draws:
            problems.append(f"only {len(holdout)} of {draws} draws finished a search")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": w.name, "seed": seed, "trace": int(trace), "draws": draws,
        "steps": specs[0]["steps"], "problems": problems,
        "setups": setups, "searches": searches,
        "holdout_score": fmean(holdout.values()) if holdout else None,
        "holdout_by_draw": holdout, "elapsed_s": time.monotonic() - started,
    }


def _finished(run: dict) -> bool:
    modes = {s["mode"] for s in run["searches"] if "search_s" in s}
    return "search" in modes and (not run["trace"] or "trace" in modes)


def per_draw(run: dict, key: str, mode: str = "search") -> float:
    """Mean over the draws of the median of each draw's finished searches.

    Every draw weighs the same, whichever draws the run's searches fell on.
    """
    by_draw: dict[int, list[float]] = {}
    for s in run["searches"]:
        if s["mode"] == mode and "search_s" in s:
            by_draw.setdefault(s["draw"], []).append(s[key])
    return fmean(median(values) for values in by_draw.values())


def end_to_end(run: dict) -> dict:
    ok = [s for s in run["searches"] if "search_s" in s]
    failed = sum(s["problem"] is not None for s in run["searches"])
    attempted = len(run["searches"])
    return {
        "search_s": per_draw(run, "search_s"),
        "setup_s": median([s["setup_s"] for s in run["setups"] + ok]),
        "holdout_score": run["holdout_score"],
        "peak_rss_mb": per_draw(run, "peak_rss_mb"),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(run: dict) -> dict:
    traced = [s for s in run["searches"] if "layers" in s]
    out = {
        name: median([s["layers"][name] for s in traced])
        for name in traced[0]["layers"]
    }
    first = traced[0]
    out["pipeline.best_score"] = first["best_score"]
    out["pipeline.final_cv_score"] = first["final_cv_score"]
    out["data_core.load_csv_s"] = median(
        [s["load_csv_s"] for s in run["setups"] + run["searches"] if "load_csv_s" in s]
    )
    out["trace.overhead"] = per_draw(run, "search_s", "trace") / per_draw(run, "search_s") - 1
    return out


def summarize(run: dict, metrics: dict) -> None:
    """Human-readable lines; the last line of output stays the JSON result."""
    ok = [s for s in run["searches"] if "search_s" in s]
    for mode, draw in sorted({(s["mode"], s["draw"]) for s in ok}):
        times = sorted(s["search_s"] for s in ok if (s["mode"], s["draw"]) == (mode, draw))
        cpus = [s["cpu_s"] for s in ok if (s["mode"], s["draw"]) == (mode, draw)]
        print(f"# {run['workload']} seed={run['seed']} {mode} draw={draw}: n={len(times)} "
              f"steps={run['steps']} search_s min/median/max="
              f"{times[0]:.3f}/{median(times):.3f}/{times[-1]:.3f} "
              f"cpu_s median={median(cpus):.3f} elapsed={run['elapsed_s']:.1f}")
    for s in run["searches"]:
        if s["problem"]:
            print(f"# FAILED {s['mode']}: {s['problem']}")
    for p in run["problems"]:
        print(f"# FAILED: {p}")
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:.6g}")


def result_line(runs: list[dict], trace: bool, prefix: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for run in runs:
        values = per_layer(run) if trace else end_to_end(run)
        summarize(run, values)
        for name, value in values.items():
            key = f"{run['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(s["problem"] is not None for r in runs for s in r["searches"])
    attempted = sum(len(r["searches"]) for r in runs)
    correct = failed == 0 and not any(r["problems"] for r in runs)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def profile_shares(w, seed: int) -> dict:
    """Layer shares from one traced and one cProfile'd search of the same input."""
    import pstats

    from workloads import generate, write_search_csv

    work = RUNS / f"{w.name}-seed{seed}-profile-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_search_csv(generate(w, seed), str(work / "search.csv"))
        base = search_spec(w, work / "search.csv")
        spawn(dict(base, mode="trace", out_dir=str(work / "trace")), 600)
        spawn(dict(base, mode="profile", out_dir=str(work / "profile")), 600)
        spans = json.loads((work / "trace" / "spans.json").read_text())["spans"]
        stats = pstats.Stats(str(work / "profile" / "profile.pstats")).stats
    finally:
        shutil.rmtree(work, ignore_errors=True)

    root_traced = next(e - s for n, s, e, p in spans if n == layers.ROOT)
    root_code = layers.wrapped_code("featforge.pipeline:run_grfg")
    root_profiled = stats[root_code][3]
    rows = {}
    for target, name in layers.WRAPPED.items():
        row = rows.setdefault(name, {"traced": 0.0, "cprofile": 0.0})
        key = layers.wrapped_code(target)
        row["cprofile"] += stats[key][3] / root_profiled if key in stats else 0.0
    for name, start, end, parent in spans:
        if name in rows:
            rows[name]["traced"] += (end - start) / root_traced
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="compare traced layer shares with a cProfile run and exit")
    args = parser.parse_args(argv)

    if not (SRC / "featforge" / "__init__.py").is_file():
        print(f"featforge sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")

    if args.profile:
        for name in names:
            rows = profile_shares(WORKLOADS[name], args.seed)
            print(f"# {name}: inclusive share of run_grfg, traced vs cProfile")
            for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["traced"]):
                print(f"#   {layer:28s} {row['traced']:7.1%} {row['cprofile']:7.1%}")
            print(json.dumps({"workload": name, "shares": rows}))
        return 0

    env = environment()
    runs = [
        run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
        for n in names
    ]
    # metrics need a finished untraced search, and a traced one with --trace 1
    if not all(_finished(r) for r in runs):
        for r in runs:
            for p in r["problems"] + [s["problem"] for s in r["searches"] if s["problem"]]:
                print(f"{r['workload']}: {p}", file=sys.stderr)
        return 1
    result = result_line(runs, bool(args.trace), prefix=len(runs) > 1)
    RUNS.mkdir(exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "runs": runs, "result": result}, indent=1))
    print("# environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

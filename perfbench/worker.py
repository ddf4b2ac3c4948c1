"""One featforge search in a fresh process, started by run.py.

Usage: python3 worker.py SPEC_JSON

The spec names the CSV, the search settings, the output directory and a
mode: ``setup`` (import and load only), ``search`` (untraced), ``trace``
(layer spans) or ``profile`` (cProfile). The worker writes ``result.json``
into the output directory. Only the standard library is imported before
featforge, so the time to ``ready`` is the program's own set-up time.
"""

import json
import os
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from featforge.agents import AgentConfig
    from featforge.data_core import load_csv
    from featforge.pipeline import PipelineConfig, run_grfg

    t0 = time.perf_counter()
    dataset = load_csv(spec["csv"], spec["target"], spec["task"])
    result = {"load_csv_s": time.perf_counter() - t0}
    out = spec["out_dir"]
    mode = spec["mode"]
    if mode != "setup":
        cfg = PipelineConfig(
            epochs=1,
            steps_per_epoch=spec["steps"],
            state_method=spec["state"],
            agent=AgentConfig(kind=spec["agent"]),
            seed=spec["program_seed"],
            out_dir=out,
        )
        run = run_grfg
        if mode == "trace":
            import layers

            tracer = layers.Tracer()
            layers.instrument(tracer)
            run = tracer.wrap(layers.ROOT, run_grfg)
        elif mode == "profile":
            import cProfile
            import functools

            profiler = cProfile.Profile()
            run = functools.partial(profiler.runcall, run_grfg)
    result["ready"] = time.monotonic()
    if mode != "setup":
        c0 = time.process_time()
        t0 = time.perf_counter()
        report, _ = run(dataset, cfg)
        result["search_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["best_score"] = report.best_score
        result["final_cv_score"] = report.final_cv_score
        if mode == "trace":
            tracer.dump(os.path.join(out, "spans.json"))
        elif mode == "profile":
            profiler.dump_stats(os.path.join(out, "profile.pstats"))

    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

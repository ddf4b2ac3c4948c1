"""Layer spans around the public calls the search loop makes.

The benchmark wraps these calls from outside the program; featforge itself is
not changed. Spans (name, start, end, parent) are kept in memory and written
once when the run ends. A layer's time is the self time of its spans: the
span's duration minus the part of it that child spans cover. The layer times,
the root's self time and the final CV's own bookkeeping add up to the root span.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

ROOT = "pipeline.search"
FINAL_CV = "pipeline.final_cv"
SCORE = "evaluator.score"
SIZE_CONTROL = "generation.size_control"

# wrapped call -> span name; "module:attr" patches a module global, and
# "module:Class.method" patches a method on the class
WRAPPED = {
    "featforge.pipeline:m_cluster": "grouping.m_cluster",
    "featforge.pipeline:utility_u": "measures.utility",
    "featforge.state_rep:StateEncoder.encode": "state_rep.encode",
    "featforge.agents:CascadeAgent.select": "agents.select",
    "featforge.agents:CascadeAgent.observe": "agents.observe",
    "featforge.pipeline:cross_binary_topk": "generation.generate",
    "featforge.pipeline:generate_unary": "generation.generate",
    "featforge.pipeline:postprocess": "generation.postprocess",
    "featforge.pipeline:size_control": SIZE_CONTROL,
    "featforge.pipeline:downstream_performance": SCORE,
    "featforge.evaluator:train_random_forest": "evaluator.fit",
    "featforge.evaluator:RandomForest.predict": "evaluator.predict",
    "featforge.evaluator:knn_anomaly_scores": "evaluator.knn",
    "featforge.pipeline:_finish_report": FINAL_CV,
}

# layers reported by their self time
TIMED = (
    "evaluator.fit", "evaluator.predict", "evaluator.knn", "evaluator.score",
    "measures.utility", "grouping.m_cluster", "state_rep.encode",
    "agents.select", "agents.observe", "generation.generate",
    "generation.postprocess", SIZE_CONTROL,
)

# per-layer metrics that must repeat exactly at one seed
COUNTS = (
    "evaluator.fit_calls", "measures.utility_calls", "grouping.m_cluster_calls",
    "state_rep.encode_calls", "grouping.groups_mean", "generation.generated",
    "generation.kbest_dropped",
)
RATIOS = ("agents.update_ratio", "generation.kept_ratio")


def _count_groups(counts, result, args):
    counts["grouping.groups"] += len(result.groups)


def _count_generated(counts, result, args):
    counts["generation.generated"] += len(result)


def _count_kept(counts, result, args):
    counts["generation.kept"] += result.n_features - args[0].n_features


def _count_dropped(counts, result, args):
    counts["generation.kbest_dropped"] += args[0].n_features - result.n_features


def _count_loss(counts, result, args):
    if result is not None:
        counts["agents.observe_loss"] += 1


COUNTERS = {
    "grouping.m_cluster": _count_groups,
    "generation.generate": _count_generated,
    "generation.postprocess": _count_kept,
    SIZE_CONTROL: _count_dropped,
    "agents.observe": _count_loss,
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result, args)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _resolve(target: str):
    import importlib

    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def instrument(tracer: Tracer) -> list:
    """Patch every call in WRAPPED; returns what :func:`restore` needs."""
    saved = []
    for target, name in WRAPPED.items():
        owner, leaf = _resolve(target)
        original = getattr(owner, leaf)
        saved.append((owner, leaf, original))
        setattr(owner, leaf, tracer.wrap(name, original, COUNTERS.get(name)))
    return saved


def restore(saved: list) -> None:
    for owner, leaf, original in reversed(saved):
        setattr(owner, leaf, original)


def wrapped_code(target: str):
    """(file, line, name) of a wrapped function, as cProfile keys it."""
    owner, leaf = _resolve(target)
    code = getattr(owner, leaf).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def step_durations(spans) -> list[float]:
    """Search steps: from the end of the baseline score to each size-control end."""
    ends = [end for name, start, end, parent in spans if name == SIZE_CONTROL]
    baseline = next(
        (end for name, start, end, parent in spans if name == SCORE), None
    )
    if baseline is None or not ends:
        return []
    edges = [baseline] + ends
    return [b - a for a, b in zip(edges, edges[1:])]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    time_by: Counter = Counter()
    calls_by: Counter = Counter()
    for (name, start, end, parent), own in zip(spans, selfs):
        time_by[name] += own
        calls_by[name] += 1
    root = next(i for i, s in enumerate(spans) if s[0] == ROOT)
    out = {f"{name}_s": time_by[name] for name in TIMED}
    for name in ("evaluator.fit", "measures.utility", "grouping.m_cluster", "state_rep.encode"):
        out[f"{name}_calls"] = calls_by[name]
    steps = step_durations(spans)
    observe_calls = calls_by["agents.observe"]
    generated = counts.get("generation.generated", 0)
    out.update(
        {
            "grouping.groups_mean": counts.get("grouping.groups", 0)
            / max(calls_by["grouping.m_cluster"], 1),
            "agents.update_ratio": counts.get("agents.observe_loss", 0) / max(observe_calls, 1),
            "generation.generated": generated,
            "generation.kept_ratio": counts.get("generation.kept", 0) / max(generated, 1),
            "generation.kbest_dropped": counts.get("generation.kbest_dropped", 0),
            "pipeline.search_s": spans[root][2] - spans[root][1],
            "pipeline.self_s": selfs[root],
            "pipeline.final_cv_s": sum(
                e - s for name, s, e, p in spans if name == FINAL_CV
            ),
            "pipeline.step_s.p50": _percentile(steps, 50) if steps else 0.0,
            "pipeline.step_s.p90": _percentile(steps, 90) if steps else 0.0,
        }
    )
    return out

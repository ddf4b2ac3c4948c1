"""Span arithmetic of the traced run, on hand-built span trees.

Run with: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
        ["e", 6.5, 8.0, 3],  # overlaps d: the union [6, 8] is covered once
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_self_time_clips_children_to_the_parent():
    spans = [["root", 0.0, 2.0, -1], ["late", 1.5, 3.0, 0]]
    assert layers.self_times(spans) == pytest.approx([1.5, 1.5])


def _search_spans():
    # baseline score, two steps, then the final CV with one fold
    return [
        [layers.ROOT, 0.0, 20.0, -1],
        [layers.SCORE, 0.0, 2.0, 0],
        ["evaluator.fit", 0.0, 1.5, 1],
        ["evaluator.predict", 1.5, 1.8, 1],
        ["grouping.m_cluster", 2.0, 3.0, 0],
        ["measures.utility", 3.0, 4.0, 0],
        [layers.SIZE_CONTROL, 4.0, 5.0, 0],
        ["grouping.m_cluster", 5.0, 6.0, 0],
        ["agents.observe", 6.0, 6.5, 0],
        [layers.SIZE_CONTROL, 8.0, 9.0, 0],
        [layers.FINAL_CV, 10.0, 19.0, 0],
        [layers.SCORE, 10.0, 14.0, 10],
        ["evaluator.fit", 10.0, 13.0, 11],
    ]


def test_layer_metrics_partition_the_search():
    counts = {
        "grouping.groups": 7,
        "generation.generated": 8,
        "generation.kept": 6,
        "generation.kbest_dropped": 3,
        "agents.observe_loss": 1,
    }
    m = layers.layer_metrics(_search_spans(), counts)
    assert m["pipeline.search_s"] == pytest.approx(20.0)
    assert m["evaluator.fit_s"] == pytest.approx(4.5)
    assert m["evaluator.fit_calls"] == 2
    assert m["evaluator.predict_s"] == pytest.approx(0.3)
    assert m["evaluator.score_s"] == pytest.approx(0.2 + 1.0)
    assert m["grouping.m_cluster_s"] == pytest.approx(2.0)
    assert m["pipeline.final_cv_s"] == pytest.approx(9.0)
    # root minus its direct children: 20 - (2 + 1 + 1 + 1 + 1 + 0.5 + 1 + 9)
    assert m["pipeline.self_s"] == pytest.approx(3.5)
    total = sum(v for k, v in m.items() if k.endswith("_s") and k not in (
        "pipeline.search_s", "pipeline.final_cv_s"))
    assert total + 5.0 == pytest.approx(20.0)  # 5.0: final CV's own self time
    assert m["grouping.groups_mean"] == pytest.approx(3.5)
    assert m["generation.kept_ratio"] == pytest.approx(0.75)
    assert m["generation.kbest_dropped"] == 3
    assert m["agents.update_ratio"] == pytest.approx(1.0)


def test_steps_run_from_baseline_to_each_size_control():
    assert layers.step_durations(_search_spans()) == pytest.approx([3.0, 4.0])


def test_tracer_records_nesting_and_counts():
    clock = iter(range(100)).__next__
    tracer = layers.Tracer(clock=clock)

    def inner(x):
        return [x, x]

    def outer(x):
        return traced_inner(x)

    traced_inner = tracer.wrap("generation.generate", inner, layers.COUNTERS["generation.generate"])
    assert tracer.wrap(layers.ROOT, outer)(3) == [3, 3]
    assert tracer.spans == [[layers.ROOT, 0, 3, -1], ["generation.generate", 1, 2, 0]]
    assert tracer.counts["generation.generated"] == 2


def test_instrument_patches_and_restores():
    import featforge.evaluator as evaluator
    import featforge.pipeline as pipeline

    originals = (pipeline.m_cluster, evaluator.RandomForest.predict)
    saved = layers.instrument(layers.Tracer())
    try:
        assert pipeline.m_cluster is not originals[0]
        assert evaluator.RandomForest.predict is not originals[1]
    finally:
        layers.restore(saved)
    assert (pipeline.m_cluster, evaluator.RandomForest.predict) == originals

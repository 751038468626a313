"""Span recording and self-time arithmetic."""

import asyncio

import pytest

from layers import Patches, unattributed_frac
from spans import (Tracer, covered_length, outermost, self_times,
                   summarize)


def span(sid, name, start, end, parent=None, trace=None, attrs=None):
    return {"id": sid, "parent": parent, "trace": trace, "name": name,
            "start": start, "end": end, "attrs": attrs}


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4       # overlap
    assert covered_length([(1, 2), (4, 6)], 0, 10) == 3       # disjoint
    assert covered_length([(1, 9), (2, 3)], 0, 10) == 8       # nested
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4     # clipped
    assert covered_length([(11, 12)], 0, 10) == 0             # outside


def test_self_time_is_duration_minus_child_union():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),    # overlaps a: union 1..6
        span(4, "leaf", 1.5, 2.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.5)     # grandchild counts for a
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    # Self times partition the root's wall time.
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)  # a/b overlap


def test_self_times_sum_to_root_time_without_overlap():
    spans = [span(1, "op", 0.0, 8.0), span(2, "x", 0.0, 3.0, parent=1),
             span(3, "y", 3.0, 7.0, parent=1),
             span(4, "x", 4.0, 5.0, parent=3)]
    table = summarize(spans)
    assert sum(row["self_s"] for row in table.values()) == \
        pytest.approx(8.0)
    assert table["x"]["count"] == 2
    assert table["x"]["self_s"] == pytest.approx(4.0)
    assert table["y"]["self_s"] == pytest.approx(3.0)


def test_outermost_counts_a_reentrant_layer_once():
    spans = [span(1, "build", 0.0, 5.0),
             span(2, "other", 1.0, 4.0, parent=1),
             span(3, "build", 2.0, 3.0, parent=2),
             span(4, "build", 6.0, 7.0)]
    assert [s["id"] for s in outermost(spans, "build")] == [1, 4]
    assert summarize(spans)["build"]["total_s"] == pytest.approx(6.0)


def test_unattributed_share_is_residual_self_time_over_roots():
    spans = [span(1, "op", 0.0, 10.0),
             span(2, "engine.run", 0.0, 10.0, parent=1),
             span(3, "draw.thinned", 0.0, 6.0, parent=2)]
    assert unattributed_frac(spans) == pytest.approx(0.4)


def test_tracer_records_parent_trace_and_attributes():
    tracer = Tracer()
    inner = tracer.wrap(lambda n: list(range(n)), "inner",
                        attrs=lambda r: {"flips": len(r)})

    def outer():
        return inner(3)
    outer = tracer.wrap(outer, "outer")
    with tracer.span("root", trace="req-1"):
        outer()
    records = {r["name"]: r for r in tracer.records()}
    assert records["outer"]["parent"] == records["root"]["id"]
    assert records["inner"]["parent"] == records["outer"]["id"]
    assert {r["trace"] for r in records.values()} == {"req-1"}
    assert records["inner"]["attrs"] == {"flips": 3}
    for r in records.values():
        assert r["start"] <= r["end"]


def test_async_and_thread_spans_keep_their_parent():
    tracer = Tracer()
    work = tracer.wrap(lambda: 42, "runner")

    async def handle():
        return await asyncio.to_thread(work)
    handle = tracer.wrap(handle, "request")

    async def main():
        with tracer.span("client", trace="t"):
            return await asyncio.gather(handle(), handle())
    assert asyncio.run(main()) == [42, 42]
    records = tracer.records()
    by_id = {r["id"]: r for r in records}
    runners = [r for r in records if r["name"] == "runner"]
    assert len(runners) == 2
    for r in runners:
        assert by_id[r["parent"]]["name"] == "request"
        assert r["trace"] == "t"


def test_tracer_round_trips_through_jsonl(tmp_path):
    from spans import read_jsonl
    tracer = Tracer()
    with tracer.span("a", bytes=7):
        pass
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    assert read_jsonl(path) == tracer.records()


def test_patches_switch_between_wrapper_and_original():
    class Layer:
        def step(self):
            return "done"

    registry = {"op": lambda: "ran"}
    tracer = Tracer()
    patches = Patches()
    original = Layer.step
    patches.patch(Layer, "step", lambda f: tracer.wrap(f, "step"))
    patches.patch_item(registry, "op", lambda f: tracer.wrap(f, "op"))
    assert Layer().step() == "done" and registry["op"]() == "ran"
    assert len(tracer.spans) == 2
    patches.off()
    assert Layer.step is original
    Layer().step()
    registry["op"]()
    assert len(tracer.spans) == 2
    patches.on()
    Layer().step()
    assert len(tracer.spans) == 3

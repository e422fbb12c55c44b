"""End-to-end traces: the spans and counters a real run must emit.

This is the acceptance test of the observability layer: tracing a
``repro.solve(..., algorithm="PeeK")`` run yields nested
``prune``/``compact``/``ksp`` spans carrying relaxation and spur-search
counters, and the whole thing round-trips through JSONL.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.batch import BatchPeeK
from repro.obs import Tracer, load_spans, use_tracer, write_jsonl
from tests.conftest import random_reachable_pair


@pytest.fixture
def traced_peek(medium_er):
    s, t = random_reachable_pair(medium_er, seed=7)
    with use_tracer(Tracer()) as tracer:
        result = repro.solve(medium_er, s, t, k=8)
    return tracer, result


def _one(tracer, name):
    spans = tracer.find(name)
    assert len(spans) == 1, f"expected exactly one {name!r} span, got {spans}"
    return spans[0]


def test_peek_stage_tree(traced_peek):
    tracer, result = traced_peek
    assert len(result.paths) == 8

    solve = _one(tracer, "solve")
    peek = _one(tracer, "peek")
    prune = _one(tracer, "prune")
    compact = _one(tracer, "compact")
    ksp = _one(tracer, "ksp")

    assert solve.parent_id is None
    assert peek.parent_id == solve.span_id
    assert prune.parent_id == peek.span_id
    assert compact.parent_id == peek.span_id
    assert ksp.parent_id == peek.span_id

    assert solve.attrs["algorithm"] == "PeeK"
    assert solve.attrs["k"] == 8


def test_peek_counters(traced_peek):
    tracer, result = traced_peek
    prune = _one(tracer, "prune")
    ksp = _one(tracer, "ksp")

    # SSSP kernels ran inside the prune stage and reported aggregates
    assert prune.counters["sssp.calls"] >= 2  # forward + backward
    assert prune.counters["sssp.edges_relaxed"] > 0
    assert prune.counters["sssp.vertices_settled"] > 0
    assert prune.gauges["prune.pruned_vertex_fraction"] == pytest.approx(
        result.prune.pruned_vertex_fraction
    )

    # the KSP stage reported deviation work
    assert ksp.counters["ksp.deviations"] > 0
    assert ksp.counters["ksp.sssp_calls"] > 0
    stats = result.stats
    assert ksp.counters["ksp.deviations"] == sum(
        len(t) for t in stats.iteration_tasks
    )

    compact = _one(tracer, "compact")
    assert compact.attrs["strategy"] == result.compaction.strategy


def test_trace_jsonl_roundtrip(traced_peek, tmp_path):
    tracer, _ = traced_peek
    out = tmp_path / "peek.jsonl"
    write_jsonl(tracer, out)
    spans = load_spans(out)
    assert len(spans) == len(tracer.spans)
    by_name = {r["name"]: r for r in spans}
    assert {"solve", "peek", "prune", "compact", "ksp"} <= set(by_name)
    # counters survive the round trip exactly
    assert by_name["ksp"]["counters"] == tracer.find("ksp")[0].counters
    assert by_name["prune"]["counters"]["sssp.edges_relaxed"] > 0


def test_standalone_algorithm_emits_ksp_span(medium_er):
    s, t = random_reachable_pair(medium_er, seed=9)
    with use_tracer(Tracer()) as tracer:
        repro.solve(medium_er, s, t, k=4, algorithm="SB*")
    ksp = _one(tracer, "ksp")
    assert ksp.attrs["algorithm"] == "SB*"
    assert ksp.parent_id == _one(tracer, "solve").span_id
    assert ksp.counters["ksp.deviations"] > 0


def test_workspace_reuse_visible_in_trace(medium_er):
    s, t = random_reachable_pair(medium_er, seed=9)
    with use_tracer(Tracer()) as tracer:
        repro.solve(medium_er, s, t, k=6, algorithm="OptYen")
    ksp = _one(tracer, "ksp")
    assert ksp.gauges.get("workspace.epochs", 0) >= 1
    assert tracer.total("workspace.queries") > 0


def test_batch_cache_counters(medium_er):
    pairs = [random_reachable_pair(medium_er, seed=s) for s in (1, 2)]
    with use_tracer(Tracer()) as tracer:
        batch = BatchPeeK(medium_er)
        for s, t in pairs:
            batch.query(s, t, 4)
        batch.query(*pairs[0], 3)  # same endpoints: trees already cached
        batch.query(*pairs[0], 4)  # same query: the decision is memoised
    hits = tracer.total("batch.cache_hits")
    misses = tracer.total("batch.cache_misses")
    assert misses > 0
    assert hits >= 2  # another k reuses both SSSP trees
    assert tracer.total("batch.prune_reuse") == 1
    assert len(tracer.find("batch.query")) == 4
    # batch queries contain the same stage spans as one-shot PeeK; a
    # memoised decision skips the prune stage
    assert len(tracer.find("prune")) == 3
    assert len(tracer.find("ksp")) == 4


def test_disabled_tracer_emits_nothing(medium_er):
    """The default NoOpTracer must stay installed and collect nothing."""
    from repro.obs import NOOP_TRACER, get_tracer

    s, t = random_reachable_pair(medium_er, seed=3)
    assert get_tracer() is NOOP_TRACER
    result = repro.solve(medium_er, s, t, k=4)
    assert len(result.paths) == 4
    assert get_tracer() is NOOP_TRACER

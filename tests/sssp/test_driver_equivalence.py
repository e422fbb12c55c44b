"""Bucket-driver equivalence: the lazy per-bucket driver against a rescan.

Every Δ-stepping backend runs through the one shared bucket driver, so the
scalar-vs-vectorized suite cannot notice a change to the driver itself —
both sides would change together.  This module keeps the earlier
single-dirty-list driver verbatim as :func:`reference_run_buckets` (it
rescans every pending vertex at each bucket selection) and asserts that the
shipped driver hands the engines the identical batch sequence: the same
``dist`` and ``parent``, the same phase log, and the same
cancellation-checkpoint cadence.
"""

import importlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cancel import cancellation_active, checkpoint, fault_scope
from repro.core.compaction import compact_status_array
from repro.graph.build import from_edge_array
from repro.graph.generators import erdos_renyi, grid_network
from repro.sssp.delta_stepping import _EMPTY_I64, delta_stepping

# the module, not the same-named function the package re-exports
ds = importlib.import_module("repro.sssp.delta_stepping")


def reference_run_buckets(
    engine,
    source,
    delta,
    stats,
    deadline,
    recorder,
    needs,
    in_r,
) -> None:
    """The single-dirty-list bucket driver, kept as the reference."""
    dist = engine.dist
    parent = engine.parent
    dist[source] = 0.0
    parent[source] = source
    needs[source] = True
    dirty: list[np.ndarray] = [np.asarray([source], dtype=np.int64)]
    check_cancel = cancellation_active(deadline)

    while dirty:
        if check_cancel:
            checkpoint(deadline, "sssp.delta")
        pending = dirty[0] if len(dirty) == 1 else np.concatenate(dirty)
        # lazy deletion: drop cleared flags, then duplicates from re-improves
        pending = pending[needs[pending]]
        if pending.size == 0:
            break
        pending = np.unique(pending)
        bucket_ids = np.floor_divide(dist[pending], delta).astype(np.int64)
        i = int(bucket_ids.min())
        lo, hi = i * delta, (i + 1) * delta
        in_bucket = bucket_ids == i
        frontier = pending[in_bucket]
        rest = pending[~in_bucket]
        dirty = [rest] if rest.size else []
        settles: list[np.ndarray] = []

        # ---- light-edge inner loop: may reinsert into bucket i ----
        while frontier.size:
            if check_cancel:
                checkpoint(deadline, "sssp.delta")
            needs[frontier] = False
            newly_removed = frontier[~in_r[frontier]]
            if newly_removed.size:
                in_r[newly_removed] = True
                settles.append(newly_removed)
            improved, nedges = engine.relax(frontier, True, f"light-{i}", recorder)
            stats.edges_relaxed += nedges
            stats.phases += 1
            stats.phase_work.append(nedges)
            if improved.size:
                here = dist[improved] < hi  # improvements never drop below lo
                outside = improved[~here]
                # only vertices not already flagged join the dirty list —
                # every needs-True vertex stays listed at most once per flip
                fresh_outside = outside[~needs[outside]]
                needs[improved] = True
                if fresh_outside.size:
                    dirty.append(fresh_outside)
                frontier = improved[here]
            else:
                frontier = _EMPTY_I64

        # ---- heavy edges of everything settled in bucket i, once ----
        settled_now = settles[0] if len(settles) == 1 else np.concatenate(settles)
        stats.vertices_settled += int(settled_now.size)
        improved, nedges = engine.relax(settled_now, False, f"heavy-{i}", recorder)
        stats.edges_relaxed += nedges
        stats.phases += 1
        stats.phase_work.append(nedges)
        if improved.size:
            # heavy candidates exceed lo + Δ = hi, so all land in later buckets
            fresh = improved[~needs[improved]]
            needs[improved] = True
            if fresh.size:
                dirty.append(fresh)
        in_r[settled_now] = False  # sparse reset for the next bucket


SHIPPED = ds._run_buckets


@contextmanager
def driver(run_buckets):
    """Run :func:`delta_stepping` through ``run_buckets``."""
    ds._run_buckets = run_buckets
    try:
        yield
    finally:
        ds._run_buckets = SHIPPED


def counting_hook():
    """A fault hook counting ``sssp.delta`` checkpoints."""
    hits = [0]

    def hook(stage):
        if stage == "sssp.delta":
            hits[0] += 1

    return hook, hits


def traced_run(graph, source, **kw):
    """One run: result and checkpoint count."""
    hook, hits = counting_hook()
    with fault_scope(hook):
        res = delta_stepping(graph, source, **kw)
    return res, hits[0]


def assert_same_run(a, b):
    assert np.array_equal(a.dist, b.dist, equal_nan=True)
    assert np.array_equal(a.parent, b.parent)
    assert a.stats.phases == b.stats.phases
    assert a.stats.phase_work == b.stats.phase_work
    assert a.stats.edges_relaxed == b.stats.edges_relaxed
    assert a.stats.vertices_settled == b.stats.vertices_settled


def assert_driver_equivalent(graph, source, **kw):
    res, hits = traced_run(graph, source, **kw)
    with driver(reference_run_buckets):
        ref, ref_hits = traced_run(graph, source, **kw)
    assert_same_run(res, ref)
    assert hits == ref_hits


@st.composite
def tied_graphs(draw, max_n=24, max_m=90):
    """A digraph with small integer weights (many equal-cost paths), a
    source, a Δ, and an optional vertex mask keeping the source (masked-out
    vertices are dropped by a status-array view, see :func:`masked`)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    g = from_edge_array(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )
    source = draw(st.integers(0, n - 1))
    delta = draw(st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0]))
    mask = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = np.asarray(keep, dtype=bool)
        mask[source] = True
    return g, source, delta, mask


def masked(graph, mask, keep_edges=None):
    """``graph`` with the vertices ``mask`` leaves out (and the edges
    ``keep_edges`` leaves out) dropped, as a status-array view."""
    if mask is None and keep_edges is None:
        return graph
    if mask is None:
        mask = np.ones(graph.num_vertices, dtype=bool)
    return compact_status_array(graph, mask, keep_edges)


class TestDriverMatchesReference:
    @given(tied_graphs(), st.sampled_from(["scalar", "vectorized"]))
    @settings(max_examples=120, deadline=None)
    def test_tied_weights_deltas_and_masks(self, case, backend):
        g, s, delta, mask = case
        assert_driver_equivalent(masked(g, mask), s, delta=delta, backend=backend)

    @given(tied_graphs())
    @settings(max_examples=40, deadline=None)
    def test_compaction_view(self, case):
        """The ``edge_mask`` path: a status-array view drops a third of the
        edges through the engine's per-batch mask filter."""
        g, s, delta, mask = case
        keep_e = np.ones(g.num_edges, dtype=bool)
        keep_e[::3] = False
        assert_driver_equivalent(masked(g, mask, keep_e), s, delta=delta)

    @pytest.mark.parametrize("mult", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_er_graphs(self, seed, mult):
        g = erdos_renyi(300, 6.0, seed=seed)
        assert_driver_equivalent(g, 0, delta=ds.choose_delta(g) * mult)

    def test_grid_with_mask(self):
        g = grid_network(15, 15, seed=2)
        mask = np.random.default_rng(2).random(g.num_vertices) > 0.2
        mask[0] = True
        assert_driver_equivalent(masked(g, mask), 0)

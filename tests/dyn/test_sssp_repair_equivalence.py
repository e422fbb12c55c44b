"""Carried SSSP trees equal cold trees at every live-graph version.

:meth:`repro.core.batch.BatchPeeK.rebind` carries each cached tree onto
the new snapshot (:func:`repro.sssp.repair.carry_tree`) instead of
evicting it.  The guard: after every batch, each entry still cached —
untouched, repaired, or refilled — has the ``dist``, the ``parent_of(v)``
answers (read before ``.parent``) and the ``parent`` array of a cold
:func:`~repro.sssp.dijkstra.dijkstra_tree` on the new snapshot, bitwise.
The parents are read on a copy, so the cached trees keep only the state
the streams themselves give them (a few memoised parents, a built array
on some), and a stale SciPy predecessor shows in the copy's ``parent``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchPeeK
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream, MutationBatch
from repro.errors import InvalidWeightError, SanitizerError, VertexError
from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.suite import suite_graph
from repro.sssp.dijkstra import CompiledTree, dijkstra_tree
from repro.sssp.repair import REPAIR_FLOOR, repair_limit
from tests.dyn.test_live_csr_equivalence import batches, loaded_graphs

ROOTS = 4


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_cold_equal(bp: BatchPeeK, key, tree) -> None:
    direction, root = key
    graph = bp.graph if direction == "fwd" else bp.graph.reverse()
    cold = dijkstra_tree(graph, root)
    assert _same(tree.dist, cold.dist), key
    probe = CompiledTree(
        tree._graph, root, tree.dist, tree._pred, tree.stats,
        resolved=dict(tree._resolved), parent=tree._parent,
    )
    want = cold.parent
    assert [probe.parent_of(v) for v in range(want.size)] == want.tolist(), key
    assert _same(probe.parent, want), key
    fresh = CompiledTree(tree._graph, root, tree.dist, tree._pred, tree.stats)
    assert _same(fresh.parent, want), key  # the predecessors alone


def fill(bp: BatchPeeK, roots, rng) -> None:
    """Cache both halves at ``roots`` and give the trees some read state."""
    for r in roots:
        bp.forward_sssp(r)
        bp.reverse_sssp(r)
    trees = list(bp._cache.values())
    n = bp.graph.num_vertices
    for tree in trees[::2]:
        for v in rng.integers(0, n, size=8).tolist():
            tree.parent_of(v)
    trees[-1].parent  # one tree with a built parent array


def drive(graph, *, seed: int, versions: int, **kinds) -> dict:
    live = LiveGraph(graph)
    bp = BatchPeeK(live.graph)
    rng = np.random.default_rng(seed)
    roots = rng.choice(graph.num_vertices, size=ROOTS, replace=False).tolist()
    stream = IncidentStream(seed=seed, batch_size=4, **kinds)
    for _ in range(versions):
        fill(bp, roots, rng)
        snap = live.apply(stream.next_batch(live))
        bp.rebind(snap.graph, version=snap.version, summary=snap.summary)
        for key, tree in bp._cache.items():
            assert tree._graph is (snap.graph if key[0] == "fwd" else snap.graph.reverse())
            assert_cold_equal(bp, key, tree)
    return bp.cache_info


STREAMS = {
    "all-five": {},
    "no-tombstones": {"p_tombstone": 0.0},
    "decreases": {"p_close": 0.1, "p_congest": 0.3, "p_clear": 0.4, "p_reopen": 0.2,
                  "p_tombstone": 0.0},
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_erdos_renyi_streams(stream, seed):
    graph = erdos_renyi(80, 3.0, seed=seed)
    info = drive(graph, seed=seed, versions=25, **STREAMS[stream])
    assert info["repaired"] > 0


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("name", ["LJ", "WL", "LJU"])
def test_suite_streams(name, stream):
    info = drive(suite_graph(name, "tiny"), seed=7, versions=20, **STREAMS[stream])
    assert info["repaired"] > 0


@given(loaded_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_hypothesis_multigraph_streams(case, data):
    """Parallel edges, self-loops, dead vertices, duplicate and adversarial
    edits: every root's two trees, carried batch after batch."""
    graph, alive = case
    live = LiveGraph(graph, alive=alive)
    bp = BatchPeeK(live.graph)
    for _ in range(data.draw(st.integers(1, 5))):
        for r in range(graph.num_vertices):
            bp.forward_sssp(r).parent_of(r)
            bp.reverse_sssp(r)
        bp.forward_sssp(0).parent  # one built parent array
        try:
            snap = live.apply(data.draw(batches(live.graph, live.alive)))
        except (InvalidWeightError, VertexError):
            continue  # an invalid batch changes nothing
        bp.rebind(snap.graph, version=snap.version, summary=snap.summary)
        for key, tree in bp._cache.items():
            assert_cold_equal(bp, key, tree)


def test_unit_weights_with_ties():
    info = drive(erdos_renyi(80, 4.0, weight_scheme="unit", seed=3), seed=3,
                 versions=25, **STREAMS["decreases"])
    assert info["repaired"] > 0


# ----------------------------------------------------------------------
# planted cases
# ----------------------------------------------------------------------
def _rebind(live: LiveGraph, bp: BatchPeeK, batch: MutationBatch):
    snap = live.apply(batch)
    bp.rebind(snap.graph, version=snap.version, summary=snap.summary)
    return snap


def test_raised_predecessor_that_is_not_the_loop_parent():
    # vertex 3 has two tight in-edges: SciPy's predecessor is 2, the
    # loop's parent is 1 (equal distances, smaller id)
    live = LiveGraph(from_edge_list(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]))
    bp = BatchPeeK(live.graph)
    tree = bp.forward_sssp(0)
    assert (int(tree._pred[3]), tree.parent_of(3)) == (2, 1)
    _rebind(live, bp, MutationBatch.build(reweights=[(2, 3, 5.0)]))
    carried = bp._cache[("fwd", 0)]
    assert bp.cache_info["repaired"] == 1
    assert int(carried._pred[3]) == 1  # no longer tight: moved to the parent
    assert_cold_equal(bp, ("fwd", 0), carried)


def test_tie_making_decrease_moves_the_parent():
    live = LiveGraph(from_edge_list(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 0.5), (2, 3, 3.0)]))
    bp = BatchPeeK(live.graph)
    assert bp.forward_sssp(0).parent_of(3) == 1
    _rebind(live, bp, MutationBatch.build(reweights=[(2, 3, 1.5)]))
    carried = bp._cache[("fwd", 0)]
    assert carried.dist[3] == 2.0 and carried.parent_of(3) == 2
    assert_cold_equal(bp, ("fwd", 0), carried)


def test_tree_edge_at_the_root():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0), (3, 4, 1.0)]
    live = LiveGraph(from_edge_list(5, edges))
    bp = BatchPeeK(live.graph)
    bp.forward_sssp(0)
    bp.reverse_sssp(4)
    _rebind(live, bp, MutationBatch.build(reweights=[(0, 1, 4.0)]))
    assert bp.cache_info["repaired"] == 2
    for key, tree in bp._cache.items():
        assert_cold_equal(bp, key, tree)
    assert bp._cache[("fwd", 0)].parent_of(3) == 0  # the bypass took over
    _rebind(live, bp, MutationBatch.build(deletes=[(0, 1)]))
    assert np.isinf(bp._cache[("fwd", 0)].dist[1])
    for key, tree in bp._cache.items():
        assert_cold_equal(bp, key, tree)


def test_subtree_over_the_cap_is_evicted():
    n = 3 * REPAIR_FLOOR
    assert repair_limit(n) == REPAIR_FLOOR  # the floor, not n // 64 = 1
    chain = [(v, v + 1, 1.0) for v in range(n - 1)]
    live = LiveGraph(from_edge_list(n, chain))
    bp = BatchPeeK(live.graph)
    bp.forward_sssp(0)
    bp.forward_sssp(n - 8)
    _rebind(live, bp, MutationBatch.build(reweights=[(1, 2, 2.0)]))
    info = bp.cache_info
    # below vertex 2 hang n - 2 vertices: over the cap; the tree rooted
    # past the edge is untouched
    assert (info["invalidated"], info["repaired"], info["forward_cached"]) == (1, 0, 1)
    assert_cold_equal(bp, ("fwd", n - 8), bp._cache[("fwd", n - 8)])
    _rebind(live, bp, MutationBatch.build(reweights=[(n - 3, n - 2, 2.0)]))
    assert bp.cache_info["repaired"] == 1  # a short subtree is repaired


def test_tombstone_keeps_the_region_rule():
    live = LiveGraph(from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (3, 2, 1.0)]))
    bp = BatchPeeK(live.graph)
    bp.forward_sssp(0)
    bp.forward_sssp(3)
    _rebind(live, bp, MutationBatch.build(tombstones=[1]))
    assert list(bp._cache) == [("fwd", 3)]  # 1 is unreached from 3


# ----------------------------------------------------------------------
# SAN-DYN and the derived transpose
# ----------------------------------------------------------------------
def test_san_dyn_audits_carried_trees(monkeypatch):
    live = LiveGraph(erdos_renyi(60, 3.0, seed=5))
    bp = BatchPeeK(live.graph, sanitize=True)
    stream = IncidentStream(seed=5, p_tombstone=0.0)
    for _ in range(10):
        bp.forward_sssp(0)
        bp.reverse_sssp(1)
        _rebind(live, bp, stream.next_batch(live))  # sound carries pass
    assert bp.cache_info["repaired"] > 0

    def stale(tree, graph, *args, **kwargs):  # re-home without repairing
        return CompiledTree(graph, tree.source, tree.dist, tree._pred, tree.stats), True

    monkeypatch.setattr("repro.core.batch.carry_tree", stale)
    bp.forward_sssp(0)
    with pytest.raises(SanitizerError, match="SAN-DYN"):
        for _ in range(10):
            _rebind(live, bp, stream.next_batch(live))


def test_derived_transpose_equals_a_fresh_one():
    graph = suite_graph("LJ", "tiny")
    graph.reverse()
    weights = graph.weights * np.random.default_rng(0).uniform(0.5, 2.0, graph.num_edges)
    derived = graph.with_weights(weights, np.arange(graph.num_edges))
    fresh = CSRGraph(graph.indptr, graph.indices, weights).reverse()
    rev = derived._reverse
    assert rev is not None and rev._reverse is derived
    for name in ("indptr", "indices", "weights"):
        assert _same(getattr(rev, name), getattr(fresh, name)), name
    assert derived.reverse() is rev


def test_live_graph_derives_the_transpose_of_a_weights_only_batch():
    live = LiveGraph(suite_graph("WL", "tiny"))
    live.graph.reverse()
    g = live.graph
    e = int(np.flatnonzero(np.diff(g.indptr))[0])
    u, v = e, int(g.indices[g.indptr[e]])
    snap = live.apply(MutationBatch.build(reweights=[(u, v, 9.0)]))
    assert snap.graph._reverse is not None  # derived, not rebuilt on read
    fresh = CSRGraph(snap.graph.indptr, snap.graph.indices, snap.graph.weights).reverse()
    for name in ("indptr", "indices", "weights"):
        assert _same(getattr(snap.graph.reverse(), name), getattr(fresh, name)), name



def test_live_graph_derives_the_transpose_of_a_lighter_insert():
    # the batch's only change lowers an existing edge through an insert,
    # so the derivation scatters that one edge into the old transpose
    live = LiveGraph(suite_graph("LJ", "tiny"))
    live.graph.reverse()
    g = live.graph
    u = int(np.flatnonzero(np.diff(g.indptr))[0])
    e = int(g.indptr[u])
    v, w = int(g.indices[e]), float(g.weights[e])
    for _ in range(2):  # the second write reuses the handed-on slot array
        snap = live.apply(MutationBatch.build(inserts=[(u, v, w / 2)]))
        w /= 2
        assert snap.graph.indptr is g.indptr  # weights-only: structure shared
        assert snap.graph._reverse is not None
        assert snap.graph._transpose_slot is not None
        fresh = CSRGraph(snap.graph.indptr, snap.graph.indices, snap.graph.weights).reverse()
        for name in ("indptr", "indices", "weights"):
            assert _same(getattr(snap.graph.reverse(), name), getattr(fresh, name)), name

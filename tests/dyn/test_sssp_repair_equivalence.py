"""Carried SSSP trees equal cold trees at every live-graph version.

:meth:`repro.core.batch.BatchPeeK.rebind` carries each cached tree onto
the new snapshot (:func:`repro.sssp.repair.carry_trees`) instead of
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
from repro.sssp.dijkstra import CompiledTree, TreeArrays, dijkstra_tree
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
        tree._graph, root, TreeArrays(tree.dist, tree._pred), tree.stats,
        resolved=dict(tree._resolved), parent=tree._parent,
    )
    want = cold.parent
    assert [probe.parent_of(v) for v in range(want.size)] == want.tolist(), key
    assert _same(probe.parent, want), key
    fresh = CompiledTree(tree._graph, root, TreeArrays(tree.dist, tree._pred), tree.stats)
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
        bp.rebind(snap)
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
        bp.rebind(snap)
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
    bp.rebind(snap)
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


def test_a_relabel_over_the_cap_leaves_the_old_tree_whole():
    n = 3 * REPAIR_FLOOR
    live = LiveGraph(from_edge_list(n, [(v, v + 1, 1.0) for v in range(n - 1)]))
    bp = BatchPeeK(live.graph)
    held = bp.forward_sssp(0)
    cold = dijkstra_tree(live.graph, 0)
    # a shortcut lowers the n - 5 vertices past 4: the relabel gives up
    # midway, and what it lowered goes back
    _rebind(live, bp, MutationBatch.build(inserts=[(0, 5, 0.5)]))
    assert bp.cache_info["invalidated"] == 1 and not bp._cache
    assert _same(held.dist, cold.dist) and _same(held._pred, cold._pred)


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

    def stale(trees, graph, *args, **kwargs):  # re-home without repairing
        return [(CompiledTree(graph, t.source, t._arrays, t.stats), True) for t in trees]

    monkeypatch.setattr("repro.core.batch.carry_trees", stale)
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


def assert_matrix_shares_structure(graph, prev) -> None:
    """``graph``'s SciPy matrix equals a freshly built ``csr_matrix``
    array for array and shares ``prev``'s int32 index buffers."""
    from scipy.sparse import csr_matrix

    n = graph.num_vertices
    got = graph.sparse_matrix()
    fresh = csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(n, n))
    for name in ("data", "indices", "indptr"):
        assert _same(getattr(got, name), getattr(fresh, name)), name
    assert got.shape == fresh.shape
    assert np.shares_memory(got.data, graph.weights)
    assert np.shares_memory(got.indices, prev.sparse_matrix().indices)
    assert np.shares_memory(got.indptr, prev.sparse_matrix().indptr)


def test_weights_only_snapshot_shares_the_matrix_index_arrays():
    graph = suite_graph("LJ", "tiny")
    graph.sparse_matrix()
    graph.reverse().sparse_matrix()
    rng = np.random.default_rng(1)
    snap = graph
    for _ in range(3):  # handed on down a chain of snapshots
        changed = rng.choice(graph.num_edges, 5, replace=False)
        weights = snap.weights.copy()
        weights[changed] *= 2.0
        snap = snap.with_weights(weights, changed)
        assert_matrix_shares_structure(snap, graph)
        assert_matrix_shares_structure(snap.reverse(), graph.reverse())


def test_an_unbuilt_matrix_hands_nothing_on():
    base = suite_graph("WL", "tiny")  # cached: other tests build its matrix
    graph = CSRGraph(base.indptr, base.indices, base.weights)
    snap = graph.with_weights(graph.weights * 2.0, np.arange(graph.num_edges))
    assert snap._matrix_index is None
    assert graph._matrix is None  # nothing was built behind the caller's back


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


# ----------------------------------------------------------------------
# several batches in a row
# ----------------------------------------------------------------------
# tie-free: every reached vertex has one tight in-edge, so a carried
# tree's SciPy predecessors must equal a cold tree's, bitwise
CHAIN = [(0, 1, 1.0), (1, 2, 1.5), (0, 2, 3.25), (2, 3, 1.25), (3, 4, 0.75),
         (1, 4, 4.5), (4, 5, 2.0), (0, 5, 9.0)]


def assert_all_cold(bp: BatchPeeK) -> None:
    """Every cached tree equals a cold one: ``dist``, ``parent``, every
    ``parent_of`` and, on a tie-free graph, the SciPy predecessors."""
    for key, tree in bp._cache.items():
        assert_cold_equal(bp, key, tree)
        direction, root = key
        graph = bp.graph if direction == "fwd" else bp.graph.reverse()
        assert _same(tree._pred, dijkstra_tree(graph, root)._pred), key


def carry_through(edges, batches, *, n=6, dedup=True) -> BatchPeeK:
    """Cache both trees at every root, then rebind through ``batches``,
    checking every surviving tree after each one."""
    live = LiveGraph(from_edge_list(n, edges, dedup=dedup))
    bp = BatchPeeK(live.graph)
    for r in range(n):
        bp.forward_sssp(r).parent_of(n - 1)
        bp.reverse_sssp(r)
    bp.forward_sssp(0).parent  # one built parent array
    for batch in batches:
        _rebind(live, bp, batch)
        assert_all_cold(bp)
    return bp


def test_insert_then_delete_one_edge():
    bp = carry_through(CHAIN, [
        MutationBatch.build(inserts=[(0, 3, 2.0)]),  # a shortcut to 3, 4 and 5
        MutationBatch.build(deletes=[(0, 3)]),
    ])
    info = bp.cache_info
    assert info["repaired"] > 0 and info["untouched"] > 0 and info["invalidated"] == 0


def test_raise_then_lower_back():
    bp = carry_through(CHAIN, [
        MutationBatch.build(reweights=[(1, 2, 4.0)]),  # 2 moves to 0 -> 2
        MutationBatch.build(reweights=[(1, 2, 1.5)]),
    ])
    assert bp.cache_info["repaired"] > 0


def test_tombstone_between_two_batches():
    bp = carry_through(CHAIN, [
        MutationBatch.build(reweights=[(3, 4, 0.5)]),
        MutationBatch.build(tombstones=[5]),
        MutationBatch.build(reweights=[(2, 3, 2.0)]),
    ])
    info = bp.cache_info
    # every tree that reaches 5 went: all six forward ones and rev(5)
    assert info["invalidated"] == 7 and info["repaired"] > 0
    assert sorted(bp._cache) == [("rev", r) for r in range(5)]


def test_parallel_edges():
    edges = CHAIN + [(1, 2, 2.125), (3, 4, 1.625)]
    bp = carry_through(edges, [
        MutationBatch.build(reweights=[(1, 2, 3.0)]),  # the first copy: 2.125 now leads
        MutationBatch.build(reweights=[(3, 4, 0.25)]),
        MutationBatch.build(deletes=[(1, 2)]),  # every copy goes
        MutationBatch.build(inserts=[(1, 2, 1.5)]),
    ], dedup=False)
    assert bp.cache_info["repaired"] > 0


def test_a_missed_tree_shares_its_arrays_and_a_touched_one_does_not():
    live = LiveGraph(from_edge_list(6, CHAIN))
    bp = BatchPeeK(live.graph)
    near, far = bp.forward_sssp(0), bp.forward_sssp(3)
    near.parent, far.parent  # built arrays, to see them shared or not
    far.parent_of(4)
    # (1, 2) is a tree edge from 0 and unreached from 3
    _rebind(live, bp, MutationBatch.build(reweights=[(1, 2, 4.0)]))
    assert (bp.cache_info["repaired"], bp.cache_info["untouched"]) == (1, 1)
    moved, kept = bp._cache[("fwd", 0)], bp._cache[("fwd", 3)]
    assert kept is not far and kept._graph is bp.graph
    for name in ("dist", "_pred", "_parent", "_resolved"):
        assert getattr(kept, name) is getattr(far, name), name
        assert getattr(moved, name) is not getattr(near, name), name
    assert_all_cold(bp)


@pytest.mark.parametrize("reads", [(0, 1, 2), (2,)], ids=["each", "last"])
def test_superseded_tree_keeps_its_version(reads):
    """A tree a memoised decision held from before the writes reads its
    own version's ``dist``, predecessors and ``parent_of`` after one carry
    and after three (an untouched re-home, then two repairs), whether it
    was read in between or first after the third."""
    live = LiveGraph(from_edge_list(6, CHAIN))
    bp = BatchPeeK(live.graph)
    held = bp.prepare(0, 5, 2).prune.tree_src
    held.parent_of(4)  # some memo, shared with the re-homed tree
    cold = dijkstra_tree(live.graph, 0)

    def assert_own_version():
        assert _same(held.dist, cold.dist) and _same(held._pred, cold._pred)
        probe = CompiledTree(
            held._graph, 0, TreeArrays(held.dist, held._pred), held.stats,
            resolved=dict(held._resolved), parent=held._parent,
        )
        assert [probe.parent_of(v) for v in range(6)] == cold.parent.tolist()
        assert [held.parent_of(v) for v in range(6)] == cold.parent.tolist()

    batches = [
        MutationBatch.build(reweights=[(0, 5, 12.0)]),  # not tight: re-homed
        # two repairs, the second wider than the first, so a reader that
        # skips or misorders an undo log sees the wrong version
        MutationBatch.build(reweights=[(4, 5, 2.5)]),  # moves 5
        MutationBatch.build(reweights=[(1, 2, 4.0)]),  # moves 2, 3, 4 and 5
    ]
    for i, batch in enumerate(batches):
        _rebind(live, bp, batch)
        bp.forward_sssp(0).parent_of(5)  # reads on the carried tree
        if i in reads:
            assert_own_version()
    assert bp.cache_info["untouched"] >= 1 and bp.cache_info["repaired"] >= 2
    assert held.stats.edges_relaxed == cold.stats.edges_relaxed
    assert_all_cold(bp)

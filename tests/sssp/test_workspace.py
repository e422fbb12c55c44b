"""One Dijkstra loop, pinned to the fresh-allocation loop it replaced.

``dijkstra`` runs a single epoch-stamped relaxation loop on an
:class:`~repro.sssp.workspace.SSSPWorkspace` — the caller's, or a throwaway
one when no workspace is passed.  :func:`_reference_dijkstra` keeps the
per-call-allocation loop that used to serve workspace-less calls, verbatim
but for the ``cutoff`` option no caller set.  The shipped kernel must match
it bitwise — ``dist``, ``parent``, ``reached``, every ``SSSPStats`` field and
the count of ``sssp.dijkstra`` cancellation checkpoints (virtual-time
serving bills per checkpoint) — on every banned-vertex input form, banned
edges, target early exits and status-array compaction views; and a
workspace reused across arbitrarily many back-to-back queries must stay
indistinguishable from it.

The same loop is A* when given ``potential=``.  An explicit all-zero
potential must stay bitwise-equal to the reference, checkpoints included;
exact reverse distances must give the reference's target distance bitwise
and a valid path of that cost, settling no more vertices.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitize import check_workspace
from repro.cancel import (
    SETTLE_CHECK_INTERVAL,
    cancellation_active,
    checkpoint,
    fault_scope,
)
from repro.core.compaction import compact_status_array
from repro.errors import VertexError
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.paths import INF
from repro.sssp.dijkstra import dijkstra
from repro.sssp.lazy_dijkstra import LazyDijkstra
from repro.sssp.result import SSSPResult, SSSPStats
from repro.sssp.workspace import SSSPWorkspace


def _reference_dijkstra(
    graph,
    source,
    *,
    target=None,
    banned_vertices=None,
    banned_edges=None,
    deadline=None,
):
    """The fresh-allocation Dijkstra loop, kept as the reference."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise VertexError(f"source {source} out of range [0, {n})")
    if target is not None and not 0 <= target < n:
        raise VertexError(f"target {target} out of range [0, {n})")

    banned_mask: np.ndarray | None
    if banned_vertices is None:
        banned_mask = None
    elif isinstance(banned_vertices, np.ndarray) and banned_vertices.dtype == bool:
        banned_mask = banned_vertices
    else:
        banned_mask = np.zeros(n, dtype=bool)
        ids = list(banned_vertices)
        if ids:
            banned_mask[np.asarray(ids, dtype=np.int64)] = True
    if banned_mask is not None and banned_mask[source]:
        raise VertexError(f"source {source} is banned")

    dist = np.full(n, INF, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    stats = SSSPStats()

    dist[source] = 0.0
    parent[source] = source
    heap: list[tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop

    begins, ends, indices, weights, edge_mask = graph.adjacency_arrays()
    check_edges = bool(banned_edges)
    check_cancel = cancellation_active(deadline)
    if check_cancel:
        checkpoint(deadline, "sssp.dijkstra")

    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue  # stale heap entry (lazy deletion)
        settled[u] = True
        stats.vertices_settled += 1
        if (
            check_cancel
            and stats.vertices_settled & (SETTLE_CHECK_INTERVAL - 1) == 0
        ):
            checkpoint(deadline, "sssp.dijkstra")
        if u == target:
            break
        lo, hi = begins[u], ends[u]
        for e in range(lo, hi):
            if edge_mask is not None and not edge_mask[e]:
                continue
            v = indices[e]
            if settled[v]:
                continue
            if banned_mask is not None and banned_mask[v]:
                continue
            if check_edges and (u, v) in banned_edges:  # type: ignore[operator]
                continue
            stats.edges_relaxed += 1
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                stats.heap_pushes += 1

    stats.phases = stats.vertices_settled
    return SSSPResult(source=source, dist=dist, parent=parent, stats=stats)


def _counted(kernel, graph, source, **kw):
    """Run ``kernel`` under a fault hook counting ``sssp.dijkstra``
    checkpoints; return the result and the count."""
    hits = [0]

    def hook(stage):
        if stage == "sssp.dijkstra":
            hits[0] += 1

    with fault_scope(hook):
        res = kernel(graph, source, **kw)
    return res, hits[0]


def assert_pinned(graph, source, potential=None, **kw):
    """The shipped kernel (given ``potential``, if any) equals the reference
    loop bitwise."""
    got, hits = _counted(dijkstra, graph, source, potential=potential, **kw)
    ref, ref_hits = _counted(_reference_dijkstra, graph, source, **kw)
    assert isinstance(got, SSSPResult)
    assert got.source == ref.source
    assert got.dist.dtype == ref.dist.dtype
    assert got.dist.tobytes() == ref.dist.tobytes()
    assert got.parent.dtype == ref.parent.dtype
    assert got.parent.tobytes() == ref.parent.tobytes()
    n = graph.num_vertices
    assert [got.reached(v) for v in range(n)] == [ref.reached(v) for v in range(n)]
    assert got.num_reached() == ref.num_reached()
    assert got.stats == ref.stats  # every SSSPStats field
    assert hits == ref_hits


BAN_FORMS = ["none", "list", "set", "frozenset", "ndarray_ids"]


def _ban_input(form, ids, n):
    if form == "none":
        return None
    if form == "list":
        return list(ids)
    if form == "set":
        return set(ids)
    if form == "frozenset":
        return frozenset(ids)
    return np.asarray(sorted(ids), dtype=np.int64)


@st.composite
def tied_queries(draw, max_n=24, max_m=90, with_target=False):
    """A digraph with small integer weights (many equal-cost paths, so the
    heap's tie-break decides ``parent``), a source, and query options: an
    optional target (always one when ``with_target``), banned vertices in
    one of every accepted input form, and banned edges."""
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
    kw = {}
    if with_target or draw(st.booleans()):
        kw["target"] = draw(st.integers(0, n - 1))
    ids = draw(st.sets(st.integers(0, n - 1).filter(lambda v: v != source)))
    kw["banned_vertices"] = _ban_input(draw(st.sampled_from(BAN_FORMS)), ids, n)
    if m and draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, m - 1), max_size=4))
        kw["banned_edges"] = {(src[i], dst[i]) for i in picks}
    return g, source, kw


class TestPinnedToReference:
    @given(tied_queries())
    @settings(max_examples=200, deadline=None)
    def test_tied_weights_bans_and_targets(self, case):
        g, s, kw = case
        assert_pinned(g, s, **kw)

    @given(tied_queries())
    @settings(max_examples=60, deadline=None)
    def test_compaction_view(self, case):
        """The ``edge_mask`` path: a status-array view drops a third of the
        edges inside the relaxation loop."""
        g, s, kw = case
        keep_v = np.ones(g.num_vertices, dtype=bool)
        keep_e = np.ones(g.num_edges, dtype=bool)
        keep_e[::3] = False
        assert_pinned(compact_status_array(g, keep_v, keep_e), s, **kw)

    @pytest.mark.parametrize("form", BAN_FORMS)
    @pytest.mark.parametrize("seed", range(2))
    def test_checkpoint_cadence_on_large_searches(self, seed, form):
        """Searches settling several ``SETTLE_CHECK_INTERVAL`` batches, full
        and target-stopped, hit the same checkpoints."""
        g = erdos_renyi(1500, 4.0, seed=seed)
        n = g.num_vertices
        bans = _ban_input(form, range(1, n, 37), n)
        first_hops = g.indices[g.indptr[0] : g.indptr[1]].tolist()
        assert_pinned(g, 0, banned_vertices=bans)
        assert_pinned(g, 0, banned_vertices=bans, target=n - 2)
        assert_pinned(
            g, 0, banned_vertices=bans, banned_edges={(0, first_hops[0])}
        )
        assert_pinned(
            g, 0, potential=[0.0] * n, banned_vertices=bans, target=n - 2
        )
        _, hits = _counted(_reference_dijkstra, g, 0, banned_vertices=bans)
        assert hits > 2  # the case really spans several checkpoint batches

    def test_grid_banned_edges_and_target(self):
        g = grid_network(20, 20, seed=3)
        assert_pinned(g, 0, target=399, banned_edges={(0, 1), (20, 21)})


def _reverse_distances(graph, target):
    """Exact distances to ``target`` in the whole graph: a consistent A*
    potential for any search on it, whatever the bans."""
    return _reference_dijkstra(graph.reverse(), target).dist


def _ban_ids(bans):
    if bans is None:
        return set()
    if isinstance(bans, np.ndarray) and bans.dtype == bool:
        return set(np.flatnonzero(bans).tolist())
    return {int(v) for v in bans}


def assert_astar_exact(graph, source, potential, **kw):
    """A* reaches the target at the reference distance, bitwise, along a
    valid path of that cost, settling no more vertices."""
    got = dijkstra(graph, source, potential=potential, **kw)
    ref = _reference_dijkstra(graph, source, **kw)
    t = kw["target"]
    assert got.reached(t) == ref.reached(t)
    assert np.float64(got.dist_of(t)).tobytes() == np.float64(
        ref.dist_of(t)
    ).tobytes()
    assert got.stats.vertices_settled <= ref.stats.vertices_settled
    if not ref.reached(t):
        return
    path = got.reconstruct(t)
    assert path[0] == source and path[-1] == t
    banned = _ban_ids(kw.get("banned_vertices"))
    banned_edges = kw.get("banned_edges") or set()
    cost = 0.0
    for u, v in zip(path, path[1:]):
        assert v not in banned
        assert (u, v) not in banned_edges
        w = graph.edge_weight(u, v)
        assert w is not None
        cost += w
    assert cost == got.dist_of(t)


class TestAStarPotential:
    @given(tied_queries(with_target=True))
    @settings(max_examples=150, deadline=None)
    def test_zero_potential_is_plain_dijkstra(self, case):
        g, s, kw = case
        assert_pinned(g, s, potential=[0.0] * g.num_vertices, **kw)
        assert_pinned(g, s, potential=np.zeros(g.num_vertices), **kw)

    @given(tied_queries(with_target=True))
    @settings(max_examples=200, deadline=None)
    def test_reverse_distance_potential(self, case):
        g, s, kw = case
        pot = _reverse_distances(g, kw["target"])
        assert_astar_exact(g, s, pot.tolist(), **kw)
        assert_astar_exact(g, s, pot, **kw)

    @given(tied_queries(with_target=True))
    @settings(max_examples=60, deadline=None)
    def test_reverse_distance_potential_on_compaction_view(self, case):
        g, s, kw = case
        keep_v = np.ones(g.num_vertices, dtype=bool)
        keep_e = np.ones(g.num_edges, dtype=bool)
        keep_e[::3] = False
        view = compact_status_array(g, keep_v, keep_e)
        assert_astar_exact(view, s, _reverse_distances(view, kw["target"]), **kw)

    @given(
        tied_queries(with_target=True),
        st.booleans(),
        st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_limit_cuts_only_beyond_the_target(self, case, astar, limit):
        """A search cut at ``limit`` is the uncut search whenever the
        target lies within it, and leaves the target unreached otherwise."""
        g, s, kw = case
        pot = _reverse_distances(g, kw["target"]).tolist() if astar else None
        full = dijkstra(g, s, potential=pot, **kw)
        cut = dijkstra(g, s, potential=pot, limit=limit, **kw)
        t = kw["target"]
        if full.reached(t) and full.dist_of(t) <= limit:
            assert cut.reached(t)
            assert cut.dist_of(t) == full.dist_of(t)
            assert cut.reconstruct(t) == full.reconstruct(t)
            assert cut.stats == full.stats
        else:
            assert not cut.reached(t)
            assert cut.stats.vertices_settled <= full.stats.vertices_settled

    def test_mixed_queries_on_one_workspace(self):
        """A* and plain searches interleaved on one workspace."""
        g = erdos_renyi(150, 5.0, seed=3)
        n = g.num_vertices
        ws = SSSPWorkspace(g)
        rng = np.random.default_rng(5)
        for q in range(40):
            source, target = (int(v) for v in rng.integers(n, size=2))
            bans = [int(v) for v in rng.integers(n, size=5) if v != source]
            fresh = _reference_dijkstra(
                g, source, target=target, banned_vertices=bans
            )
            pot = _reverse_distances(g, target).tolist() if q % 2 else None
            got = dijkstra(
                g, source, target=target, banned_vertices=bans,
                workspace=ws, potential=pot,
            )
            assert got.dist_of(target) == fresh.dist[target]
            if pot is None:
                _assert_same(fresh, got, n)
            check_workspace(ws)

    def test_dead_vertices_are_never_pushed(self):
        """A vertex whose potential is ``inf`` cannot reach the target."""
        g = from_edge_list(
            5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)]
        )
        pot = _reverse_distances(g, 3)
        assert pot[2] == INF and pot[4] == INF
        got = dijkstra(g, 0, target=3, potential=pot)
        assert got.dist_of(3) == 2.0
        assert not got.reached(2) and not got.reached(4)
        assert got.stats.heap_pushes == 2  # vertices 1 and 3 only

    def test_potential_settles_fewer_on_a_grid(self):
        g = grid_network(20, 20, seed=3)
        pot = _reverse_distances(g, 399)
        plain = dijkstra(g, 0, target=399)
        astar = dijkstra(g, 0, target=399, potential=pot)
        assert astar.dist_of(399) == plain.dist_of(399)
        assert astar.stats.vertices_settled < plain.stats.vertices_settled


def _assert_same(fresh, ws_res, n):
    """Fresh SSSPResult and WorkspaceResult agree on every observable."""
    for v in range(n):
        assert ws_res.dist_of(v) == fresh.dist[v]
        assert ws_res.parent_of(v) == fresh.parent[v]
        assert ws_res.reached(v) == fresh.reached(v)
    assert ws_res.num_reached() == fresh.num_reached()
    assert ws_res.stats.vertices_settled == fresh.stats.vertices_settled
    assert ws_res.stats.edges_relaxed == fresh.stats.edges_relaxed
    assert ws_res.stats.heap_pushes == fresh.stats.heap_pushes


class TestBackToBackReuse:
    """The headline property: many mixed queries on ONE workspace == fresh."""

    def test_many_queries_match_fresh(self):
        g = erdos_renyi(150, 5.0, seed=3)
        n = g.num_vertices
        ws = SSSPWorkspace(g)
        rng = np.random.default_rng(11)
        for q in range(60):
            source = int(rng.integers(n))
            kwargs = {}
            kind = q % 5
            if kind == 1:  # banned vertex ids (list form)
                kwargs["banned_vertices"] = [
                    int(v) for v in rng.integers(n, size=6) if int(v) != source
                ]
            elif kind == 2:  # banned vertex ids (set form) + banned edges
                kwargs["banned_vertices"] = {
                    int(v) for v in rng.integers(n, size=8) if int(v) != source
                }
                kwargs["banned_edges"] = {
                    (source, int(v)) for v in rng.integers(n, size=3)
                }
            elif kind == 3:  # early target exit
                kwargs["target"] = int(rng.integers(n))
            elif kind == 4:  # early target exit + frozenset bans
                kwargs["target"] = int(rng.integers(n))
                kwargs["banned_vertices"] = frozenset(
                    int(v) for v in rng.integers(n, size=4) if int(v) != source
                )
            fresh = _reference_dijkstra(g, source, **kwargs)
            got = dijkstra(g, source, workspace=ws, **kwargs)
            _assert_same(fresh, got, n)

    def test_shrinking_and_jumping_ban_sets(self):
        """apply_bans handles arbitrary jumps, not just monotone growth."""
        g = grid_network(8, 8, seed=1)
        ws = SSSPWorkspace(g)
        ban_seq = [[1, 2, 3], [1, 2, 3, 4], [9, 10], [], [9, 10, 1], [1]]
        for bans in ban_seq:
            fresh = _reference_dijkstra(g, 0, banned_vertices=bans)
            got = dijkstra(g, 0, workspace=ws, banned_vertices=bans)
            _assert_same(fresh, got, g.num_vertices)

    def test_reconstruct_matches_fresh(self):
        g = erdos_renyi(80, 4.0, seed=7)
        ws = SSSPWorkspace(g)
        fresh = _reference_dijkstra(g, 0)
        got = dijkstra(g, 0, workspace=ws)
        for v in range(g.num_vertices):
            assert got.reconstruct(v) == fresh.reconstruct(v)

    def test_materialized_arrays_equal_fresh(self):
        g = erdos_renyi(60, 4.0, seed=9)
        ws = SSSPWorkspace(g)
        fresh = _reference_dijkstra(g, 5, banned_vertices=[1, 2])
        got = dijkstra(g, 5, workspace=ws, banned_vertices=[1, 2])
        assert np.array_equal(got.dist, fresh.dist)
        assert np.array_equal(got.parent, fresh.parent)


class TestBanInputForms:
    """Every collection of banned ids bans the same vertices."""

    @pytest.fixture()
    def graph(self):
        return from_edge_list(
            5,
            [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0), (3, 4, 1.0)],
        )

    @pytest.mark.parametrize(
        "form", ["list", "tuple", "set", "frozenset", "ndarray_ids"]
    )
    def test_all_forms_agree(self, graph, form):
        ids = [2]
        if form == "list":
            bans = ids
        elif form == "tuple":
            bans = tuple(ids)
        elif form == "set":
            bans = set(ids)
        elif form == "frozenset":
            bans = frozenset(ids)
        else:
            bans = np.asarray(ids, dtype=np.int64)
        ws = SSSPWorkspace(graph)
        fresh = _reference_dijkstra(graph, 0, banned_vertices=bans)
        got = dijkstra(graph, 0, workspace=ws, banned_vertices=bans)
        _assert_same(fresh, got, graph.num_vertices)
        assert got.dist_of(3) == pytest.approx(6.0)  # forced around vertex 2

    def test_incremental_mask_state(self, graph):
        ws = SSSPWorkspace(graph)
        dijkstra(graph, 0, workspace=ws, banned_vertices=[1, 3])
        assert ws.is_banned(1) and ws.is_banned(3) and not ws.is_banned(2)
        dijkstra(graph, 0, workspace=ws, banned_vertices=[3, 4])
        assert not ws.is_banned(1) and ws.is_banned(4)
        dijkstra(graph, 0, workspace=ws)  # no bans clears the mask
        assert not any(ws.ban)


class TestGuards:
    def test_banned_source_raises(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        with pytest.raises(VertexError):
            dijkstra(diamond_graph, 0, workspace=ws, banned_vertices=[0])

    def test_graph_mismatch_raises(self, diamond_graph, fan_graph):
        ws = SSSPWorkspace(diamond_graph)
        with pytest.raises(ValueError):
            dijkstra(fan_graph, 0, workspace=ws)

    def test_stale_result_raises(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        first = dijkstra(diamond_graph, 0, workspace=ws)
        dijkstra(diamond_graph, 1, workspace=ws)  # new epoch
        with pytest.raises(RuntimeError):
            first.dist_of(3)
        with pytest.raises(RuntimeError):
            first.reconstruct(3)

    def test_materialize_outlives_epoch(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        first = dijkstra(diamond_graph, 0, workspace=ws)
        before = first.dist.copy()  # .dist materialises
        dijkstra(diamond_graph, 1, workspace=ws)
        assert np.array_equal(first.dist, before)  # snapshot survives
        assert first.dist_of(3) == before[3]


class TestLazyDijkstraTenancy:
    def test_snapshot_owns_its_arrays(self):
        g = erdos_renyi(50, 4.0, seed=2)
        tree = LazyDijkstra(g, 0)
        tree.distance_to(10)
        snap = tree.snapshot()
        dist_before = snap.dist.copy()
        tree.run_to_completion()  # keeps writing the original's arrays
        assert np.array_equal(snap.dist, dist_before)
        snap.run_to_completion()  # snapshot still resumable
        fresh = LazyDijkstra(g, 0).run_to_completion()
        assert np.array_equal(snap.dist, fresh.dist)


class TestBanValidation:
    """Bad ban inputs raise before any state moves."""

    def test_out_of_range_id_leaves_workspace_in_sync(self):
        """An id >= n used to raise halfway through updating the mask,
        leaving bits set that the tracking set did not know about; the
        next query on the workspace then lost reachable vertices."""
        g = erdos_renyi(50, 4.0, seed=1)
        ws = SSSPWorkspace(g)
        with pytest.raises(VertexError):
            dijkstra(g, 0, banned_vertices=[3, 7, 11, 55], workspace=ws)
        check_workspace(ws)  # SAN-WS: mask and tracking set agree
        got = dijkstra(g, 0, banned_vertices=[5], workspace=ws)
        _assert_same(
            _reference_dijkstra(g, 0, banned_vertices=[5]), got, g.num_vertices
        )

    @pytest.mark.parametrize("bad", [-1, -50, 50])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_out_of_range_id_rejected(self, bad, reuse):
        """A negative id used to ban vertex ``n + id`` silently."""
        g = erdos_renyi(50, 4.0, seed=1)
        ws = SSSPWorkspace(g) if reuse else None
        if reuse:
            dijkstra(g, 0, banned_vertices=[1, 2], workspace=ws)
        with pytest.raises(VertexError, match="out of range"):
            dijkstra(g, 0, banned_vertices=[1, bad], workspace=ws)
        if reuse:
            check_workspace(ws)
            assert ws.epoch == 1  # the failed query never started
            assert {v for v in range(50) if ws.is_banned(v)} == {1, 2}


class TestPotentialValidation:
    """A bad potential raises before the query starts."""

    @pytest.mark.parametrize("length", [49, 51])
    def test_wrong_length_rejected(self, length):
        g = erdos_renyi(50, 4.0, seed=1)
        ws = SSSPWorkspace(g)
        with pytest.raises(ValueError, match="length"):
            dijkstra(g, 0, target=7, potential=[0.0] * length, workspace=ws)
        with pytest.raises(ValueError, match="length"):
            dijkstra(g, 0, target=7, potential=np.zeros(length))
        assert ws.epoch == 0

    def test_potential_without_target_rejected(self):
        g = erdos_renyi(50, 4.0, seed=1)
        ws = SSSPWorkspace(g)
        with pytest.raises(ValueError, match="target"):
            dijkstra(g, 0, potential=[0.0] * 50, workspace=ws)
        assert ws.epoch == 0


class TestWorkspaceHousekeeping:
    def test_epoch_monotone(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        e1 = ws.next_epoch()
        e2 = ws.next_epoch()
        assert e2 == e1 + 1

    def test_memory_bytes_grows_with_adjacency_cache(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        before = ws.memory_bytes()
        ws.adjacency_lists()
        assert ws.memory_bytes() > before

    def test_ban_view_is_zero_copy(self, diamond_graph):
        ws = SSSPWorkspace(diamond_graph)
        ws.apply_bans([2])
        assert bool(ws.ban[2]) and not bool(ws.ban[1])
        ws.apply_bans([])
        assert not ws.ban.any()

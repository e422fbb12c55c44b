"""Unit tests for K-upper-bound pruning (Algorithm 2)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import (
    SCAN_HEAD,
    PruneStats,
    _spsum_order,
    bound_and_masks,
    k_upper_bound_prune,
    prune_threshold,
)
from repro.core.validation import validate_combined_path
from repro.errors import UnreachableTargetError, VertexError
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.graph.suite import random_st_pairs, suite_graph
from repro.ksp.yen import yen_ksp
from repro.paths import INF
from repro.sssp.dijkstra import dijkstra
from tests.conftest import random_reachable_pair


class TestFanGraphWalkthrough:
    """The hand-checkable Algorithm 2 run (see the fixture docstring)."""

    def test_bound_is_kth_distance(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 3)
        assert pr.bound == pytest.approx(6.0)

    def test_vertex_d_pruned(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 3)
        assert not pr.keep_vertices[5]
        assert pr.keep_vertices[[0, 1, 2, 3, 4]].all()
        assert pr.num_kept_vertices == 5

    def test_overweight_edges_pruned(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 3)
        weights = fan_graph.weights
        assert not pr.keep_edges[weights > 6.0].any()
        assert pr.keep_edges[weights <= 6.0].all()

    def test_k1_keeps_only_shortest_path(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 1)
        assert pr.bound == pytest.approx(2.0)
        assert pr.keep_vertices[[0, 1, 4]].all()
        assert not pr.keep_vertices[[2, 3, 5]].any()

    def test_k4_keeps_everything_reachable(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 4)
        assert pr.bound == pytest.approx(20.0)
        assert pr.keep_vertices.all()

    def test_fractions(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 3)
        assert pr.pruned_vertex_fraction == pytest.approx(1 / 6)
        assert pr.pruned_edge_fraction(fan_graph) == pytest.approx(2 / 8)

    def test_sp_arrays_exposed(self, fan_graph):
        pr = k_upper_bound_prune(fan_graph, 0, 4, 3)
        assert pr.dist_src[0] == 0.0
        assert pr.dist_tgt[4] == 0.0
        assert pr.sp_sum[1] == pytest.approx(2.0)
        assert pr.sp_sum[5] == pytest.approx(20.0)


class TestInvalidPathHandling:
    def test_invalid_combined_paths_counted(self, loop_trap_graph):
        pr = k_upper_bound_prune(loop_trap_graph, 0, 4, 2)
        # vertex i's combined path is invalid, so λ >= 1
        assert pr.stats.inspected_invalid >= 1

    def test_bound_skips_invalid_paths(self, loop_trap_graph):
        # Only ONE simple s→t path exists (s f j t); with K=2 the scan runs
        # out of valid paths and must keep the bound conservative (inf).
        pr = k_upper_bound_prune(loop_trap_graph, 0, 4, 2)
        assert pr.bound == INF
        # reachable vertices all kept under the conservative bound
        finite = np.isfinite(pr.sp_sum)
        assert pr.keep_vertices[finite].all()


class TestFallbacks:
    def test_unreachable_target_raises(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        with pytest.raises(UnreachableTargetError):
            k_upper_bound_prune(g, 0, 2, 2)

    def test_unreachable_vertices_always_pruned(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (2, 1, 5.0)])
        pr = k_upper_bound_prune(g, 0, 1, 5)
        assert not pr.keep_vertices[2]
        assert not pr.keep_vertices[3]

    def test_bad_args(self, fan_graph):
        with pytest.raises(VertexError):
            k_upper_bound_prune(fan_graph, 99, 4, 2)
        with pytest.raises(VertexError):
            k_upper_bound_prune(fan_graph, 0, 99, 2)
        with pytest.raises(ValueError):
            k_upper_bound_prune(fan_graph, 0, 4, 0)
        with pytest.raises(ValueError):
            k_upper_bound_prune(fan_graph, 0, 4, 2, kernel="bfs")


class TestKernels:
    def test_dijkstra_and_delta_agree(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=1)
        a = k_upper_bound_prune(medium_er, s, t, 8, kernel="delta")
        b = k_upper_bound_prune(medium_er, s, t, 8, kernel="dijkstra")
        assert a.bound == pytest.approx(b.bound)
        assert np.array_equal(a.keep_vertices, b.keep_vertices)

    @pytest.mark.parametrize("name", ["LJ", "WL", "LJU", "WLU"])
    def test_default_kernel_matches_delta(self, name):
        """The default (compiled Dijkstra) and Δ-stepping build the same
        trees on the suite graphs, tied unit weights included, so the
        bound and both masks agree exactly."""
        g = suite_graph(name, "tiny")
        for s, t in random_st_pairs(g, 3, seed=21):
            for k in (1, 8):
                a = k_upper_bound_prune(g, s, t, k, kernel="delta")
                b = k_upper_bound_prune(g, s, t, k)
                assert b.bound == a.bound
                assert np.array_equal(b.keep_vertices, a.keep_vertices)
                assert np.array_equal(b.keep_edges, a.keep_edges)
                assert np.array_equal(b.parent_src, a.parent_src)
                assert np.array_equal(b.parent_tgt, a.parent_tgt)

    def test_delta_kernel_logs_phases(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=1)
        pr = k_upper_bound_prune(medium_er, s, t, 8, kernel="delta")
        assert len(pr.stats.sssp_phase_work) > 0

    def test_stats_totals(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=1)
        pr = k_upper_bound_prune(medium_er, s, t, 8)
        assert pr.stats.total_work > 0
        assert pr.stats.inspected_paths >= 1


class TestSoundness:
    """Lemma 4.2 in executable form (Theorem 4.3 lives in test_peek)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_top_k_paths_survive_pruning(self, seed, k):
        g = erdos_renyi(60, 3.0, seed=seed + 200)
        s, t = random_reachable_pair(g, seed=seed)
        ref = yen_ksp(g, s, t, k)
        pr = k_upper_bound_prune(g, s, t, k)
        src = g.edge_sources()
        for p in ref.paths:
            for v in p.vertices:
                assert pr.keep_vertices[v], (seed, k, p)
            for a, b in p.edges():
                # at least one surviving (a, b) edge remains
                lo, hi = g.edge_range(a)
                ok = any(
                    pr.keep_edges[e] and g.indices[e] == b
                    for e in range(lo, hi)
                )
                assert ok, (seed, k, a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_strong_edge_prune_also_sound(self, seed):
        g = erdos_renyi(60, 3.0, seed=seed + 300)
        s, t = random_reachable_pair(g, seed=seed)
        k = 6
        ref = yen_ksp(g, s, t, k)
        pr = k_upper_bound_prune(g, s, t, k, strong_edge_prune=True)
        for p in ref.paths:
            for a, b in p.edges():
                lo, hi = g.edge_range(a)
                assert any(
                    pr.keep_edges[e] and g.indices[e] == b
                    for e in range(lo, hi)
                )

    def test_strong_edge_prune_is_stronger(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=4)
        weak = k_upper_bound_prune(medium_er, s, t, 4)
        strong = k_upper_bound_prune(medium_er, s, t, 4, strong_edge_prune=True)
        assert strong.keep_edges.sum() <= weak.keep_edges.sum()


# ---------------------------------------------------------------------------
# The partial spSum order against the full stable argsort


def reference_scan(fwd_parent, rev_parent, dist_src, dist_tgt, s, t, k, graph, strong):
    """The scan and masks as one full stable argsort and eager parent
    arrays compute them: the reference the partial order must equal."""
    n = graph.num_vertices
    stats = PruneStats(sum_work=n)
    sp_sum = dist_src + dist_tgt
    finite = np.flatnonzero(np.isfinite(sp_sum))
    order = finite[np.argsort(sp_sum[finite], kind="stable")]
    stats.sort_work = int(order.size * max(int(np.log2(max(order.size, 2))), 1))
    bound, seen = INF, set()
    for v in order.tolist():
        src_path = [v]
        while src_path[-1] != s:
            src_path.append(int(fwd_parent[src_path[-1]]))
        tgt_path = [v]
        while tgt_path[-1] != t:
            tgt_path.append(int(rev_parent[tgt_path[-1]]))
        src_path.reverse()
        stats.validation_work += len(src_path) + len(tgt_path)
        valid, full = validate_combined_path(tuple(src_path), tuple(tgt_path))
        stats.inspected_paths += 1
        if not valid:
            stats.inspected_invalid += 1
            continue
        if full in seen:
            continue
        seen.add(full)
        if len(seen) == k:
            bound = float(sp_sum[v])
            break
    threshold = prune_threshold(bound)
    keep_vertices = np.zeros(n, dtype=bool)
    keep_vertices[finite] = sp_sum[finite] <= threshold
    keep_edges = graph.weights <= threshold
    if strong:
        through = dist_src[graph.edge_sources()] + graph.weights + dist_tgt[graph.indices]
        keep_edges &= ~(through > threshold)
    stats.prune_scan_work = n + graph.num_edges
    return bound, keep_vertices, keep_edges, sp_sum, stats


STAT_FIELDS = (
    "sum_work", "sort_work", "validation_work", "prune_scan_work",
    "inspected_paths", "inspected_invalid",
)


def assert_scan_equal(graph, s, t, k, *, strong=False):
    """``k_upper_bound_prune`` (lazy trees, partial order) against the
    reference over the Python loop's trees; returns the result."""
    got = k_upper_bound_prune(graph, s, t, k, strong_edge_prune=strong)
    fwd, rev = dijkstra(graph, s), dijkstra(graph.reverse(), t)
    bound, kv, ke, sp_sum, ref = reference_scan(
        fwd.parent, rev.parent, fwd.dist, rev.dist, s, t, k, graph, strong
    )
    assert got.bound == bound or (np.isinf(got.bound) and np.isinf(bound))
    assert got.keep_vertices.tobytes() == kv.tobytes()
    # the weight-rule mask is built on its first read, after the scan
    assert (got._keep_edges is None) == (not strong)
    assert got.keep_edges.tobytes() == ke.tobytes()
    assert got.sp_sum.tobytes() == sp_sum.tobytes()
    for name in STAT_FIELDS:
        assert getattr(got.stats, name) == getattr(ref, name), name
    assert got.stats.edges_relaxed == fwd.stats.edges_relaxed + rev.stats.edges_relaxed
    assert got.stats.vertices_settled == (
        fwd.stats.vertices_settled + rev.stats.vertices_settled
    )
    assert got.stats.sssp_phase_work == []
    # parents read after the scan are the loop's arrays
    assert got.parent_src.tobytes() == fwd.parent.tobytes()
    assert got.parent_tgt.tobytes() == rev.parent.tobytes()
    return got


def head_is_straddled(pr, k):
    """Do spSum ties cross the head boundary (more sums equal the head's
    largest value than the head has room for)?"""
    sums = np.sort(pr.sp_sum[np.isfinite(pr.sp_sum)])
    head = max(4 * k, SCAN_HEAD)
    if sums.size <= head:
        return False
    kth = sums[head - 1]
    return bool(np.count_nonzero(sums <= kth) > head)


def unit_grid(rows, cols):
    return grid_network(rows, cols, weight_scheme="unit", seed=1)


def chain_with_detour(n=100):
    """A bidirectional unit chain 0..n-1 plus one heavy detour n: every
    chain vertex's combined path is the same chain path, so K=2 scans the
    whole chain (past any head) before the detour gives a loose finite
    bound; K=3 never finds a third path (bound inf)."""
    a = np.arange(n - 1)
    src = np.concatenate([a, a + 1, [0, n]])
    dst = np.concatenate([a + 1, a, [n, n - 1]])
    w = np.concatenate([np.ones(2 * (n - 1)), [1000.0, 1000.0]])
    return from_edge_array(n + 1, src, dst, w, dedup=False)


def fan_with_dead_ends(width, dead=100, stranded=12):
    """s = 0 and t = 1 joined through ``width`` two-hop routes, with route
    weights cycling through 2, 3 and 4 so spSums tie, plus ``dead``
    vertices that s reaches and that never reach t, and ``stranded`` ones
    s never reaches (half of them with an edge into t): exactly ``width +
    2`` spSums are finite, and the route count caps the valid paths."""
    mid = np.arange(2, 2 + width)
    dead_ids = np.arange(2 + width, 2 + width + dead)
    into_t = np.arange(2 + width + dead, 2 + width + dead + stranded // 2)
    n = 2 + width + dead + stranded
    src = np.concatenate([np.zeros(width + dead, dtype=np.int64), mid, into_t])
    dst = np.concatenate([mid, dead_ids, np.ones(width + into_t.size, dtype=np.int64)])
    w = np.concatenate([
        1.0 + mid % 3, np.ones(dead), np.ones(width), np.ones(into_t.size),
    ])
    return from_edge_array(n, src, dst, w, dedup=False)


class TestPartialOrder:
    @given(
        st.lists(st.integers(0, 7), min_size=0, max_size=300),
        st.integers(1, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, values, head):
        """spSums straight off the trees, ``inf`` (drawn as 7) included:
        the order is the stable argsort of the finite ones, and the tail
        hook fires once, just when a finite sum lies beyond the head."""
        sums = np.asarray(values, dtype=np.float64) / 4
        sums[np.asarray(values, dtype=np.int64) == 7] = INF
        finite = np.flatnonzero(np.isfinite(sums))
        ref = finite[np.argsort(sums[finite], kind="stable")].tolist()
        tails = []
        assert list(_spsum_order(sums, head, lambda: tails.append(1))) == ref
        beyond = False
        if sums.size > head:
            pivot = np.sort(sums)[head - 1]
            beyond = bool(np.isfinite(pivot) and (sums[finite] > pivot).any())
        assert len(tails) == beyond

    @pytest.mark.parametrize("strong", [False, True])
    @pytest.mark.parametrize(
        "k, width, finite_vs_head, loose",
        [
            (1, 62, 0, False),  # exactly max(4K, 64) finite spSums
            (16, 62, 0, False),
            (32, 126, 0, False),
            (4, 20, -1, False),  # fewer finite spSums than the head: pivot inf
            (21, 20, -1, True),  # and b = inf: 20 routes, 21 paths asked
        ],
    )
    def test_finite_counts_around_the_head(self, k, width, finite_vs_head, loose, strong):
        g = fan_with_dead_ends(width)
        got = assert_scan_equal(g, 0, 1, k, strong=strong)
        head = max(4 * k, SCAN_HEAD)
        finite = int(np.isfinite(got.sp_sum).sum())
        assert g.num_vertices > head  # the partition runs
        assert np.sign(finite - head) == finite_vs_head
        assert np.isinf(got.bound) == loose
        assert not got.keep_vertices[width + 2:].any()  # unreachable sums fall

    @pytest.mark.parametrize("strong", [False, True])
    def test_unbounded_scan_past_the_head_with_unreachable_vertices(self, strong):
        """b = inf after the whole tail: K=3 on the chain, whose detour
        vertex has its only out-edge cut, plus vertices s never reaches."""
        chain = chain_with_detour()
        n = chain.num_vertices
        src = np.concatenate([chain.edge_sources(), [n, n + 1]])
        dst = np.concatenate([chain.indices, [0, n + 2]])
        w = np.concatenate([chain.weights, [1.0, 1.0]])
        g = from_edge_array(n + 3, src, dst, w, dedup=False)
        got = assert_scan_equal(g, 0, 99, 3, strong=strong)
        assert np.isinf(got.bound)
        assert got.stats.inspected_paths > SCAN_HEAD
        assert not got.keep_vertices[n:].any()

    @pytest.mark.parametrize("k", [1, 8, 128])
    def test_unit_graphs_with_ties_at_the_head(self, k):
        straddled = 0
        cases = [(unit_grid(24, 24), [(0, 575), (30, 400), (100, 555)])]
        for name in ("LJU", "WLU"):
            g = suite_graph(name, "tiny")
            cases.append((g, random_st_pairs(g, 4, seed=9)))
        for g, pairs in cases:
            for s, t in pairs:
                got = assert_scan_equal(g, s, t, k)
                straddled += head_is_straddled(got, k)
        assert straddled  # the cases do put ties across the boundary

    @pytest.mark.parametrize("name", ["LJ", "WL", "R21U"])
    @pytest.mark.parametrize("k", [1, 8, 128])
    def test_suite_pairs(self, name, k):
        g = suite_graph(name, "tiny")
        for s, t in random_st_pairs(g, 3, seed=17):
            assert_scan_equal(g, s, t, k)
            assert_scan_equal(g, s, t, k, strong=True)

    @pytest.mark.parametrize("k, loose", [(2, True), (3, False)])
    def test_scan_runs_past_the_head(self, k, loose):
        g = chain_with_detour()
        got = assert_scan_equal(g, 0, 99, k)
        assert got.stats.inspected_paths > max(4 * k, SCAN_HEAD)
        assert np.isfinite(got.bound) == loose

    @pytest.mark.parametrize("k", [1, 8, 128])
    def test_scipy_halves_as_plain_arrays(self, k):
        """perfbench's pair filter passes SimpleNamespace trees of SciPy
        predecessors: the scan indexes their arrays."""
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        def tree(graph, root):
            dist, pred = sp_dijkstra(
                graph.sparse_matrix(), directed=True, indices=root,
                return_predecessors=True,
            )
            parent = pred.astype(np.int64)
            parent[parent < 0] = -1
            parent[root] = root
            return SimpleNamespace(dist=dist, parent=parent)

        for name in ("LJU", "WL"):
            g = suite_graph(name, "tiny")
            for s, t in random_st_pairs(g, 3, seed=4):
                fwd, rev = tree(g, s), tree(g.reverse(), t)
                got = bound_and_masks(fwd, rev, s, t, k, graph=g)
                bound, kv, ke, sp_sum, ref = reference_scan(
                    fwd.parent, rev.parent, fwd.dist, rev.dist, s, t, k, g, False
                )
                assert got.bound == bound or (np.isinf(got.bound) and np.isinf(bound))
                assert got.keep_vertices.tobytes() == kv.tobytes()
                assert got.keep_edges.tobytes() == ke.tobytes()
                assert got.sp_sum.tobytes() == sp_sum.tobytes()
                for field in STAT_FIELDS:
                    assert getattr(got.stats, field) == getattr(ref, field)
                assert got.parent_src is fwd.parent

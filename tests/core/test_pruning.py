"""Unit tests for K-upper-bound pruning (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.pruning import k_upper_bound_prune
from repro.errors import UnreachableTargetError, VertexError
from repro.graph.build import from_edge_list
from repro.graph.generators import erdos_renyi
from repro.graph.suite import random_st_pairs, suite_graph
from repro.ksp.yen import yen_ksp
from repro.paths import INF
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

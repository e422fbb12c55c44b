"""Unit tests for the resumable Dijkstra used by SB*."""

import numpy as np
import pytest

from repro.errors import VertexError
from repro.graph.build import from_edge_list
from repro.paths import INF
from repro.sssp.dijkstra import dijkstra
from repro.sssp.lazy_dijkstra import LazyDijkstra


class TestIncremental:
    def test_distance_matches_dijkstra(self, medium_er):
        full = dijkstra(medium_er, 0)
        ld = LazyDijkstra(medium_er, 0)
        for v in (5, 50, 149, 1):
            assert ld.distance_to(v) == pytest.approx(
                float(full.dist[v]), abs=1e-12
            ) or (ld.distance_to(v) == INF and not np.isfinite(full.dist[v]))

    def test_resumption_does_not_redo_work(self, medium_er):
        ld = LazyDijkstra(medium_er, 0)
        ld.distance_to(10)
        settled_before = ld.stats.vertices_settled
        ld.distance_to(10)  # cached, no extra work
        assert ld.stats.vertices_settled == settled_before

    def test_lazy_settles_less_than_full(self, medium_er):
        full = dijkstra(medium_er, 0)
        near = int(np.argsort(full.dist)[3])  # a close vertex
        ld = LazyDijkstra(medium_er, 0)
        ld.distance_to(near)
        assert ld.stats.vertices_settled < full.stats.vertices_settled

    def test_run_to_completion_matches(self, medium_er):
        ld = LazyDijkstra(medium_er, 0)
        ld.distance_to(40)  # partially settle first
        res = ld.run_to_completion()
        full = dijkstra(medium_er, 0)
        assert np.allclose(
            np.nan_to_num(res.dist, posinf=-1),
            np.nan_to_num(full.dist, posinf=-1),
        )
        assert ld.exhausted

    def test_unreachable_vertex(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        ld = LazyDijkstra(g, 0)
        assert ld.distance_to(2) == INF


class TestBans:
    def test_banned_vertex_unreachable(self, diamond_graph):
        ld = LazyDijkstra(diamond_graph, 0, banned_vertices=[1, 2])
        assert ld.distance_to(3) == pytest.approx(4.0)  # only direct edge

    def test_banned_is_inf(self, diamond_graph):
        ld = LazyDijkstra(diamond_graph, 0, banned_vertices=[1])
        assert ld.distance_to(1) == INF

    def test_banned_source_rejected(self, diamond_graph):
        with pytest.raises(VertexError):
            LazyDijkstra(diamond_graph, 0, banned_vertices=[0])

    def test_bool_mask_rejected(self, diamond_graph):
        """A ``bool[n]`` mask was read as the ids {0, 1}, banning the
        source instead of the masked vertex."""
        mask = np.zeros(diamond_graph.num_vertices, dtype=bool)
        mask[2] = True
        with pytest.raises(TypeError, match="bool mask"):
            LazyDijkstra(diamond_graph, 0, banned_vertices=mask)
        ld = LazyDijkstra(diamond_graph, 0, banned_vertices=np.flatnonzero(mask))
        assert ld.distance_to(2) == INF
        assert ld.distance_to(3) == pytest.approx(2.0)

    def test_bad_vertex(self, diamond_graph):
        ld = LazyDijkstra(diamond_graph, 0)
        with pytest.raises(VertexError):
            ld.distance_to(99)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_banned_id_rejected(self, diamond_graph, bad):
        """``-1`` used to ban vertex ``n - 1`` silently."""
        with pytest.raises(VertexError):
            LazyDijkstra(diamond_graph, 0, banned_vertices=[1, bad])


class TestSnapshot:
    def test_snapshot_is_independent(self, medium_er):
        ld = LazyDijkstra(medium_er, 0)
        ld.distance_to(10)
        clone = ld.snapshot()
        before = clone.stats.vertices_settled
        ld.run_to_completion()
        assert clone.stats.vertices_settled == before

    def test_snapshot_continues_correctly(self, medium_er):
        full = dijkstra(medium_er, 0)
        ld = LazyDijkstra(medium_er, 0)
        ld.distance_to(10)
        clone = ld.snapshot()
        res = clone.run_to_completion()
        assert np.allclose(
            np.nan_to_num(res.dist, posinf=-1),
            np.nan_to_num(full.dist, posinf=-1),
        )


def test_memory_accounting(medium_er):
    ld = LazyDijkstra(medium_er, 0)
    assert ld.memory_bytes() > 0
    before = ld.memory_bytes()
    ld.run_to_completion()
    assert ld.memory_bytes() <= before + 16 * medium_er.num_edges

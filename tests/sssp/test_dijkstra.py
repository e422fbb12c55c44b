"""Unit tests for the Dijkstra kernel."""

import numpy as np
import pytest

from repro.errors import VertexError
from repro.graph.build import from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.paths import INF, reconstruct_path
from repro.sssp.dijkstra import dijkstra
from repro.sssp.workspace import SSSPWorkspace


class TestBasics:
    def test_diamond_distances(self, diamond_graph):
        res = dijkstra(diamond_graph, 0)
        assert res.dist[0] == 0.0
        assert res.dist[3] == pytest.approx(2.0)
        assert res.parent[0] == 0

    def test_parent_reconstruction(self, diamond_graph):
        res = dijkstra(diamond_graph, 0)
        assert reconstruct_path(res.parent, 0, 3) == [0, 1, 3]

    def test_unreachable_is_inf(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        res = dijkstra(g, 0)
        assert res.dist[2] == INF
        assert res.parent[2] == -1
        assert not res.reached(2)
        assert res.num_reached() == 2

    def test_bad_source(self, diamond_graph):
        with pytest.raises(VertexError):
            dijkstra(diamond_graph, 9)

    def test_bad_target(self, diamond_graph):
        with pytest.raises(VertexError):
            dijkstra(diamond_graph, 0, target=9)

    def test_matches_scipy(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        g = erdos_renyi(120, 4.0, seed=6)
        mat = csr_matrix(
            (g.weights, g.indices, g.indptr),
            shape=(g.num_vertices, g.num_vertices),
        )
        expect = sp_dijkstra(mat, indices=0)
        got = dijkstra(g, 0).dist
        assert np.allclose(
            np.nan_to_num(got, posinf=-1), np.nan_to_num(expect, posinf=-1)
        )


class TestTargetStop:
    def test_target_distance_final(self, small_grid):
        full = dijkstra(small_grid, 0)
        stopped = dijkstra(small_grid, 0, target=63)
        assert stopped.dist[63] == pytest.approx(full.dist[63])

    def test_early_stop_saves_work(self, small_grid):
        full = dijkstra(small_grid, 0)
        stopped = dijkstra(small_grid, 0, target=9)
        assert (
            stopped.stats.vertices_settled < full.stats.vertices_settled
        )


class TestBans:
    def test_banned_vertex_forces_detour(self, diamond_graph):
        res = dijkstra(diamond_graph, 0, banned_vertices=[1])
        assert res.dist[3] == pytest.approx(3.0)  # via vertex 2

    def test_banned_source_raises(self, diamond_graph):
        with pytest.raises(VertexError):
            dijkstra(diamond_graph, 0, banned_vertices=[0])

    def test_banned_edge_forces_next_route(self, diamond_graph):
        res = dijkstra(diamond_graph, 0, banned_edges={(0, 1)})
        assert res.dist[3] == pytest.approx(3.0)

    @pytest.mark.parametrize("workspace", [False, True])
    def test_bool_mask_rejected(self, workspace):
        """A ``bool[n]`` mask was read as the ids {0, 1}: with only
        vertex 7 masked, vertex 7 stayed reachable and 0, 1 were banned."""
        g = grid_network(5, 5, seed=1)
        mask = np.zeros(g.num_vertices, dtype=bool)
        mask[7] = True
        ws = SSSPWorkspace(g) if workspace else None
        with pytest.raises(TypeError, match="bool mask"):
            dijkstra(g, 12, banned_vertices=mask, workspace=ws)
        res = dijkstra(g, 12, banned_vertices=np.flatnonzero(mask), workspace=ws)
        assert res.dist[7] == INF
        assert np.isfinite(res.dist[0]) and np.isfinite(res.dist[1])

    def test_ban_all_routes(self, diamond_graph):
        res = dijkstra(
            diamond_graph, 0, banned_edges={(0, 1), (0, 2), (0, 3)}
        )
        assert res.dist[3] == INF


class TestStats:
    def test_counters_populated(self, small_grid):
        res = dijkstra(small_grid, 0)
        assert res.stats.vertices_settled == 64
        assert res.stats.edges_relaxed > 0
        assert res.stats.heap_pushes >= 63
        assert res.stats.phases == res.stats.vertices_settled
        assert res.stats.total_work > 0

    def test_source_with_no_edges(self):
        g = from_edge_list(2, [(1, 0, 1.0)])
        res = dijkstra(g, 0)
        assert res.dist[1] == INF
        assert res.stats.vertices_settled == 1


class TestGridGroundTruth:
    def test_unit_grid_manhattan(self):
        g = grid_network(5, 5, weight_scheme="unit", seed=0)
        res = dijkstra(g, 0)
        for r in range(5):
            for c in range(5):
                assert res.dist[r * 5 + c] == pytest.approx(r + c)

"""Failure injection: degenerate graphs and adversarial inputs.

DESIGN.md's failure list: disconnected pairs, K beyond the number of simple
paths, self-loops, parallel edges, single-vertex graphs, zero/negative
weight rejection — every layer must fail loudly or degrade gracefully,
never return silently-wrong paths.
"""

import numpy as np
import pytest

from repro.core.peek import peek_ksp
from repro.core.pruning import k_upper_bound_prune
from repro.errors import (
    InvalidWeightError,
    KSPError,
    UnreachableTargetError,
    VertexError,
)
from repro.graph.build import from_edge_array, from_edge_list
from repro.ksp import ALGORITHMS, make_algorithm


@pytest.fixture
def disconnected():
    return from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])


class TestDisconnected:
    @pytest.mark.parametrize("method", sorted(ALGORITHMS))
    def test_every_algorithm_raises_unreachable(self, disconnected, method):
        with pytest.raises(UnreachableTargetError):
            make_algorithm(method, disconnected, 0, 3).run(2)

    def test_pruning_raises_unreachable(self, disconnected):
        with pytest.raises(UnreachableTargetError):
            k_upper_bound_prune(disconnected, 0, 3, 2)


class TestExhaustion:
    @pytest.mark.parametrize("method", sorted(ALGORITHMS))
    def test_k_beyond_path_count(self, fan_graph, method):
        res = make_algorithm(method, fan_graph, 0, 4).run(100)
        assert len(res.paths) == 4  # exactly the existing simple paths
        assert res.k_requested == 100

    def test_single_edge_graph(self):
        g = from_edge_list(2, [(0, 1, 2.0)])
        for method in ("Yen", "PeeK", "SB*"):
            res = make_algorithm(method, g, 0, 1).run(10)
            assert res.distances == [2.0]


class TestDegenerateInputs:
    def test_self_loops_ignored(self):
        g = from_edge_list(
            3,
            [(0, 0, 0.1), (0, 1, 1.0), (1, 1, 0.1), (1, 2, 1.0)],
            drop_self_loops=True,
        )
        res = peek_ksp(g, 0, 2, 3)
        assert res.distances == [2.0]

    def test_parallel_edges_collapse_to_min(self):
        g = from_edge_list(
            3, [(0, 1, 5.0), (0, 1, 1.0), (1, 2, 2.0), (1, 2, 9.0)]
        )
        res = peek_ksp(g, 0, 2, 5)
        assert res.distances == [3.0]

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            from_edge_array(2, np.array([0]), np.array([1]), 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            from_edge_array(2, np.array([0]), np.array([1]), -3.0)

    def test_inf_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            from_edge_array(2, np.array([0]), np.array([1]), float("inf"))

    def test_single_vertex_graph_queries(self):
        g = from_edge_list(1, [])
        with pytest.raises(KSPError):
            peek_ksp(g, 0, 0, 1)
        with pytest.raises(VertexError):
            peek_ksp(g, 0, 1, 1)


class TestAdversarialWeights:
    def test_extreme_weight_ratios(self):
        """1e-6 vs 1e6 weights: Δ-stepping bucketing must stay correct."""
        rng = np.random.default_rng(0)
        n, m = 40, 200
        w = np.where(rng.random(m) < 0.5, 1e-6, 1e6)
        g = from_edge_array(
            n, rng.integers(0, n, m), rng.integers(0, n, m), w
        )
        from repro.sssp import delta_stepping, dijkstra

        a = delta_stepping(g, 0).dist
        b = dijkstra(g, 0).dist
        assert np.allclose(
            np.nan_to_num(a, posinf=-1), np.nan_to_num(b, posinf=-1)
        )

    def test_peek_with_extreme_weights(self):
        rng = np.random.default_rng(1)
        n, m = 30, 150
        w = 10.0 ** rng.integers(-6, 6, size=m)
        g = from_edge_array(
            n, rng.integers(0, n, m), rng.integers(0, n, m), w.astype(float)
        )
        from repro.ksp.yen import yen_ksp
        from repro.sssp import dijkstra

        reach = np.flatnonzero(np.isfinite(dijkstra(g, 0).dist))
        reach = reach[reach != 0]
        if reach.size == 0:
            pytest.skip("draw happened to be disconnected")
        t = int(reach[0])
        assert np.allclose(
            peek_ksp(g, 0, t, 5).distances, yen_ksp(g, 0, t, 5).distances
        )


class TestSourceEqualsTarget:
    """One library-wide rule: ``source == target`` is a caller error.

    Every entry point — solve(), each registry algorithm, PeeK, BatchPeeK,
    the pruning stage, and the serving layer — raises :class:`KSPError`
    (never a silent empty result, never a zero-length "path")."""

    def test_solve_raises(self, diamond_graph):
        import repro

        with pytest.raises(KSPError):
            repro.solve(diamond_graph, 2, 2, k=3)

    @pytest.mark.parametrize("method", sorted(ALGORITHMS))
    def test_every_algorithm_raises(self, diamond_graph, method):
        with pytest.raises(KSPError):
            make_algorithm(method, diamond_graph, 2, 2)

    def test_peek_ksp_raises(self, diamond_graph):
        with pytest.raises(KSPError):
            peek_ksp(diamond_graph, 1, 1, 2)

    def test_pruning_raises(self, diamond_graph):
        with pytest.raises(KSPError):
            k_upper_bound_prune(diamond_graph, 1, 1, 2)

    def test_batch_peek_raises(self, diamond_graph):
        from repro.core.batch import BatchPeeK

        with pytest.raises(KSPError):
            BatchPeeK(diamond_graph).query(3, 3, 2)

    def test_query_server_raises(self, diamond_graph):
        from repro.serve import QueryServer

        with pytest.raises(KSPError):
            QueryServer(diamond_graph).serve(0, 0, 2)

    def test_vertex_error_wins_for_out_of_range(self, diamond_graph):
        """(n, n) is out of range first, equal second: VertexError."""
        import repro

        n = diamond_graph.num_vertices
        with pytest.raises(VertexError):
            repro.solve(diamond_graph, n, n, k=2)


class TestPruningTaxonomy:
    """The pruning stage rejects a bad query through ``validate_query``:
    the same exception, the same message, in the same order."""

    @pytest.mark.parametrize(
        "fields,exc",
        [
            ((0, 99, 2), VertexError),
            ((-1, 1, 2), VertexError),
            ((4, 4, 2), VertexError),  # (n, n): range before equality
            ((4, 4, 0), VertexError),
            ((3, 3, 2), KSPError),
            ((3, 3, 0), KSPError),
            ((0, 3, 0), ValueError),
        ],
    )
    def test_same_error_as_validate_query(self, diamond_graph, fields, exc):
        from repro.serve.query import Query, validate_query

        s, t, k = fields
        with pytest.raises(exc) as expected:
            validate_query(diamond_graph, Query(s, t, k))
        with pytest.raises(exc) as got:
            k_upper_bound_prune(diamond_graph, s, t, k)
        assert str(got.value) == str(expected.value)

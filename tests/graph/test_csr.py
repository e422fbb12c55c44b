"""Unit tests for :class:`repro.graph.csr.CSRGraph`."""

import numpy as np
import pytest

from repro.core.compaction import compact_regenerate
from repro.errors import GraphFormatError, InvalidWeightError, VertexError
from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi


def simple_graph() -> CSRGraph:
    return from_edge_list(4, [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])


class TestConstruction:
    def test_counts(self):
        g = simple_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_paper_aliases(self):
        g = simple_graph()
        assert g.n == g.num_vertices
        assert g.m == g.num_edges

    def test_empty_graph(self):
        g = CSRGraph(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_isolated_vertices(self):
        g = from_edge_list(5, [(0, 1, 1.0)])
        assert g.out_degree(4) == 0

    def test_bad_indptr_start(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 1]), np.empty(0, np.int64), np.empty(0))

    def test_decreasing_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_target_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5]), np.array([1.0]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([0.0]))

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([float("nan")]))

    def test_indptr_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2]), np.array([0]), np.array([1.0]))


class TestAdjacency:
    def test_neighbors_are_views(self):
        g = simple_graph()
        t, w = g.neighbors(0)
        assert t.base is g.indices or t.base is not None  # a view, not a copy
        assert list(t) == [1, 2]
        assert list(w) == [1.0, 2.0]

    def test_out_degrees(self):
        g = simple_graph()
        assert list(g.out_degrees()) == [2, 1, 1, 0]
        assert g.out_degree(0) == 2

    def test_vertex_range_checked(self):
        g = simple_graph()
        with pytest.raises(VertexError):
            g.neighbors(4)
        with pytest.raises(VertexError):
            g.out_degree(-1)

    def test_has_edge_and_weight(self):
        g = simple_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.edge_weight(0, 2) == 2.0
        assert g.edge_weight(2, 0) is None

    def test_parallel_edges_weight_is_min(self):
        g = from_edge_list(2, [(0, 1, 5.0), (0, 1, 2.0)], dedup=False)
        assert g.edge_weight(0, 1) == 2.0

    def test_iter_edges(self):
        g = simple_graph()
        edges = list(g.iter_edges())
        assert (0, 1, 1.0) in edges
        assert len(edges) == 4

    def test_edge_sources(self):
        g = simple_graph()
        assert list(g.edge_sources()) == [0, 0, 1, 2]

    def test_edge_sources_cached_read_only(self):
        g = erdos_renyi(50, 4.0, seed=3)
        src = g.edge_sources()
        expected = np.repeat(
            np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr)
        )
        assert src.dtype == np.int64
        assert np.array_equal(src, expected)
        assert g.edge_sources() is src
        assert not src.flags.writeable
        with pytest.raises(ValueError):
            src[0] = 1

    def test_sparse_matrix(self):
        g = simple_graph()
        m = g.sparse_matrix()
        assert g.sparse_matrix() is m
        assert m.shape == (4, 4)
        assert m.toarray()[1, 3] == 3.0 and m.nnz == g.num_edges
        assert np.shares_memory(m.data, g.weights)

    def test_adjacency_arrays_protocol(self):
        g = simple_graph()
        begins, ends, idx, w, mask = g.adjacency_arrays()
        assert mask is None
        assert list(idx[begins[0] : ends[0]]) == [1, 2]


class TestReverse:
    def test_reverse_edges(self):
        g = simple_graph()
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(3, 1)
        assert r.edge_weight(3, 2) == 4.0
        assert r.num_edges == g.num_edges

    def test_reverse_is_cached_and_involutive(self):
        g = simple_graph()
        assert g.reverse() is g.reverse()
        assert g.reverse().reverse() is g

    def test_reverse_of_random_graph_preserves_edge_multiset(self):
        g = erdos_renyi(50, 3.0, seed=1)
        fwd = sorted((u, v, w) for u, v, w in g.iter_edges())
        rev = sorted((v, u, w) for u, v, w in g.reverse().iter_edges())
        assert fwd == rev


class TestEquality:
    def test_structural_equality_ignores_order(self):
        a = from_edge_list(3, [(0, 1, 1.0), (0, 2, 2.0)], dedup=False)
        b = from_edge_list(3, [(0, 2, 2.0), (0, 1, 1.0)], dedup=False)
        assert a.structurally_equal(b)

    def test_structural_inequality(self):
        a = from_edge_list(3, [(0, 1, 1.0)])
        b = from_edge_list(3, [(0, 1, 2.0)])
        assert not a.structurally_equal(b)

    def test_different_sizes_unequal(self):
        a = from_edge_list(3, [(0, 1, 1.0)])
        b = from_edge_list(4, [(0, 1, 1.0)])
        assert not a.structurally_equal(b)


class TestSortedCopy:
    """The single-lexsort sorted_copy must equal a per-vertex reference sort."""

    @staticmethod
    def _reference_sorted(g):
        indices = g.indices.copy()
        weights = g.weights.copy()
        for v in range(g.num_vertices):
            lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
            order = sorted(range(lo, hi), key=lambda e: (indices[e], weights[e]))
            indices[lo:hi] = [g.indices[e] for e in order]
            weights[lo:hi] = [g.weights[e] for e in order]
        return indices, weights

    def test_matches_per_vertex_sort(self):
        for seed in (0, 1, 2):
            g = erdos_renyi(60, 5.0, seed=seed)
            got = g.sorted_copy()
            ref_idx, ref_w = self._reference_sorted(g)
            assert np.array_equal(got.indptr, g.indptr)
            assert np.array_equal(got.indices, ref_idx)
            assert np.array_equal(got.weights, ref_w)

    def test_parallel_edges_sorted_by_weight(self):
        g = from_edge_list(
            2, [(0, 1, 3.0), (0, 1, 1.0), (0, 1, 2.0)], dedup=False
        )
        s = g.sorted_copy()
        assert list(s.weights) == [1.0, 2.0, 3.0]

    def test_empty_graph(self):
        g = from_edge_list(3, [])
        s = g.sorted_copy()
        assert s.num_edges == 0 and s.num_vertices == 3
        assert s.indptr is not g.indptr  # a real copy

    def test_does_not_mutate_original(self):
        g = from_edge_list(2, [(0, 1, 2.0), (0, 1, 1.0)], dedup=False)
        before = g.weights.copy()
        g.sorted_copy()
        assert np.array_equal(g.weights, before)


class TestSubgraph:
    """Vertex-induced subgraphs come from the compaction layer's regeneration."""

    def test_induced_subgraph_keeps_internal_edges(self):
        g = simple_graph()
        keep = np.array([True, True, False, True])
        regen = compact_regenerate(g, keep)
        sub, new_id = regen.graph, regen.new_id
        assert sub.num_vertices == 3
        assert list(regen.old_id) == [0, 1, 3]
        # edges 0->1 and 1->3 survive; 0->2 and 2->3 die
        assert sub.num_edges == 2
        assert sub.has_edge(int(new_id[0]), int(new_id[1]))
        assert sub.has_edge(int(new_id[1]), int(new_id[3]))

    def test_bad_mask_length(self):
        g = simple_graph()
        with pytest.raises(GraphFormatError):
            compact_regenerate(g, np.array([True]))

    def test_keep_everything_is_identity(self):
        g = erdos_renyi(30, 3.0, seed=2)
        regen = compact_regenerate(g, np.ones(30, dtype=bool))
        assert regen.graph.structurally_equal(g)
        assert list(regen.new_id) == list(range(30))


def test_memory_bytes_positive():
    assert simple_graph().memory_bytes() > 0

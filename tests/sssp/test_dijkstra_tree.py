"""The compiled prune kernel, pinned bitwise to the Python Dijkstra loop.

:func:`~repro.sssp.dijkstra.dijkstra_tree` runs SciPy's Dijkstra and then
rebuilds what the heap loop ``dijkstra(graph, root)`` returns: the same
``dist`` and ``parent`` (the loop's tie rule: the tight in-neighbour with the
smallest ``(dist, id)``), the same ``vertices_settled``/``edges_relaxed``/
``phases`` and the same ``sssp.dijkstra`` checkpoint stream.  The graphs
below are built to break a careless reimplementation: tied integer weights
(many tight in-edges per vertex), parallel edges and self-loops (no dedup),
rows in insertion order (unsorted targets) and isolated vertices that are
never reached.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cancel import fault_scope, now
from repro.errors import KSPTimeout, VertexError
from repro.graph.build import from_edge_array
from repro.graph.suite import suite_graph
from repro.obs.tracer import Tracer, use_tracer
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra, dijkstra_tree


@st.composite
def tree_cases(draw, max_n=24, max_m=90):
    """A raw digraph (parallel edges, self-loops, unsorted rows, isolated
    vertices) with tied-integer or float weights, and a root."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    isolated = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        w = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    else:
        w = draw(
            st.lists(st.floats(0.25, 8.0, allow_nan=False), min_size=m, max_size=m)
        )
    g = from_edge_array(
        n + isolated,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        dedup=False,
        drop_self_loops=False,
    )
    root = draw(st.integers(0, n + isolated - 1))
    return g, root


def assert_pinned(graph, root):
    got = dijkstra_tree(graph, root)
    ref = dijkstra(graph, root)
    assert got.source == ref.source
    assert got.dist.dtype == ref.dist.dtype
    assert got.dist.tobytes() == ref.dist.tobytes()
    assert got.parent.dtype == ref.parent.dtype
    assert got.parent.tobytes() == ref.parent.tobytes()
    assert got.stats.vertices_settled == ref.stats.vertices_settled
    assert got.stats.edges_relaxed == ref.stats.edges_relaxed
    assert got.stats.phases == ref.stats.phases
    assert got.stats.heap_pushes == 0  # not observable in a compiled call
    assert got.stats.phase_work == []


def _stages(kernel, graph, root):
    seen = []
    with fault_scope(seen.append):
        kernel(graph, root)
    return seen


class TestPinnedToLoop:
    @given(tree_cases())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, case):
        assert_pinned(*case)

    @given(tree_cases())
    @settings(max_examples=100, deadline=None)
    def test_reverse_graph(self, case):
        g, root = case
        assert_pinned(g.reverse(), root)

    @given(tree_cases(max_n=700, max_m=2400))
    @settings(max_examples=25, deadline=None)
    def test_same_checkpoint_stages(self, case):
        """Entry plus one visit per SETTLE_CHECK_INTERVAL settled vertices:
        graphs up to 700 vertices cross the interval a few times."""
        g, root = case
        assert _stages(dijkstra_tree, g, root) == _stages(dijkstra, g, root)

    @pytest.mark.parametrize("name", ["LJ", "WL", "LJU", "WLU"])
    def test_suite_graphs(self, name):
        g = suite_graph(name, "tiny")
        roots = np.random.default_rng(11).integers(0, g.num_vertices, 4)
        for graph in (g, g.reverse()):
            for root in roots.tolist():
                assert_pinned(graph, root)
                assert _stages(dijkstra_tree, graph, root) == _stages(
                    dijkstra, graph, root
                )

    def test_tracer_counters(self):
        g = suite_graph("LJU", "tiny")
        totals = []
        for kernel in (dijkstra_tree, dijkstra):
            tracer = Tracer()
            with use_tracer(tracer), tracer.span("tree"):
                kernel(g, 3)
            totals.append(
                [
                    tracer.total(c)
                    for c in ("sssp.calls", "sssp.edges_relaxed", "sssp.vertices_settled")
                ]
            )
            pushes = tracer.total("sssp.heap_pushes")
        assert totals[0] == totals[1]
        assert pushes > 0  # the loop's; the compiled kernel emits none


class TestAgainstDeltaStepping:
    @given(tree_cases())
    @settings(max_examples=150, deadline=None)
    def test_dist_bitwise_equal(self, case):
        g, root = case
        got = dijkstra_tree(g, root)
        ref = delta_stepping(g, root)
        assert got.dist.tobytes() == ref.dist.tobytes()


class TestGuards:
    @pytest.mark.parametrize("root", [-1, -7, 6, 50])
    def test_out_of_range_root(self, root):
        g = from_edge_array(6, np.array([0, 1]), np.array([1, 2]), 1.0)
        with pytest.raises(VertexError):
            dijkstra_tree(g, root)

    def test_expired_deadline_raises_before_scipy(self, monkeypatch):
        import scipy.sparse.csgraph

        def boom(*args, **kwargs):
            raise AssertionError("SciPy ran after the deadline had passed")

        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", boom)
        g = suite_graph("LJ", "tiny")
        with pytest.raises(KSPTimeout):
            dijkstra_tree(g, 0, deadline=now() - 1.0)

    def test_matrix_is_cached(self):
        g = suite_graph("WL", "tiny")
        dijkstra_tree(g, 0)
        m = g.sparse_matrix()
        dijkstra_tree(g, 1)
        assert g.sparse_matrix() is m
        assert np.shares_memory(m.data, g.weights)

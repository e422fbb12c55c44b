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

The tree resolves parents and ``edges_relaxed`` on demand: ``parent_of(v)``
applies the tie rule to one vertex, and ``.parent`` (the eager
:func:`~repro.sssp.dijkstra.loop_parents` pass, also the fallback once a
share of the vertices is resolved) builds the whole array.  Both are pinned
to the loop here.
"""

import importlib

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
from repro.sssp.dijkstra import (
    PARENT_FALLBACK_SHARE,
    dijkstra,
    dijkstra_tree,
    loop_parents,
)

# the module itself: ``repro.sssp`` re-exports the function under its name
dijkstra_module = importlib.import_module("repro.sssp.dijkstra")


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
        """An enabled tracer gets every ``sssp.*`` counter at the call, with
        the loop's values (``edges_relaxed`` is counted there, not on read)."""
        graphs = [suite_graph(name, "tiny") for name in ("LJ", "WL", "LJU", "R21U")]
        totals = []
        for kernel in (dijkstra_tree, dijkstra):
            tracer = Tracer()
            with use_tracer(tracer), tracer.span("tree"):
                for g in graphs:
                    for root in (3, 9):
                        kernel(g, root)
                        kernel(g.reverse(), root)
            totals.append(
                [
                    tracer.total(c)
                    for c in ("sssp.calls", "sssp.edges_relaxed", "sssp.vertices_settled")
                ]
            )
            pushes = tracer.total("sssp.heap_pushes")
        assert totals[0] == totals[1]
        assert pushes > 0  # the loop's; the compiled kernel emits none


def lazy_parents(graph, root):
    """Every vertex's ``parent_of``, read one by one before ``.parent`` is
    touched and with the fallback off, so each read is a lazy resolution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dijkstra_module, "PARENT_FALLBACK_SHARE", 1)
        tree = dijkstra_tree(graph, root)
        got = [tree.parent_of(v) for v in range(graph.num_vertices)]
    assert tree._parent is None  # no read fell back to the full array
    return tree, got


class TestLazyParents:
    @given(tree_cases())
    @settings(max_examples=300, deadline=None)
    def test_parent_of_matches_loop(self, case):
        g, root = case
        ref = dijkstra(g, root)
        tree, got = lazy_parents(g, root)
        assert got == ref.parent.tolist()
        # the eager pass (.parent, the fallback) is the same array
        assert tree.parent.tobytes() == ref.parent.tobytes()
        assert got == [tree.parent_of(v) for v in range(g.num_vertices)]

    @given(tree_cases())
    @settings(max_examples=100, deadline=None)
    def test_first_read_with_default_share(self, case):
        """The first read of a fresh tree always resolves lazily, whatever
        n is, so this reaches every vertex under the real constant."""
        g, root = case
        ref = dijkstra(g, root).parent.tolist()
        for v in range(g.num_vertices):
            tree = dijkstra_tree(g, root)
            assert tree.parent_of(v) == ref[v]
            assert tree._parent is None

    @pytest.mark.parametrize("name", ["LJU", "WLU", "R21U"])
    def test_suite_roots(self, name):
        g = suite_graph(name, "tiny")
        roots = np.random.default_rng(5).integers(0, g.num_vertices, 4)
        for graph in (g, g.reverse()):
            for root in roots.tolist():
                ref = dijkstra(graph, root)
                _, got = lazy_parents(graph, root)
                assert got == ref.parent.tolist()

    @pytest.mark.parametrize("name", ["LJU", "R21U"])
    def test_walk_crosses_the_fallback_share(self, name):
        """Lazy reads up to n // PARENT_FALLBACK_SHARE resolved vertices,
        then the eager array: the answers do not change at the switch."""
        g = suite_graph(name, "tiny")
        ref = dijkstra(g, 7).parent.tolist()
        tree = dijkstra_tree(g, 7)
        order = np.random.default_rng(3).permutation(g.num_vertices).tolist()
        share = g.num_vertices // PARENT_FALLBACK_SHARE
        for i, v in enumerate(order):
            assert tree.parent_of(v) == ref[v]
            assert (tree._parent is None) == (i <= share)
        assert tree.parent.tolist() == ref
        assert loop_parents(g, 7, tree.dist, tree._pred).tolist() == ref

    def test_memoised_on_the_tree(self):
        g = suite_graph("LJU", "tiny")
        tree = dijkstra_tree(g, 2)
        first = tree.parent_of(40)
        assert tree._resolved == {40: first}
        assert tree.parent_of(40) == first
        assert len(tree._resolved) == 1


class TestLazyCounters:
    @given(tree_cases())
    @settings(max_examples=150, deadline=None)
    def test_edges_relaxed_read_lazily(self, case):
        g, root = case
        ref = dijkstra(g, root).stats
        got = dijkstra_tree(g, root).stats
        assert got.vertices_settled == ref.vertices_settled  # eager
        assert got.phases == ref.phases
        assert got.edges_relaxed == ref.edges_relaxed
        assert got.total_work == ref.total_work

    def test_assigning_pins_the_counter(self):
        stats = dijkstra_tree(suite_graph("LJ", "tiny"), 0).stats
        stats.edges_relaxed = 5
        assert stats.edges_relaxed == 5


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

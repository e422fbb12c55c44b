"""Backend equivalence suite: scalar / vectorized Δ-stepping.

The vectorized kernel's contract is **bitwise** agreement with the scalar
reference engine — identical ``dist`` AND identical ``parent`` (same
tie-breaks), not merely ``allclose`` — because downstream pruning builds
paths from the parent trees and the reproducibility harness hashes them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact_status_array
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.generators import erdos_renyi
from repro.sssp.delta_stepping import BACKENDS, delta_stepping


#: continuous weights (ties are rare) or small integers (ties everywhere:
#: equal-cost paths, so the first-minimum tie-break decides ``parent``)
WEIGHTS = {
    "continuous": st.floats(
        min_value=0.001,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    "tied": st.integers(1, 3).map(float),
}


@st.composite
def graphs(draw, max_n=24, max_m=80):
    """An arbitrary positively-weighted digraph plus a source vertex."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    w = draw(st.lists(weight, min_size=m, max_size=m))
    g = from_edge_array(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )
    source = draw(st.integers(0, n - 1))
    return g, source


def assert_bitwise(a, b):
    assert np.array_equal(a.dist, b.dist, equal_nan=True)
    assert np.array_equal(a.parent, b.parent)


class TestScalarVectorizedBitwise:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, case):
        g, s = case
        assert_bitwise(
            delta_stepping(g, s, backend="scalar"),
            delta_stepping(g, s, backend="vectorized"),
        )

    @given(graphs(), st.floats(min_value=0.01, max_value=200.0))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_any_delta(self, case, delta):
        g, s = case
        assert_bitwise(
            delta_stepping(g, s, delta=delta, backend="scalar"),
            delta_stepping(g, s, delta=delta, backend="vectorized"),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_er_seeds(self, seed):
        g = erdos_renyi(120, 5.0, seed=seed)
        assert_bitwise(
            delta_stepping(g, 0, backend="scalar"),
            delta_stepping(g, 0, backend="vectorized"),
        )

    def test_stats_match_too(self):
        """Same batch sequence ⇒ same phase log, not only the same answer."""
        g = erdos_renyi(100, 4.0, seed=11)
        a = delta_stepping(g, 0, backend="scalar")
        b = delta_stepping(g, 0, backend="vectorized")
        assert a.stats.phases == b.stats.phases
        assert a.stats.phase_work == b.stats.phase_work
        assert a.stats.edges_relaxed == b.stats.edges_relaxed
        assert a.stats.vertices_settled == b.stats.vertices_settled

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_vertex_mask(self, case):
        """Masked-out vertices, as the status-array compaction view drops
        them: both engines filter the view's edge mask per batch."""
        g, s = case
        rng = np.random.default_rng(g.num_vertices)
        mask = rng.random(g.num_vertices) > 0.3
        mask[s] = True
        view = compact_status_array(g, mask)
        assert_bitwise(
            delta_stepping(view, s, backend="scalar"),
            delta_stepping(view, s, backend="vectorized"),
        )


class TestValidation:
    def test_unknown_backend(self, diamond_graph):
        with pytest.raises(ValueError, match="backend"):
            delta_stepping(diamond_graph, 0, backend="simd")

    def test_backends_constant(self):
        assert BACKENDS == ("scalar", "vectorized")

    def test_single_vertex_all_backends(self):
        g = from_edge_list(1, [])
        for backend in ("scalar", "vectorized"):
            res = delta_stepping(g, 0, backend=backend)
            # parent[source] == source is the library-wide root convention
            assert res.dist[0] == 0.0 and res.parent[0] == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_delta_rejected(self, backend, diamond_graph):
        """NaN fails every comparison, so only ``not delta > 0`` rejects
        it; a run would put every vertex in bucket INT64_MIN."""
        with pytest.raises(ValueError, match="delta"):
            delta_stepping(
                diamond_graph, 0, delta=float("nan"), backend=backend
            )

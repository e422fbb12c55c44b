"""Backend equivalence suite: scalar / vectorized / mp Δ-stepping.

The vectorized kernel's contract is **bitwise** agreement with the scalar
reference engine — identical ``dist`` AND identical ``parent`` (same
tie-breaks), not merely ``allclose`` — because downstream pruning builds
paths from the parent trees and the reproducibility harness hashes them.
The mp backend must additionally be invariant to the worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cancel import fault_scope
from repro.errors import KSPTimeout
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.sssp.delta_stepping import BACKENDS, delta_stepping
from repro.sssp.workspace import SSSPWorkspace


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
        g, s = case
        rng = np.random.default_rng(g.num_vertices)
        mask = rng.random(g.num_vertices) > 0.3
        mask[s] = True
        assert_bitwise(
            delta_stepping(g, s, vertex_mask=mask, backend="scalar"),
            delta_stepping(g, s, vertex_mask=mask, backend="vectorized"),
        )


class TestMPBitwise:
    """A few fixed-graph mp cases; the full matrix lives in
    tests/parallel/test_mp_backend.py."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_er(self, seed):
        g = erdos_renyi(150, 5.0, seed=seed)
        assert_bitwise(
            delta_stepping(g, 0, backend="vectorized"),
            delta_stepping(g, 0, backend="mp", num_workers=2),
        )

    def test_grid(self):
        g = grid_network(10, 10, seed=1)
        assert_bitwise(
            delta_stepping(g, 0, backend="scalar"),
            delta_stepping(g, 0, backend="mp", num_workers=2),
        )


class TestWorkspaceReuse:
    def test_reuse_is_bitwise_identical(self):
        g = erdos_renyi(150, 5.0, seed=2)
        ws = SSSPWorkspace(g)
        fresh = [delta_stepping(g, s).dist.copy() for s in (0, 7, 7, 31)]
        # workspace runs hand back the workspace's own buffers — copy before
        # the next run overwrites them
        reused = [
            delta_stepping(g, s, workspace=ws).dist.copy()
            for s in (0, 7, 7, 31)
        ]
        for a, b in zip(fresh, reused):
            assert np.array_equal(a, b, equal_nan=True)

    def test_workspace_scalar_backend(self):
        g = erdos_renyi(80, 4.0, seed=5)
        ws = SSSPWorkspace(g)
        for s in (0, 9, 0):
            assert_bitwise(
                delta_stepping(g, s, workspace=ws, backend="scalar"),
                delta_stepping(g, s, backend="vectorized"),
            )

    def test_foreign_workspace_rejected(self):
        g1 = erdos_renyi(40, 3.0, seed=0)
        g2 = erdos_renyi(40, 3.0, seed=1)
        ws = SSSPWorkspace(g1)
        with pytest.raises(ValueError, match="different graph"):
            delta_stepping(g2, 0, workspace=ws)

    def test_mp_backend_rejects_workspace(self):
        g = erdos_renyi(40, 3.0, seed=0)
        ws = SSSPWorkspace(g)
        with pytest.raises(ValueError, match="workspace"):
            delta_stepping(g, 0, backend="mp", workspace=ws)


class TestCancellationLeavesWorkspaceReusable:
    def _interrupt_at(self, nth):
        """A fault hook that raises on the nth ``sssp.delta`` checkpoint."""
        state = {"hits": 0}

        def hook(stage):
            if stage == "sssp.delta":
                state["hits"] += 1
                if state["hits"] == nth:
                    raise KSPTimeout("injected mid-run cancellation")

        return hook

    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    @pytest.mark.parametrize("nth", [1, 2, 4])
    def test_mid_run_interrupt_then_clean_rerun(self, backend, nth):
        g = erdos_renyi(150, 5.0, seed=4)
        ws = SSSPWorkspace(g)
        clean = delta_stepping(g, 3, backend=backend)
        with fault_scope(self._interrupt_at(nth)):
            with pytest.raises(KSPTimeout):
                delta_stepping(g, 3, workspace=ws, backend=backend)
        # The interrupted run left dirty epochs behind; the next acquire
        # must sparse-reset them so the rerun is bitwise clean.
        again = delta_stepping(g, 3, workspace=ws, backend=backend)
        assert_bitwise(clean, again)

    def test_expired_deadline_then_clean_rerun(self):
        import time

        g = erdos_renyi(120, 4.0, seed=9)
        ws = SSSPWorkspace(g)
        clean = delta_stepping(g, 0)
        with pytest.raises(KSPTimeout):
            delta_stepping(
                g, 0, workspace=ws, deadline=time.perf_counter() - 1.0
            )
        assert_bitwise(clean, delta_stepping(g, 0, workspace=ws))


class TestValidation:
    def test_unknown_backend(self, diamond_graph):
        with pytest.raises(ValueError, match="backend"):
            delta_stepping(diamond_graph, 0, backend="simd")

    def test_backends_constant(self):
        assert BACKENDS == ("scalar", "vectorized", "mp")

    def test_single_vertex_all_backends(self):
        g = from_edge_list(1, [])
        for backend in ("scalar", "vectorized"):
            res = delta_stepping(g, 0, backend=backend)
            # parent[source] == source is the library-wide root convention
            assert res.dist[0] == 0.0 and res.parent[0] == 0

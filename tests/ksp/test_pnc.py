"""Unit tests for the postponed-NC (PNC) extension."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, grid_network
from repro.ksp.pnc import PostponedNCKSP, pnc_ksp
from repro.ksp.yen import yen_ksp
from tests.conftest import nx_k_shortest_distances, random_reachable_pair


class TestCorrectness:
    def test_fan_graph(self, fan_graph):
        assert pnc_ksp(fan_graph, 0, 4, 4).distances == pytest.approx(
            [2.0, 4.0, 6.0, 20.0]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_yen(self, seed):
        g = erdos_renyi(40, 3.0, seed=seed + 120)
        s, t = random_reachable_pair(g, seed=seed)
        assert np.allclose(
            pnc_ksp(g, s, t, 9).distances, yen_ksp(g, s, t, 9).distances
        )

    def test_matches_networkx_grid(self):
        g = grid_network(6, 6, seed=7)
        ref = nx_k_shortest_distances(g, 0, 35, 10)
        assert np.allclose(pnc_ksp(g, 0, 35, 10).distances, ref)


def test_rejects_bound(fan_graph):
    # OptYen's bound cut is not wired into the postponed pool or repairs
    with pytest.raises(TypeError, match="bound"):
        PostponedNCKSP(fan_graph, 0, 4, bound=10.0)


class TestPostponement:
    def test_repairs_only_on_extraction(self, medium_er):
        """PNC should repair at most as many candidates as Yen-style code
        would have run SSSPs eagerly for the same dirty deviations."""
        s, t = random_reachable_pair(medium_er, seed=8)
        from repro.ksp.optyen import OptYenKSP

        eager = OptYenKSP(medium_er, s, t)
        eager.run(10)
        lazy = PostponedNCKSP(medium_er, s, t)
        lazy.run(10)
        # every eager fallback SSSP was a dirty express path; PNC repairs a
        # subset of those (only the extracted ones)
        assert lazy.stats.repairs <= max(eager.stats.sssp_calls, 1)

    def test_results_never_contain_placeholder(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=8)
        res = pnc_ksp(medium_er, s, t, 10)
        for p in res.paths:
            assert p.is_simple()

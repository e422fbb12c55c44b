"""Unit tests for the shared deviation framework internals."""

import pytest

from repro.graph.generators import erdos_renyi, grid_network
from repro.ksp.base import Candidate, KSPResult, KSPStats
from repro.ksp.node_classification import NodeClassificationKSP
from repro.ksp.optyen import OptYenKSP
from repro.ksp.pnc import PostponedNCKSP
from repro.ksp.yen import YenKSP
from repro.paths import Path
from tests.conftest import random_reachable_pair


class TestCandidateOrdering:
    def test_by_distance_first(self):
        a = Candidate(distance=1.0, vertices=(0, 9), deviation_index=0)
        b = Candidate(distance=2.0, vertices=(0, 1), deviation_index=0)
        assert a < b

    def test_vertex_tiebreak(self):
        a = Candidate(distance=1.0, vertices=(0, 1), deviation_index=0)
        b = Candidate(distance=1.0, vertices=(0, 2), deviation_index=0)
        assert a < b

    def test_flags_do_not_affect_order(self):
        a = Candidate(distance=1.0, vertices=(0, 1), deviation_index=5, exact=False)
        b = Candidate(distance=1.0, vertices=(0, 1), deviation_index=1, exact=True)
        assert not a < b and not b < a


class TestKSPStats:
    def test_add_sssp_folds_counters(self):
        from repro.sssp.result import SSSPStats

        st = KSPStats()
        work = st.add_sssp(SSSPStats(edges_relaxed=10, vertices_settled=4))
        assert work == 14
        assert st.sssp_calls == 1
        assert st.total_work == 14


class TestKSPResult:
    def test_distances_property(self):
        res = KSPResult(
            paths=[Path(1.0, (0, 1)), Path(2.0, (0, 2, 1))], k_requested=2
        )
        assert res.distances == [1.0, 2.0]

    def test_coverage(self):
        res = KSPResult(paths=[Path(1.0, (0, 1)), Path(2.0, (0, 2, 1))], k_requested=2)
        assert res.covered_vertices() == {0, 1, 2}
        assert res.covered_edges() == {(0, 1), (0, 2), (2, 1)}

    def test_empty_result(self):
        res = KSPResult(paths=[], k_requested=3)
        assert res.distances == []
        assert res.covered_vertices() == set()


class TestDeviationEdges:
    def test_edges_banned_only_for_matching_prefix(self, fan_graph):
        algo = YenKSP(fan_graph, 0, 4)
        algo._index_accepted(Path(2.0, (0, 1, 4)))
        algo._index_accepted(Path(4.0, (0, 2, 4)))
        banned = algo._deviation_edges((0,))
        assert banned == {(0, 1), (0, 2)}
        # a prefix that matches only the first path
        banned = algo._deviation_edges((0, 1))
        assert banned == {(1, 4)}
        # a prefix matching nothing
        banned = algo._deviation_edges((0, 3))
        assert banned == frozenset()


class _ScanCheckedMixin:
    """Checks every spur's indexed deviation edges against the old scan
    over all accepted paths."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._accepted_log = []
        self.spurs_checked = 0

    def _index_accepted(self, path):
        self._accepted_log.append(path)
        super()._index_accepted(path)

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        i = len(prefix) - 1
        scan = frozenset(
            (prefix[-1], p.vertices[i + 1])
            for p in self._accepted_log
            if len(p.vertices) > i + 1 and p.vertices[: i + 1] == prefix
        )
        assert banned_edges == scan
        self.spurs_checked += 1
        return super()._find_suffix(
            dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
        )


class TestDeviationEdgeIndex:
    @pytest.mark.parametrize(
        "base", [YenKSP, OptYenKSP, PostponedNCKSP, NodeClassificationKSP]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_index_equals_scan_on_every_spur(self, base, seed):
        checked = type("Checked", (_ScanCheckedMixin, base), {})
        for g in (
            erdos_renyi(120, 4.0, seed=seed + 40),
            grid_network(8, 8, weight_scheme="unit", seed=seed),
        ):
            s, t = random_reachable_pair(g, seed=seed)
            algo = checked(g, s, t)
            algo.run(24)
            assert algo.spurs_checked > 0


class TestIterPaths:
    def test_generator_is_lazy(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=30)
        algo = YenKSP(medium_er, s, t)
        gen = algo.iter_paths()
        first = next(gen)
        sssp_after_first = algo.stats.sssp_calls
        next(gen)
        assert algo.stats.sssp_calls > sssp_after_first

    def test_run_twice_needs_fresh_instance(self, fan_graph):
        algo = YenKSP(fan_graph, 0, 4)
        r1 = algo.run(2)
        # a second run on the same instance reuses consumed state; the
        # documented contract is one run per instance
        fresh = YenKSP(fan_graph, 0, 4).run(2)
        assert r1.distances == fresh.distances

"""Unit tests for OptYen, and its A* fallback pinned to the plain one."""

import numpy as np
import pytest

from repro.analysis.sanitize import check_workspace
from repro.core.compaction import compact_status_array
from repro.errors import UnreachableTargetError
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.ksp.optyen import OptYenKSP, optyen_ksp
from repro.ksp.pnc import PostponedNCKSP
from repro.ksp.yen import yen_ksp
from repro.verify import verify_ksp_result
from tests.conftest import nx_k_shortest_distances, random_reachable_pair


class _PlainOptYen(OptYenKSP):
    """OptYen with Ajwani et al.'s plain-Dijkstra fallback: the reference
    the A* fallback is pinned to."""

    def _prepare(self):
        super()._prepare()
        self._potential = None


class _PlainPNC(PostponedNCKSP):
    """PNC whose repairs run the plain-Dijkstra fallback."""

    def _prepare(self):
        super()._prepare()
        self._potential = None


class _PrefixChecked(OptYenKSP):
    """OptYen asserting each spur's prefix cost is the edge-by-edge sum
    of ``graph.edge_weight`` from 0.0."""

    spurs_checked = 0

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        want = 0.0
        for u, v in zip(prefix, prefix[1:]):
            want += self.graph.edge_weight(u, v)
        assert np.float64(prefix_dist).tobytes() == np.float64(want).tobytes()
        self.spurs_checked += 1
        return super()._find_suffix(
            dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
        )


PAIRS = [(OptYenKSP, _PlainOptYen), (PostponedNCKSP, _PlainPNC)]


def _continuous_cases():
    for seed in range(4):
        yield erdos_renyi(300, 4.0, seed=seed + 200), seed
        yield grid_network(12, 12, seed=seed + 300), seed


def _tied_graph(seed, n=60, m=240):
    """Small integer weights in {1, 2, 3}: many equal-cost paths."""
    rng = np.random.default_rng(seed)
    return from_edge_array(
        n,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(1, 4, size=m).astype(np.float64),
    )


class TestCorrectness:
    def test_fan_graph(self, fan_graph):
        res = optyen_ksp(fan_graph, 0, 4, 4)
        assert res.distances == pytest.approx([2.0, 4.0, 6.0, 20.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_yen(self, seed):
        g = erdos_renyi(40, 3.0, seed=seed + 60)
        s, t = random_reachable_pair(g, seed=seed)
        assert np.allclose(
            optyen_ksp(g, s, t, 8).distances, yen_ksp(g, s, t, 8).distances
        )

    def test_matches_networkx_on_grid(self, small_grid):
        ref = nx_k_shortest_distances(small_grid, 0, 63, 8)
        assert np.allclose(optyen_ksp(small_grid, 0, 63, 8).distances, ref)

    def test_unreachable(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        with pytest.raises(UnreachableTargetError):
            optyen_ksp(g, 0, 2, 1)


class TestExpressPath:
    def test_first_path_needs_one_sssp_only(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=1)
        algo = OptYenKSP(medium_er, s, t)
        algo.run(1)
        # the single reverse tree answers K=1 with no forward SSSP
        assert algo.stats.sssp_calls == 1

    def test_express_hits_recorded(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=1)
        algo = OptYenKSP(medium_er, s, t)
        algo.run(8)
        assert algo.stats.express_hits > 0

    def test_fewer_sssp_than_yen(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=4)
        opt = OptYenKSP(medium_er, s, t)
        opt.run(10)
        from repro.ksp.yen import YenKSP

        plain = YenKSP(medium_er, s, t)
        plain.run(10)
        assert opt.stats.sssp_calls < plain.stats.sssp_calls


class TestInternals:
    def test_best_first_hop_respects_bans(self, fan_graph):
        algo = OptYenKSP(fan_graph, 0, 4)
        algo._prepare()
        hop = algo._best_first_hop(0, frozenset(), frozenset())
        assert hop == (1, pytest.approx(2.0))
        hop2 = algo._best_first_hop(0, frozenset({1}), frozenset())
        assert hop2 == (2, pytest.approx(4.0))
        hop3 = algo._best_first_hop(0, frozenset(), frozenset({(0, 1), (0, 2)}))
        assert hop3 == (3, pytest.approx(6.0))

    def test_no_allowed_hop(self, fan_graph):
        algo = OptYenKSP(fan_graph, 0, 4)
        algo._prepare()
        assert (
            algo._best_first_hop(
                0, frozenset({1, 2, 3, 5}), frozenset()
            )
            is None
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_vector_first_hop_equals_scalar(self, seed):
        """The vectorised scan (degree >= 24, bans read from the
        workspace mask) picks what the scalar scan picks, smallest id on
        ties, over parallel edges and random bans."""
        rng = np.random.default_rng(seed)
        n, m = 40, 1400
        g = from_edge_array(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(1, 4, size=m).astype(np.float64),
            dedup=False,
        )
        vector = OptYenKSP(g, 0, n - 1)
        vector._prepare()
        scalar = OptYenKSP(g, 0, n - 1)
        scalar._prepare()
        scalar._VECTOR_MIN_DEGREE = n * n
        hubs = [v for v in range(n) if g.neighbors(v)[0].size >= 24]
        assert hubs
        for _ in range(60):
            v = int(rng.choice(hubs))
            others = [u for u in range(n) if u != v]
            bans = frozenset(
                int(u) for u in rng.choice(others, size=int(rng.integers(0, 30)))
            )
            heads = g.neighbors(v)[0]
            banned_edges = frozenset(
                (v, int(w)) for w in rng.choice(heads, size=int(rng.integers(0, 4)))
            )
            got = vector._best_first_hop(v, bans, banned_edges)
            ref = scalar._best_first_hop(v, bans, banned_edges)
            assert got == ref
        check_workspace(vector._get_workspace())

    def test_prefix_cost_from_the_workspace_mirror(self):
        """``_edge_weight`` is ``graph.edge_weight``, bitwise, on parallel
        edges and on a status-array view that masks edges out, and every
        spur sees the prefix cost summed edge by edge from 0.0."""
        rng = np.random.default_rng(3)
        n, m = 30, 240
        g = from_edge_array(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.uniform(0.1, 3.0, size=m),
            dedup=False,
        )
        keep_e = rng.random(g.num_edges) < 0.7
        view = compact_status_array(g, np.ones(n, dtype=bool), keep_e)
        for graph in (g, view):
            s, t = random_reachable_pair(graph, seed=2)
            algo = _PrefixChecked(graph, s, t)
            algo.run(32)
            assert algo.spurs_checked > 0
            for u in range(n):
                for v in set(graph.neighbors(u)[0].tolist()):
                    want = graph.edge_weight(u, v)
                    assert np.float64(algo._edge_weight(u, v)).tobytes() == (
                        np.float64(want).tobytes()
                    )

    def test_tree_suffix_detects_banned(self, fan_graph):
        algo = OptYenKSP(fan_graph, 0, 4)
        algo._prepare()
        assert algo._tree_suffix(0, 1, frozenset()) == (0, 1, 4)
        assert algo._tree_suffix(0, 1, frozenset({4})) is None


class TestAStarFallback:
    """The A* fallback returns what the plain-Dijkstra fallback returns."""

    @pytest.mark.parametrize("astar_cls, plain_cls", PAIRS)
    @pytest.mark.parametrize("k", [8, 64])
    def test_same_paths_on_continuous_weights(self, astar_cls, plain_cls, k):
        for g, seed in _continuous_cases():
            s, t = random_reachable_pair(g, seed=seed)
            astar = astar_cls(g, s, t)
            plain = plain_cls(g, s, t)
            got, ref = astar.run(k), plain.run(k)
            assert [p.vertices for p in got.paths] == [
                p.vertices for p in ref.paths
            ]
            assert got.distances == ref.distances
            assert astar.stats.sssp_calls == plain.stats.sssp_calls
            assert astar.stats.express_misses == plain.stats.express_misses
            assert astar.stats.vertices_settled <= plain.stats.vertices_settled

    @pytest.mark.parametrize("astar_cls, plain_cls", PAIRS)
    @pytest.mark.parametrize("seed", range(6))
    def test_tied_integer_weights(self, astar_cls, plain_cls, seed):
        unit = erdos_renyi(80, 4.0, weight_scheme="unit", seed=seed)
        for g in (_tied_graph(seed), unit):
            s, t = random_reachable_pair(g, seed=seed)
            got = astar_cls(g, s, t).run(32)
            ref = plain_cls(g, s, t).run(32)
            assert np.asarray(got.distances).tobytes() == np.asarray(
                ref.distances
            ).tobytes()
            report = verify_ksp_result(g, s, t, got)
            assert report, str(report)

    def test_every_miss_runs_one_search(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=4)
        algo = OptYenKSP(medium_er, s, t)
        algo.run(16)
        assert algo.stats.express_misses > 0
        # one reverse SSSP in _prepare, then one A* search per miss
        assert algo.stats.sssp_calls == 1 + algo.stats.express_misses
        assert algo.stats.repairs == 0

    def test_express_misses_in_ksp_span(self, medium_er):
        from repro.obs import Tracer, use_tracer

        s, t = random_reachable_pair(medium_er, seed=4)
        algo = OptYenKSP(medium_er, s, t)
        with use_tracer(Tracer()) as tracer:
            algo.run(16)
        (span,) = tracer.find("ksp")
        assert span.counters["ksp.express_misses"] == algo.stats.express_misses
        assert span.counters["ksp.repairs"] == 0

"""Tests for the batched multi-query PeeK front end."""

import numpy as np
import pytest

import repro
from repro.core import batch as batch_module
from repro.core.batch import BatchPeeK
from repro.core.integrate import PrunedKSP
from repro.core.peek import PeeK, peek_ksp
from repro.errors import UnreachableTargetError, VertexError
from repro.graph.build import from_edge_list
from repro.graph.suite import random_st_pairs, suite_graph
from repro.sssp.dijkstra import dijkstra
from tests.conftest import random_reachable_pair


class TestCorrectness:
    def test_matches_single_query_peek(self, medium_er):
        batch = BatchPeeK(medium_er)
        for seed in range(5):
            s, t = random_reachable_pair(medium_er, seed=seed)
            ref = peek_ksp(medium_er, s, t, 5).distances
            got = batch.query(s, t, 5).distances
            assert np.allclose(got, ref), (s, t)

    def test_result_artifacts(self, medium_er):
        batch = BatchPeeK(medium_er)
        s, t = random_reachable_pair(medium_er, seed=3)
        res = batch.query(s, t, 4)
        assert res.prune is not None
        assert res.compaction is not None
        for p in res.paths:
            assert p.source == s and p.target == t

    def test_dijkstra_kernel(self, medium_er):
        batch = BatchPeeK(medium_er)
        s, t = random_reachable_pair(medium_er, seed=4)
        assert np.allclose(
            batch.query(s, t, 4).distances, peek_ksp(medium_er, s, t, 4).distances
        )

    def test_unreachable(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        with pytest.raises(UnreachableTargetError):
            BatchPeeK(g).query(0, 2, 2)

    def test_bad_args(self, medium_er):
        batch = BatchPeeK(medium_er)
        with pytest.raises(VertexError):
            batch.query(0, 9999, 2)
        with pytest.raises(ValueError):
            batch.query(0, 1, 0)


def _front_end_run(front, batch, graph, s, t, k, strong, alpha):
    """One query through a shared-pipeline front end, plus its artefacts."""
    if front == "batch":
        res = batch.query(s, t, k)
        return res, res.prune, res.compaction, res.ksp_stats
    solver = PrunedKSP(
        graph,
        s,
        t,
        inner="OptYen",
        alpha=alpha,
        strong_edge_prune=strong,
    )
    res = solver.run(k)
    return res, solver.prune_result, solver.compaction_result, solver.stats


#: alpha -> compaction strategy it forces (None: the default rule decides)
_ALPHAS = {0.1: None, 1.0: "regeneration", 0.0: "edge-swap"}


def _bitwise_case_id(front, strong, alpha):
    # the ids name the prune kernel every case runs on: the default
    if front == "batch" and not strong and alpha == 0.1:
        return "dijkstra"
    parts = [front, "dijkstra"] + (["strong"] if strong else [])
    return "-".join(parts + [f"alpha{alpha}"])


#: BatchPeeK runs at PeeK's defaults (no strong edge prune, alpha 0.1);
#: PrunedKSP takes both settings, so it is swept over them
_BITWISE_CASES = [
    pytest.param(front, strong, alpha, id=_bitwise_case_id(front, strong, alpha))
    for front in ("batch", "pruned")
    for strong in (False, True)
    for alpha in _ALPHAS
    if front == "pruned" or (not strong and alpha == 0.1)
]


class TestBitwiseEquivalence:
    """BatchPeeK and PrunedKSP(inner="OptYen") run the same prune → compact
    → remnant-solver pipeline as single-query PeeK, so all three must agree
    *bitwise* — exact float distances, identical vertex tuples, identical
    pruning decision, compaction strategy and inner-solver counters — not
    just approximately."""

    @pytest.mark.parametrize("front, strong, alpha", _BITWISE_CASES)
    def test_query_bitwise_identical_to_peek(self, medium_er, front, strong, alpha):
        batch = BatchPeeK(medium_er)
        for seed in range(4):
            s, t = random_reachable_pair(medium_er, seed=seed)
            ref = PeeK(
                medium_er, s, t, alpha=alpha, strong_edge_prune=strong
            ).run(5)
            got, prune, comp, ksp_stats = _front_end_run(
                front, batch, medium_er, s, t, 5, strong, alpha
            )
            assert got.distances == ref.distances  # exact, no tolerance
            assert [p.vertices for p in got.paths] == [
                p.vertices for p in ref.paths
            ]
            assert prune.bound == ref.prune.bound
            assert np.array_equal(prune.keep_vertices, ref.prune.keep_vertices)
            assert np.array_equal(prune.keep_edges, ref.prune.keep_edges)
            assert prune.stats == ref.prune.stats  # SSSP counters included
            assert comp.strategy == ref.compaction.strategy
            if _ALPHAS[alpha] is not None:
                assert comp.strategy == _ALPHAS[alpha]
            assert ksp_stats == ref.ksp_stats

    def test_prune_decision_bitwise_identical(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=2)
        batch = BatchPeeK(medium_er)
        ref = PeeK(medium_er, s, t)
        ref.prepare(5)
        got = batch.prepare(s, t, 5).prune
        assert got.bound == ref.prune_result.bound
        assert np.array_equal(got.keep_vertices, ref.prune_result.keep_vertices)
        assert np.array_equal(got.keep_edges, ref.prune_result.keep_edges)
        assert np.array_equal(got.sp_sum, ref.prune_result.sp_sum)

    def test_cached_halves_do_not_change_answers(self, medium_er):
        """Both warm paths are bitwise stable: a repeat ``(s, t, k)``
        reuses the memoised decision, and the same endpoints with another
        ``k`` reuse both cached SSSP halves."""
        batch = BatchPeeK(medium_er)
        s, t = random_reachable_pair(medium_er, seed=1)
        cold = batch.query(s, t, 5)
        memo = batch.query(s, t, 5)
        info = batch.cache_info
        assert info["prune_reused"] == 1 and info["prune_cold"] == 1
        assert info["hits"] == 0 and info["misses"] == 2  # no SSSP lookup
        assert memo.distances == cold.distances
        assert [p.vertices for p in memo.paths] == [
            p.vertices for p in cold.paths
        ]
        warm = batch.query(s, t, 4)
        info = batch.cache_info
        assert info["hits"] == 2 and info["misses"] == 2
        assert info["prune_cold"] == 2
        ref = PeeK(medium_er, s, t).run(4)
        assert warm.distances == ref.distances
        assert [p.vertices for p in warm.paths] == [p.vertices for p in ref.paths]
        assert warm.prune.bound == ref.prune.bound
        assert np.array_equal(warm.prune.keep_vertices, ref.prune.keep_vertices)

    def test_warm_queries_report_only_their_work(self):
        """A reused decision reports no pruning work; a query on cached
        SSSP halves reports its scan but no SSSP counters."""
        g = suite_graph("LJ", "tiny")
        batch = BatchPeeK(g)
        cold = batch.query(0, 5, 4).prune
        assert cold.stats.edges_relaxed > 0 and cold.stats.inspected_paths > 0
        memo = batch.query(0, 5, 4).prune
        assert memo.stats.edges_relaxed == 0
        assert memo.stats.total_work == memo.stats.inspected_paths == 0
        assert memo.bound == cold.bound  # the same decision, reused
        assert np.array_equal(memo.keep_vertices, cold.keep_vertices)
        warm = batch.query(0, 5, 3).prune.stats
        assert batch.cache_info["hits"] == 2
        assert warm.edges_relaxed == warm.vertices_settled == 0
        assert warm.sssp_phase_work == []
        assert warm.inspected_paths > 0  # the spSum scan did run


class TestEdgeMaskBuiltOnRead:
    """No solve or serve path builds the prune's m-wide weight-rule mask:
    compaction applies the rule to the kept slices it gathers."""

    @staticmethod
    def assert_unbuilt_then_weight_rule(prune, graph):
        assert prune._keep_edges is None
        rule = graph.weights <= prune.threshold
        assert prune.keep_edges.tobytes() == rule.tobytes()

    @pytest.mark.parametrize("name", ["LJ", "WL"])
    def test_after_solve_and_prepare(self, name):
        g = suite_graph(name, "tiny")
        batch = BatchPeeK(g)
        for s, t in random_st_pairs(g, 3, seed=8):
            for k in (1, 8, 128):
                self.assert_unbuilt_then_weight_rule(repro.solve(g, s, t, k).prune, g)
                self.assert_unbuilt_then_weight_rule(batch.prepare(s, t, k).prune, g)
                # a memoised decision is answered from a copy of the prune
                self.assert_unbuilt_then_weight_rule(batch.prepare(s, t, k).prune, g)


class TestKernelEquivalence:
    """The default prune kernel (compiled Dijkstra) against Δ-stepping on
    the suite graphs, tied unit weights (LJU/WLU) included: the same bound,
    masks and path list, from each front end of the bitwise guard above."""

    @pytest.mark.parametrize("name", ["LJ", "WL", "LJU", "WLU"])
    def test_default_matches_delta(self, name):
        g = suite_graph(name, "tiny")
        batch = BatchPeeK(g)
        for s, t in random_st_pairs(g, 3, seed=13):
            ref = PeeK(g, s, t, kernel="delta").run(8)
            fronts = (
                PeeK(g, s, t).run(8),
                batch.query(s, t, 8),
                PrunedKSP(g, s, t, inner="OptYen").run(8),
            )
            for got in fronts:
                assert got.prune.bound == ref.prune.bound
                assert np.array_equal(
                    got.prune.keep_vertices, ref.prune.keep_vertices
                )
                assert np.array_equal(got.prune.keep_edges, ref.prune.keep_edges)
                assert got.distances == ref.distances
                assert [p.vertices for p in got.paths] == [
                    p.vertices for p in ref.paths
                ]


class TestCaching:
    def test_shared_target_hits_reverse_cache(self, medium_er):
        batch = BatchPeeK(medium_er)
        t = random_reachable_pair(medium_er, seed=1)[1]
        sources = []
        res = dijkstra(medium_er.reverse(), t)
        reach = np.flatnonzero(np.isfinite(res.dist))
        reach = reach[reach != t]
        for s in reach[:4].tolist():
            sources.append(s)
            batch.query(s, t, 3)
        info = batch.cache_info
        # 4 queries: 4 forward misses, 1 reverse miss, 3 reverse hits
        assert info["hits"] >= len(sources) - 1
        assert info["reverse_cached"] == 1

    def test_shared_source_hits_forward_cache(self, medium_er):
        batch = BatchPeeK(medium_er)
        s = 0
        res = dijkstra(medium_er, s)
        reach = np.flatnonzero(np.isfinite(res.dist))
        reach = reach[reach != s]
        for t in reach[:4].tolist():
            batch.query(s, int(t), 3)
        assert batch.cache_info["forward_cached"] == 1
        assert batch.cache_info["hits"] >= 3

    def test_lru_eviction(self, medium_er, monkeypatch):
        monkeypatch.setattr(batch_module, "SSSP_CACHE_SIZE", 2)
        batch = BatchPeeK(medium_er)
        res = dijkstra(medium_er, 0)
        reach = np.flatnonzero(np.isfinite(res.dist))[:6]
        for t in reach.tolist():
            if t != 0:
                batch.query(0, int(t), 2)
        assert batch.cache_info["reverse_cached"] <= 2

    def test_clear_cache(self, medium_er):
        batch = BatchPeeK(medium_er)
        s, t = random_reachable_pair(medium_er, seed=2)
        batch.query(s, t, 2)
        batch.clear_cache()
        assert batch.cache_info["forward_cached"] == 0
        assert batch.cache_info["reverse_cached"] == 0


class TestCombinedLRU:
    """``SSSP_CACHE_SIZE`` bounds forward AND reverse results *combined* (each
    is O(n) memory, so the combined count is the documented memory bound),
    with one LRU order across the two directions."""

    def test_cache_size_bounds_both_directions_together(self, medium_er, monkeypatch):
        monkeypatch.setattr(batch_module, "SSSP_CACHE_SIZE", 3)
        batch = BatchPeeK(medium_er)
        for root in range(4):
            batch.forward_sssp(root)
            batch.reverse_sssp(root)
        info = batch.cache_info
        assert info["forward_cached"] + info["reverse_cached"] == 3

    def test_eviction_order_is_lru_across_directions(self, medium_er, monkeypatch):
        monkeypatch.setattr(batch_module, "SSSP_CACHE_SIZE", 2)
        batch = BatchPeeK(medium_er)
        batch.forward_sssp(0)  # cache: [fwd 0]
        batch.reverse_sssp(1)  # cache: [fwd 0, rev 1]
        batch.forward_sssp(0)  # touch fwd 0 → rev 1 is now LRU
        batch.reverse_sssp(2)  # evicts rev 1, NOT the older-inserted fwd 0
        assert batch.misses == 3
        batch.forward_sssp(0)  # still cached
        assert batch.cache_info["hits"] == 2
        batch.reverse_sssp(1)  # was evicted: a fresh miss
        assert batch.misses == 4

    def test_same_root_is_distinct_per_direction(self, medium_er):
        batch = BatchPeeK(medium_er)
        batch.forward_sssp(5)
        batch.reverse_sssp(5)  # same root, different direction: a miss
        info = batch.cache_info
        assert info["hits"] == 0 and info["misses"] == 2
        assert info["forward_cached"] == 1 and info["reverse_cached"] == 1
        # SSSP lookups alone never touch the decision memo or rebinds
        assert info["prune_reused"] == info["prune_cold"] == 0
        assert info["invalidated"] == info["retained"] == 0
        assert info["prepared_cached"] == 0

    def test_counters_under_interleaved_queries(self, medium_er, monkeypatch):
        monkeypatch.setattr(batch_module, "SSSP_CACHE_SIZE", 4)
        batch = BatchPeeK(medium_er)
        pairs = [random_reachable_pair(medium_er, seed=sd) for sd in (1, 2)]
        (s1, t1), (s2, t2) = pairs
        batch.query(s1, t1, 3)  # 2 misses (fwd s1, rev t1)
        batch.query(s2, t2, 3)  # 2 misses
        batch.query(s1, t1, 3)  # memoised decision: no SSSP lookup
        batch.query(s2, t2, 3)  # memoised decision
        info = batch.cache_info
        assert info["hits"] == 0 and info["misses"] == 4
        assert info["prune_reused"] == 2 and info["prune_cold"] == 2
        batch.query(s1, t1, 2)  # another k: 2 SSSP hits
        batch.query(s2, t2, 2)  # 2 hits
        info = batch.cache_info
        assert info["hits"] == 4
        assert info["misses"] == 4
        assert info["prune_reused"] == 2 and info["prune_cold"] == 4
        assert info["prepared_cached"] == 4
        assert info["forward_cached"] + info["reverse_cached"] == 4

    def test_interleaved_eviction_keeps_answers_exact(self, medium_er, monkeypatch):
        """A thrashing cache (size 1) still returns bitwise-exact results."""
        monkeypatch.setattr(batch_module, "SSSP_CACHE_SIZE", 1)
        batch = BatchPeeK(medium_er)
        pairs = [random_reachable_pair(medium_er, seed=sd) for sd in (1, 2, 3)]
        for s, t in pairs * 2:
            got = batch.query(s, t, 3)
            ref = peek_ksp(medium_er, s, t, 3)
            assert got.distances == ref.distances
        assert batch.cache_info["forward_cached"] + (
            batch.cache_info["reverse_cached"]
        ) == 1

"""Tests for pruning-as-preprocessing over every baseline (novelty iii)."""

import time

import numpy as np
import pytest

from repro.core.integrate import PrunedKSP, pruned_ksp
from repro.errors import KSPError, KSPTimeout
from repro.graph.generators import erdos_renyi
from repro.ksp import ALGORITHMS, make_algorithm
from tests.conftest import random_reachable_pair

INNERS = sorted(set(ALGORITHMS) - {"PeeK"})


class TestCorrectness:
    @pytest.mark.parametrize("inner", INNERS)
    def test_same_results_as_unpruned(self, medium_er, inner):
        s, t = random_reachable_pair(medium_er, seed=51)
        ref = make_algorithm(inner, medium_er, s, t).run(6).distances
        got = pruned_ksp(medium_er, s, t, 6, inner=inner).distances
        assert np.allclose(got, ref), inner

    def test_paths_in_original_ids(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=51)
        res = pruned_ksp(medium_er, s, t, 5, inner="Yen")
        for p in res.paths:
            assert p.source == s and p.target == t
            for a, b in p.edges():
                assert medium_er.has_edge(a, b)

    def test_fan_graph_all_inners(self, fan_graph):
        for inner in INNERS:
            res = pruned_ksp(fan_graph, 0, 4, 3, inner=inner)
            assert res.distances == pytest.approx([2.0, 4.0, 6.0])


class TestGuards:
    def test_peek_inner_rejected(self, fan_graph):
        with pytest.raises(KSPError):
            PrunedKSP(fan_graph, 0, 4, inner="PeeK")

    def test_unknown_inner_rejected(self, fan_graph):
        with pytest.raises(KeyError):
            PrunedKSP(fan_graph, 0, 4, inner="AStar")

    def test_bad_k(self, fan_graph):
        with pytest.raises(ValueError):
            PrunedKSP(fan_graph, 0, 4, inner="Yen").run(0)


class TestBoost:
    def test_pruning_reduces_baseline_work(self):
        """The novelty-iii claim in work units: pruned Yen does less KSP
        work than plain Yen on a graph with a prunable majority."""
        g = erdos_renyi(400, 5.0, seed=61)
        s, t = random_reachable_pair(g, seed=6)
        plain = make_algorithm("Yen", g, s, t)
        plain.run(6)
        wrapper = PrunedKSP(g, s, t, inner="Yen")
        wrapper.run(6)
        assert wrapper.stats.total_work < plain.stats.total_work
        assert wrapper.prune_result is not None
        assert wrapper.compaction_result is not None


class TestDeadline:
    def test_expired_deadline_stops_before_compaction(self, medium_er):
        """The deadline covers the prune and compaction stages too, not only
        the inner solver: an expired one raises before anything is built."""
        s, t = random_reachable_pair(medium_er, seed=51)
        solver = PrunedKSP(
            medium_er, s, t, inner="Yen", deadline=time.perf_counter() - 1.0
        )
        with pytest.raises(KSPTimeout):
            solver.run(4)
        assert solver.compaction_result is None

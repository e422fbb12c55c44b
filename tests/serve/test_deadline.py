"""Deadline observance: expired budgets fail fast, tiny budgets stay bounded.

The fast tests pin the contract at every stage entry: an already-expired
deadline raises :class:`~repro.errors.KSPTimeout` before meaningful work.
The slow-marked tests (``REPRO_RUN_SLOW=1``) put a real tiny budget on a
medium-scale query and bound the *overshoot* — the gap between the budget
and the observed wall time — for a served query and for a bare prune on
both SSSP kernels.
"""

import os
import time

import numpy as np
import pytest

from repro.cancel import deadline_in
from repro.core.compaction import adaptive_compact
from repro.core.pruning import k_upper_bound_prune
from repro.errors import KSPTimeout
from repro.serve import FAILED, PARTIAL, QueryServer
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra

from ..conftest import random_reachable_pair

_opt_in = pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW"),
    reason="set REPRO_RUN_SLOW=1 to run deadline-overshoot tests",
)


def slow(fn):
    return pytest.mark.slow(_opt_in(fn))


EXPIRED = time.perf_counter() - 1.0  # an absolute deadline already in the past


class TestExpiredDeadlineFailsFast:
    def test_dijkstra(self, medium_er):
        with pytest.raises(KSPTimeout):
            dijkstra(medium_er, 0, deadline=EXPIRED)

    def test_delta_stepping(self, medium_er):
        with pytest.raises(KSPTimeout):
            delta_stepping(medium_er, 0, deadline=EXPIRED)

    @pytest.mark.parametrize("kernel", ["delta", "dijkstra"])
    def test_prune(self, medium_er, kernel):
        s, t = random_reachable_pair(medium_er, seed=1)
        with pytest.raises(KSPTimeout):
            k_upper_bound_prune(medium_er, s, t, 4, kernel=kernel, deadline=EXPIRED)

    def test_compact(self, medium_er):
        keep = np.ones(medium_er.num_vertices, dtype=bool)
        with pytest.raises(KSPTimeout):
            adaptive_compact(medium_er, keep, deadline=EXPIRED)

    def test_none_deadline_means_unbounded(self, medium_er):
        res = dijkstra(medium_er, 0, deadline=None)
        assert np.isfinite(res.dist[0])

    def test_server_expired_budget_is_failed_not_hang(self, medium_er):
        server = QueryServer(medium_er)
        s, t = random_reachable_pair(medium_er, seed=2)
        res = server.serve(s, t, 4, timeout=0.0)
        assert res.outcome in (FAILED, PARTIAL)
        assert "deadline" in res.error


# A tiny budget on a medium-scale graph: the checkpoints fire mid-pipeline,
# so the observed wall time may overshoot the budget only by the longest
# stretch between checkpoints, bounded here at well under a second.
BUDGET = 0.02
OVERSHOOT_BOUND = 1.0


def _medium_graph():
    from repro.graph.generators import erdos_renyi

    return erdos_renyi(30_000, 8.0, seed=4)


@slow
def test_tiny_deadline_overshoot_bounded():
    g = _medium_graph()
    server = QueryServer(g)
    s, t = random_reachable_pair(g, seed=3)
    t0 = time.perf_counter()
    res = server.serve(s, t, 32, timeout=BUDGET)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET + OVERSHOOT_BOUND
    assert res.outcome in (FAILED, PARTIAL)  # the budget really did bind


@slow
@pytest.mark.parametrize("kernel", ["delta", "dijkstra"])
def test_tiny_deadline_prune_overshoot_bounded(kernel):
    g = _medium_graph()
    s, t = random_reachable_pair(g, seed=3)
    t0 = time.perf_counter()
    with pytest.raises(KSPTimeout):
        k_upper_bound_prune(g, s, t, 32, kernel=kernel, deadline=deadline_in(BUDGET))
    assert time.perf_counter() - t0 < BUDGET + OVERSHOOT_BOUND

"""The request-object API: Query, shared validation, the retry schedule.

The redesign contract: ``serve(Query(...))`` and the legacy positional
form are the *same* code path (the legacy form builds a Query
internally), and ``repro.solve`` / ``QueryServer.serve`` validate
through one shared function — same error types, same messages, same
ordering, at both entry points.
"""

import pytest

import repro
from repro.errors import KSPError, VertexError
from repro.serve import COMPLETE, Query, QueryServer, validate_query

from ..conftest import random_reachable_pair


class TestQueryDataclass:
    def test_frozen_and_defaulted(self):
        q = Query(1, 2, 3)
        assert (q.timeout, q.request_id, q.issued_at) == (None, "", 0.0)
        with pytest.raises(AttributeError):
            q.k = 9

    def test_with_timeout(self):
        q = Query(1, 2, 3, timeout=0.5, request_id="r1")
        q2 = q.with_timeout(0.1)
        assert q2.timeout == 0.1
        assert (q2.source, q2.target, q2.k, q2.request_id) == (1, 2, 3, "r1")
        assert q.timeout == 0.5  # original untouched


class TestServeForms:
    def test_query_form_matches_legacy_form(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=5)
        legacy = QueryServer(medium_er).serve(s, t, 4, timeout=5.0)
        modern = QueryServer(medium_er).serve(Query(s, t, 4, timeout=5.0))
        assert legacy.outcome == modern.outcome == COMPLETE
        assert legacy.distances == modern.distances
        assert [p.vertices for p in legacy.paths] == [
            p.vertices for p in modern.paths
        ]

    def test_legacy_form_constructs_the_query(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=6)
        res = QueryServer(medium_er).serve(s, t, 3, timeout=2.0)
        assert res.query == Query(s, t, 3, timeout=2.0)

    def test_result_carries_query_and_timing(self, medium_er):
        s, t = random_reachable_pair(medium_er, seed=7)
        q = Query(s, t, 2, request_id="abc")
        res = QueryServer(medium_er).serve(q, queue_time=0.25)
        assert res.query is q
        assert res.queue_time == 0.25
        assert res.service_time == res.elapsed

    def test_mixed_forms_rejected(self, medium_er):
        server = QueryServer(medium_er)
        with pytest.raises(TypeError, match="not both"):
            server.serve(Query(0, 1, 2), 5)
        with pytest.raises(TypeError, match="not both"):
            server.serve(Query(0, 1, 2), timeout=1.0)
        with pytest.raises(TypeError, match="positionally"):
            server.serve(0, 1)


class TestSharedValidation:
    """solve() and serve() reject bad queries identically."""

    cases = (
        # (query fields, exception type)
        ((0, 999_999, 1), VertexError),
        ((-1, 1, 1), VertexError),
        ((3, 3, 1), KSPError),
        ((0, 1, 0), ValueError),
    )

    @pytest.mark.parametrize("fields,exc", cases)
    def test_same_error_both_entry_points(self, medium_er, fields, exc):
        s, t, k = fields
        with pytest.raises(exc) as via_solve:
            repro.solve(medium_er, s, t, k=k)
        with pytest.raises(exc) as via_serve:
            QueryServer(medium_er).serve(Query(s, t, k))
        assert str(via_solve.value) == str(via_serve.value)

    def test_ordering_range_before_self_loop(self, medium_er):
        # out-of-range AND source==target: range wins, at both doors
        n = medium_er.num_vertices
        with pytest.raises(VertexError):
            validate_query(medium_er, Query(n, n, 1))

    def test_server_counters_untouched_by_rejection(self, medium_er):
        server = QueryServer(medium_er)
        with pytest.raises(ValueError):
            server.serve(Query(0, 1, 0))
        assert all(v == 0 for v in server.counters.values())
        assert server.in_flight == 0


class TestRetryJitter:
    def test_no_rng_means_exact_schedule(self, medium_er):
        """Retry sleeps draw from no RNG: two servers under the same
        transient faults sleep exactly the constant schedule."""
        from repro.cancel import clock_scope
        from repro.serve import FaultPlan, FaultRule
        from repro.serve.server import BACKOFF_BASE, BACKOFF_MULTIPLIER

        class FrozenClock:
            def __init__(self) -> None:
                self.sleeps: list[float] = []

            def __call__(self) -> float:
                return 0.0

            def sleep(self, seconds: float) -> None:
                self.sleeps.append(seconds)

        s, t = random_reachable_pair(medium_er, seed=11)
        runs = []
        for _ in range(2):
            clock = FrozenClock()
            plan = FaultPlan([FaultRule("serve.attempt", kind="transient", times=2)])
            with clock_scope(clock), plan.installed():
                QueryServer(medium_er).serve(Query(s, t, 2))
            runs.append(clock.sleeps)
        assert runs[0] == runs[1] == [BACKOFF_BASE, BACKOFF_BASE * BACKOFF_MULTIPLIER]


class TestBudgetFractionValidation:
    def test_rejects_out_of_range(self, medium_er):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="tier1_budget_fraction"):
                QueryServer(medium_er, tier1_budget_fraction=bad)

    def test_accepts_full_budget(self, medium_er):
        QueryServer(medium_er, tier1_budget_fraction=1.0)

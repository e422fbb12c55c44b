"""QueryServer: outcomes, the degradation chain, retry, admission control.

The acceptance bar for the serving layer: a fault injected at *any*
pipeline stage yields a degraded or partial result whose paths are still
exact — never a hang, never a silently wrong answer.
"""

import threading
import time

import pytest

import repro
from repro.cancel import clock_scope
from repro.errors import KSPError, ServerOverloadError, VertexError
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.obs import Tracer, use_tracer
from repro.serve import (
    COMPLETE,
    DEGRADED,
    FAILED,
    PARTIAL,
    FaultInjector,
    FaultRule,
    InjectedFault,
    QueryServer,
    RetryPolicy,
    ServeResult,
)

from ..conftest import random_reachable_pair


@pytest.fixture
def server(medium_er) -> QueryServer:
    return QueryServer(medium_er, sanitize=True)


def reference_distances(graph, s, t, k):
    return repro.solve(graph, s, t, k=k).distances


class TestCleanServing:
    def test_complete_matches_solve(self, server, medium_er):
        s, t = random_reachable_pair(medium_er, seed=5)
        res = server.serve(s, t, 6)
        assert res.outcome == COMPLETE
        assert res.tier == "peek"
        assert res.attempts == 1
        assert res.error is None
        assert res.ok
        assert res.distances == reference_distances(medium_er, s, t, 6)
        assert server.counters[COMPLETE] == 1

    def test_fewer_paths_than_k_is_still_complete(self, diamond_graph):
        server = QueryServer(diamond_graph, sanitize=True)
        res = server.serve(0, 3, 10)
        assert res.outcome == COMPLETE
        assert len(res.paths) == 3  # the graph only has 3 simple paths

    def test_result_contract_fields(self, server, medium_er):
        s, t = random_reachable_pair(medium_er, seed=6)
        res = server.serve(s, t, 3)
        assert isinstance(res, ServeResult)
        assert res.k_requested == 3
        assert res.elapsed >= 0
        assert res.stats.sssp_calls > 0  # tier-1 stats travelled with the result

    @pytest.mark.parametrize("bad", [(-1, 5), (5, 10**9)])
    def test_out_of_range_raises(self, server, bad):
        with pytest.raises(VertexError):
            server.serve(*bad, 3)

    def test_source_equals_target_raises(self, server):
        with pytest.raises(KSPError):
            server.serve(7, 7, 3)

    def test_k_below_one_raises(self, server):
        with pytest.raises(ValueError):
            server.serve(0, 5, 0)

    def test_no_prune_kernel_option(self, diamond_graph):
        # every server prunes on the compiled Dijkstra
        with pytest.raises(TypeError, match="kernel"):
            QueryServer(diamond_graph, kernel="delta")


class TestDegradationChain:
    """A timeout in each stage must degrade, never hang or corrupt."""

    STAGES = [
        "prune.scan",
        "prune.masks",
        "compact",
        "compact.build",
        "sssp.dijkstra",
    ]

    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_timeout_degrades_exactly(self, medium_er, stage):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=7)
        expect = reference_distances(medium_er, s, t, 5)
        inj = FaultInjector([FaultRule(stage, kind="timeout")])
        with inj.installed():
            res = server.serve(s, t, 5)
        assert inj.fired, f"no checkpoint visited for stage {stage!r}"
        assert res.outcome == DEGRADED
        assert res.tier == "optyen"
        assert res.error is not None and "injected timeout" in res.error
        # fallback results are exact, not approximate
        assert res.distances == expect
        assert server.counters[DEGRADED] == 1

    def test_ksp_timeout_yields_exact_partial_prefix(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=8)
        expect = reference_distances(medium_er, s, t, 8)
        # let tier 1's deviation loop yield a couple of paths, then cut it;
        # the same rule then also cuts the tier-2 fallback mid-run.
        inj = FaultInjector([FaultRule("OptYen", at_hit=3, times=1000)])
        with inj.installed():
            res = server.serve(s, t, 8)
        assert res.outcome == PARTIAL
        assert 0 < len(res.paths) < 8
        assert res.distances == expect[: len(res.paths)]

    def test_unreachable_fault_in_prune_degrades(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=9)
        inj = FaultInjector([FaultRule("prune", kind="unreachable")])
        with inj.installed():
            res = server.serve(s, t, 4)
        assert res.outcome == DEGRADED
        assert res.distances == reference_distances(medium_er, s, t, 4)

    def test_genuinely_unreachable_fails(self, fan_graph):
        server = QueryServer(fan_graph, sanitize=True)
        res = server.serve(4, 0, 3)  # fan edges all point toward t=4
        assert res.outcome == FAILED
        assert not res.ok
        assert res.paths == []
        assert "Unreachable" in res.error

    def test_timeout_in_both_tiers_fails(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=10)
        # every prune/sssp/compact/KSP checkpoint raises: no tier survives
        inj = FaultInjector(
            [FaultRule(st, times=10**6) for st in ("prune", "sssp", "OptYen")]
        )
        with inj.installed():
            res = server.serve(s, t, 4)
        assert res.outcome == FAILED
        assert res.paths == []


class RecordingClock:
    """The wall clock, with every sleep recorded instead of slept."""

    def __init__(self) -> None:
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_multiplier=3.0)
        assert [p.backoff(i) for i in (1, 2, 3)] == pytest.approx([0.1, 0.3, 0.9])

    def test_transient_fault_is_retried(self, medium_er):
        clock = RecordingClock()
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=11)
        inj = FaultInjector([FaultRule("serve.attempt", kind="transient")])
        with clock_scope(clock), inj.installed():
            res = server.serve(s, t, 4)
        assert res.outcome == COMPLETE
        assert res.attempts == 2
        assert clock.sleeps == [server.retry.backoff(1)]
        assert server.counters["retries"] == 1
        assert res.distances == reference_distances(medium_er, s, t, 4)

    def test_transient_faults_exhaust_to_failed(self, medium_er):
        clock = RecordingClock()
        server = QueryServer(
            medium_er, sanitize=True, retry=RetryPolicy(max_attempts=3)
        )
        s, t = random_reachable_pair(medium_er, seed=11)
        inj = FaultInjector(
            [FaultRule("serve.attempt", kind="transient", times=10**6)]
        )
        with clock_scope(clock), inj.installed():
            res = server.serve(s, t, 4)
        assert res.outcome == FAILED
        assert res.attempts == 3
        assert len(clock.sleeps) == 2
        assert "injected fault" in res.error

    def test_backoff_is_billed_to_the_sim_clock(self, medium_er, monkeypatch):
        """Under virtual time a retry's backoff advances the SimClock and
        never sleeps on the wall clock."""
        wall_sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", wall_sleeps.append)
        s, t = random_reachable_pair(medium_er, seed=11)
        model = CostModel()

        def service_time(hook) -> tuple[float, int]:
            server = QueryServer(medium_er, sanitize=True)
            with virtual_time(SimClock(), model, hook):
                res = server.serve(s, t, 4)
            assert res.outcome == COMPLETE
            return res.service_time, res.attempts

        clean, _ = service_time(None)
        inj = FaultInjector([FaultRule("serve.attempt", kind="transient")])
        retried, attempts = service_time(inj)
        assert attempts == 2
        assert wall_sleeps == []
        backoff = RetryPolicy().backoff(1)
        assert retried == pytest.approx(
            clean + model.cost("serve.attempt") + backoff
        )

    def test_fatal_injected_fault_propagates(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=11)
        inj = FaultInjector([FaultRule("serve.attempt", kind="fatal")])
        with inj.installed(), pytest.raises(InjectedFault):
            server.serve(s, t, 4)
        # the slot was released even though serve raised
        assert server.in_flight == 0


class TestAdmissionControl:
    def test_max_in_flight_validated(self, diamond_graph):
        with pytest.raises(ValueError):
            QueryServer(diamond_graph, max_in_flight=0)

    def test_overload_sheds(self, diamond_graph):
        server = QueryServer(diamond_graph, sanitize=True, max_in_flight=2)
        entered = threading.Barrier(3)
        release = threading.Event()
        results = []

        # occupy both slots with queries parked right after admission
        original_admit = server._admit

        def admit_and_park():
            original_admit()
            entered.wait()
            release.wait()

        server._admit = admit_and_park
        threads = [
            threading.Thread(target=lambda: results.append(server.serve(0, 3, 2)))
            for _ in range(2)
        ]
        for th in threads:
            th.start()
        entered.wait()  # both workers admitted and parked
        assert server.in_flight == 2
        with pytest.raises(ServerOverloadError):
            server.serve(0, 3, 2)
        assert server.counters["shed"] == 1
        release.set()
        for th in threads:
            th.join()
        assert server.in_flight == 0
        assert all(r.outcome == COMPLETE for r in results)


class TestObservability:
    def test_outcome_recorded_on_span(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        s, t = random_reachable_pair(medium_er, seed=12)
        tracer = Tracer()
        inj = FaultInjector([FaultRule("prune.scan", kind="timeout")])
        with use_tracer(tracer), inj.installed():
            server.serve(s, t, 4)
        (span,) = tracer.find("serve.query")
        assert span.attrs["outcome"] == DEGRADED
        assert span.attrs["tier"] == "optyen"
        assert span.attrs["attempts"] == 1
        assert tracer.total("serve.outcome.degraded") == 1
        assert tracer.total("serve.degraded_attempts") == 1

    def test_counters_accumulate_across_queries(self, medium_er):
        server = QueryServer(medium_er, sanitize=True)
        for seed in (5, 6):
            server.serve(*random_reachable_pair(medium_er, seed=seed), 3)
        assert server.counters[COMPLETE] == 2
        assert server.counters[FAILED] == 0


class TestCLI:
    def test_smoke_with_injection(self, capsys):
        from repro.serve.cli import main

        rc = main(
            [
                "--graph", "GT", "--scale", "tiny", "--queries", "3",
                "--k", "4", "--seed", "3", "--inject", "prune.scan:timeout",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "outcome=degraded" in out
        assert "outcomes:" in out

    def test_bad_inject_spec_rejected(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit):
            main(["--inject", "nonsense"])

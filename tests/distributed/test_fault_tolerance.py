"""Fault-tolerant distributed runs: injection, recovery, and accounting.

The headline property (the reason the whole layer exists): a run that
loses a rank and recovers must be **bitwise-identical** to the
failure-free run — same distances, same parents, same stats — and its
useful compute/comm charges must *equal* the failure-free run's, with
everything the failure cost broken out into the checkpoint / recovery /
wasted buckets.  That is asserted here across a grid of failure points ×
recovery policies, for both the distributed SSSP and full distributed
PeeK.
"""

import time

import numpy as np
import pytest

from repro.analysis.race import DistDeltaFootprints, RaceDetector
from repro.distributed import (
    CheckpointStore,
    DistSupervisor,
    FaultPlan,
    RecoveryConfig,
    RowPartition,
    SimComm,
    distributed_delta_stepping,
    distributed_peek,
)
from repro.errors import (
    KSPTimeout,
    RankFailure,
    RecoveryExhaustedError,
    SanitizerError,
)
from repro.graph.generators import erdos_renyi, preferential_attachment
from repro.serve.faults import FaultRule
from tests.conftest import random_reachable_pair

RANKS = 4


@pytest.fixture(scope="module")
def er_case():
    g = erdos_renyi(150, 4.0, seed=5)
    return g, RowPartition.build(g, RANKS), 7


@pytest.fixture(scope="module")
def er_reference(er_case):
    _, part, src = er_case
    comm = SimComm(RANKS)
    res = distributed_delta_stepping(part, src, comm)
    return res, comm.report


@pytest.fixture(scope="module")
def pa_case():
    g = preferential_attachment(600, 6, seed=12)
    s, t = random_reachable_pair(g, seed=5)
    return g, s, t


def kill_plan(at_hit, rank=1, stage="dist.sssp", times=1):
    return FaultPlan(
        [FaultRule(stage, kind="rankfail", at_hit=at_hit, rank=rank, times=times)]
    )


class TestFaultPlan:
    def test_stage_rules_never_kill_ranks(self):
        """A stage fault fires at checkpoints only: at a collective it
        neither counts a hit nor names a victim."""
        plan = FaultPlan(
            [
                FaultRule("dist.sssp", kind="timeout"),
                FaultRule("dist.sssp", kind="rankfail", rank=1),
            ]
        )
        assert plan.poll("dist.sssp.route", RANKS, 0) == [1]
        assert plan.hits == [0, 1]
        with pytest.raises(KSPTimeout):
            plan("dist.sssp")
        assert plan.hits == [1, 1]

    def test_seed_determinism(self):
        mk = lambda: FaultPlan(
            [FaultRule("s", kind="rankfail", at_hit=None, rank=None)], seed=9
        )
        a, b = mk(), mk()
        assert a.at_hits == b.at_hits
        assert a.poll("s", 8, 0) == b.poll("s", 8, 0)

    def test_from_specs(self):
        plan = FaultPlan.from_specs(["dist.sssp.route:rankfail:3@2"])
        assert plan.at_hits == [3]
        assert plan.rules[0].rank == 2

    def test_rule_for_absent_rank_never_fires(self, er_case):
        _, part, src = er_case
        comm = SimComm(RANKS, fault_plan=kill_plan(1, rank=99))
        distributed_delta_stepping(part, src, comm)  # completes unharmed
        assert comm.report.failures == 0

    def test_unsupervised_failure_propagates(self, er_case):
        _, part, src = er_case
        comm = SimComm(RANKS, fault_plan=kill_plan(2, rank=0, stage="dist.sssp.route"))
        with pytest.raises(RankFailure) as exc:
            distributed_delta_stepping(part, src, comm)
        assert exc.value.rank == 0
        assert exc.value.stage == "dist.sssp.route"
        assert exc.value.superstep is not None

    def test_dead_rank_keeps_failing_until_revived(self):
        comm = SimComm(2)
        comm.kill(1)
        with pytest.raises(RankFailure):
            comm.barrier()
        with pytest.raises(RankFailure):
            comm.allreduce([1, 2], op=max)
        comm.revive(1)
        assert comm.allreduce([1, 2], op=max) == 2


class TestRecoveryGrid:
    """Bitwise equivalence at every (failure superstep × policy) grid point."""

    @pytest.mark.parametrize("policy", ["restart", "recompute"])
    @pytest.mark.parametrize("at_hit", [1, 3, 10, 25])
    def test_sssp_bitwise_identical(self, er_case, er_reference, policy, at_hit):
        _, part, src = er_case
        ref, ref_report = er_reference
        comm = SimComm(RANKS, fault_plan=kill_plan(at_hit))
        sup = DistSupervisor(comm, policy=policy, checkpoint_interval=2)
        res = distributed_delta_stepping(part, src, comm, supervisor=sup)
        rep = comm.report

        assert np.array_equal(res.dist, ref.dist)
        assert np.array_equal(res.parent, ref.parent)
        assert res.stats.edges_relaxed == ref.stats.edges_relaxed
        assert res.stats.phases == ref.stats.phases
        assert res.stats.phase_work == ref.stats.phase_work

        # the failure was observed, recovered, and billed
        assert rep.failures == 1
        assert rep.wasted_units > 0
        assert rep.recovery_units > 0
        # useful work is *identical* to the failure-free run — everything
        # the failure cost lives in the overhead buckets
        assert rep.compute_units == pytest.approx(ref_report.compute_units)
        assert rep.comm_units == pytest.approx(ref_report.comm_units)
        # and time decomposes exactly into the five buckets
        assert rep.time_units == pytest.approx(
            rep.compute_units
            + rep.comm_units
            + rep.checkpoint_units
            + rep.recovery_units
            + rep.wasted_units
        )

    @pytest.mark.parametrize("policy", ["restart", "recompute"])
    @pytest.mark.parametrize(
        "stage,at_hit",
        [
            ("dist.sssp.route", 2),  # mid-SSSP
            ("dist.sssp", 40),  # late SSSP (the reverse half)
            ("dist.bound", 1),  # bound-identification stage
            ("dist.compact", 1),  # compaction stage
        ],
    )
    def test_peek_bitwise_identical(self, pa_case, policy, stage, at_hit):
        g, s, t = pa_case
        base = distributed_peek(g, s, t, 6, RANKS)
        rep = distributed_peek(
            g,
            s,
            t,
            6,
            RANKS,
            fault_plan=kill_plan(at_hit, stage=stage),
            recovery=RecoveryConfig(policy=policy, checkpoint_interval=2),
        )
        assert rep.result.distances == base.result.distances
        assert [p.vertices for p in rep.result.paths] == [
            p.vertices for p in base.result.paths
        ]
        assert rep.failures == 1
        assert rep.recovery_units > 0
        assert rep.comm.compute_units == pytest.approx(
            base.comm.compute_units
        )
        assert rep.comm.comm_units == pytest.approx(base.comm.comm_units)
        assert rep.time_units > base.time_units

    def test_multiple_failures_multiple_recoveries(self, er_case, er_reference):
        _, part, src = er_case
        ref, _ = er_reference
        plan = FaultPlan(
            [
                FaultRule("dist.sssp", kind="rankfail", at_hit=3, rank=1),
                FaultRule("dist.sssp", kind="rankfail", at_hit=30, rank=2),
            ]
        )
        comm = SimComm(RANKS, fault_plan=plan)
        sup = DistSupervisor(comm, max_recoveries=4)
        res = distributed_delta_stepping(part, src, comm, supervisor=sup)
        assert np.array_equal(res.dist, ref.dist)
        assert comm.report.failures == 2

    def test_recompute_charges_no_checkpoints(self, er_case):
        _, part, src = er_case
        comm = SimComm(RANKS, fault_plan=kill_plan(5))
        sup = DistSupervisor(comm, policy="recompute")
        distributed_delta_stepping(part, src, comm, supervisor=sup)
        assert comm.report.checkpoint_units == 0
        assert comm.report.checkpoint_bytes == 0
        assert comm.report.recovery_units > 0

    def test_restart_checkpoint_cost_falls_with_interval(self, er_case):
        _, part, src = er_case
        costs = []
        for interval in (1, 4):
            comm = SimComm(RANKS)
            sup = DistSupervisor(comm, checkpoint_interval=interval)
            distributed_delta_stepping(part, src, comm, supervisor=sup)
            costs.append(comm.report.checkpoint_units)
        assert costs[0] > costs[1] > 0


class TestSupervisorLimits:
    def test_gives_up_after_max_recoveries(self, er_case):
        _, part, src = er_case
        comm = SimComm(RANKS, fault_plan=kill_plan(2, rank=3, times=50))
        sup = DistSupervisor(comm, max_recoveries=2)
        with pytest.raises(RecoveryExhaustedError, match="rank 3"):
            distributed_delta_stepping(part, src, comm, supervisor=sup)

    def test_failure_before_any_checkpoint_reraises(self):
        comm = SimComm(2)
        sup = DistSupervisor(comm)
        failure = RankFailure(1, stage="dist.x")
        with pytest.raises(RankFailure):
            sup.recover(failure)

    def test_corrupted_checkpoint_is_sanitizer_error(self, er_case):
        _, part, src = er_case
        comm = SimComm(RANKS, fault_plan=kill_plan(9))
        store = CheckpointStore()
        sup = DistSupervisor(comm, checkpoint_interval=1, store=store)
        orig = sup.recover

        def corrupting_recover(failure):
            store.corrupt(1, offset=5)
            return orig(failure)

        sup.recover = corrupting_recover
        with pytest.raises(SanitizerError, match="CRC32"):
            distributed_delta_stepping(part, src, comm, supervisor=sup)


class TestDeadline:
    def test_sssp_deadline(self, er_case):
        _, part, src = er_case
        with pytest.raises(KSPTimeout, match="dist.sssp"):
            distributed_delta_stepping(
                part, src, SimComm(RANKS), deadline=time.perf_counter() - 1
            )

    def test_peek_deadline(self, pa_case):
        g, s, t = pa_case
        with pytest.raises(KSPTimeout, match="dist.peek"):
            distributed_peek(
                g, s, t, 6, RANKS, deadline=time.perf_counter() - 1
            )

    def test_injected_timeout_at_distributed_stage(self, pa_case):
        g, s, t = pa_case
        inj = FaultPlan([FaultRule("dist.peek.bound", kind="timeout")])
        with inj.installed():
            with pytest.raises(KSPTimeout):
                distributed_peek(g, s, t, 6, RANKS)
        assert inj.fired == [("dist.peek.bound", "timeout")]

    def test_no_deadline_means_no_overhead_paths(self, er_case):
        # a plain run (no deadline, no supervisor) reports zero FT overhead
        _, part, src = er_case
        comm = SimComm(RANKS)
        distributed_delta_stepping(part, src, comm)
        rep = comm.report
        assert rep.failures == 0
        assert rep.checkpoint_units == rep.recovery_units == rep.wasted_units == 0
        assert rep.time_units == pytest.approx(
            rep.compute_units + rep.comm_units
        )


class TestRaceFootprints:
    def test_owner_routed_decomposition_is_clean(self, er_case):
        _, part, src = er_case
        det = RaceDetector(RANKS, label="dist-delta")
        comm = SimComm(RANKS, race_detector=det)
        distributed_delta_stepping(
            part, src, comm, footprint_recorder=DistDeltaFootprints()
        )
        assert det.findings == []

    def test_unrouted_writes_are_flagged(self, er_case):
        # the classic bug: the requesting rank writes the target's distance
        # directly instead of routing the request to its owner
        _, part, src = er_case
        det = RaceDetector(RANKS, label="dist-delta-bug")
        comm = SimComm(RANKS, race_detector=det)
        distributed_delta_stepping(
            part,
            src,
            comm,
            footprint_recorder=DistDeltaFootprints(owner_routed=False),
        )
        assert det.findings
        assert {f.rule for f in det.findings} <= {"RACE-RW", "RACE-WW"}
        assert all(f.context["resource"].startswith("dist[") for f in det.findings)

    def test_clean_even_under_recovery(self, er_case):
        # a recovered run replays supersteps; the replayed footprints must
        # still be race-free (the detector's clocks survive the rollback)
        _, part, src = er_case
        det = RaceDetector(RANKS, label="dist-delta-recovered")
        comm = SimComm(RANKS, race_detector=det, fault_plan=kill_plan(5))
        sup = DistSupervisor(comm)
        distributed_delta_stepping(
            part, src, comm, supervisor=sup,
            footprint_recorder=DistDeltaFootprints(),
        )
        assert comm.report.failures == 1
        assert det.findings == []

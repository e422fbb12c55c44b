"""The deterministic fault-injection harness itself."""

import pytest

from repro.cancel import checkpoint, fault_scope, install_fault_hook
from repro.errors import KSPTimeout, UnreachableTargetError
from repro.serve.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    parse_fault_spec,
)


class TestFaultRule:
    def test_exact_and_prefix_matching(self):
        r = FaultRule("sssp")
        assert r.matches("sssp")
        assert r.matches("sssp.delta")
        assert r.matches("sssp.dijkstra")
        assert not r.matches("ssspx")
        assert not r.matches("prune.scan")

    @pytest.mark.parametrize(
        "kind,exc",
        [
            ("timeout", KSPTimeout),
            ("unreachable", UnreachableTargetError),
            ("transient", InjectedFault),
            ("fatal", InjectedFault),
        ],
    )
    def test_error_kinds(self, kind, exc):
        err = FaultRule("x", kind=kind).make_error("x")
        assert isinstance(err, exc)

    def test_transient_flag(self):
        assert FaultRule("x", kind="transient").make_error("x").transient
        assert not FaultRule("x", kind="fatal").make_error("x").transient

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("x", kind="wat").make_error("x")

    def test_rankfail_kind(self):
        """``rankfail`` kills a rank at a collective and never fires at a
        checkpoint."""
        plan = FaultPlan([FaultRule("dist.sssp", kind="rankfail", rank=2)])
        plan("dist.sssp.route")  # the checkpoint seam: no raise, no hit
        assert plan.hits == [0]
        assert plan.poll("dist.sssp.route", 4, 7) == [2]
        assert plan.fired == [("dist.sssp.route", 2, 7)]
        with pytest.raises(ValueError, match="collectives"):
            FaultRule("x", kind="rankfail").make_error("x")

    @pytest.mark.parametrize(
        "field, value",
        [("at_hit", 0), ("at_hit", -1), ("times", 0), ("max_hit", 0)],
    )
    def test_rules_that_never_fire_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultRule("x", **{field: value})


class TestParseFaultSpec:
    def test_minimal(self):
        r = parse_fault_spec("prune.scan:timeout")
        assert (r.stage, r.kind, r.at_hit, r.rank) == (
            "prune.scan", "timeout", None, None,
        )

    def test_with_at_hit(self):
        r = parse_fault_spec("sssp:transient:3")
        assert (r.kind, r.at_hit) == ("transient", 3)

    def test_with_rank(self):
        r = parse_fault_spec("dist.sssp.route:rankfail@2")
        assert (r.stage, r.kind, r.at_hit, r.rank) == (
            "dist.sssp.route", "rankfail", None, 2,
        )

    def test_full(self):
        r = parse_fault_spec("dist.sssp:rankfail:5@1")
        assert (r.at_hit, r.rank) == (5, 1)

    def test_replica_target(self):
        """``@R<N>`` is a fleet's spelling of ``@RANK``: replica ``N`` is
        rank ``N`` of the fleet's communicator."""
        r = parse_fault_spec("fabric.heartbeat:rankfail:3@R1")
        assert (r.stage, r.kind, r.at_hit) == ("fabric.heartbeat", "rankfail", 3)
        assert r.rank == 1
        assert r == parse_fault_spec("fabric.heartbeat:rankfail:3@1")

    def test_replica_target_lowercase(self):
        r = parse_fault_spec("fabric.mutate:rankfail@r2")
        assert r.rank == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "stageonly",
            "s:wat",
            "s:timeout:notanint",
            "s:timeout@notanint",
            "s:timeout:1:2",
            "s:rankfail@R",
            "s:rankfail@Rx",
            "s:timeout:0",
            "s:timeout:-2",
            "fabric.heartbeat:rankfail:0@R1",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestFaultInjector:
    """The plan's checkpoint seam: stage faults raised at the Nth visit."""

    def test_fires_at_nth_hit_only(self):
        inj = FaultPlan([FaultRule("stage", at_hit=3)])
        inj("stage")
        inj("stage")
        with pytest.raises(KSPTimeout):
            inj("stage")
        inj("stage")  # burnt out (times=1)
        assert inj.fired == [("stage", "timeout")]
        assert inj.hits == [4]

    def test_times_fires_consecutively(self):
        inj = FaultPlan([FaultRule("s", kind="transient", at_hit=1, times=2)])
        with pytest.raises(InjectedFault):
            inj("s")
        with pytest.raises(InjectedFault):
            inj("s")
        inj("s")
        assert len(inj.fired) == 2

    def test_seed_is_deterministic(self):
        mk = lambda: FaultPlan(
            [FaultRule("s", at_hit=None, max_hit=10)], seed=42
        )
        assert mk().at_hits == mk().at_hits
        assert 1 <= mk().at_hits[0] <= 10

    def test_different_seeds_can_differ(self):
        hits = {
            FaultPlan(
                [FaultRule("s", at_hit=None, max_hit=1000)], seed=seed
            ).at_hits[0]
            for seed in range(20)
        }
        assert len(hits) > 1

    def test_installed_scopes_the_hook(self):
        inj = FaultPlan([FaultRule("boom", at_hit=1)])
        checkpoint(None, "boom")  # not installed: no fire
        with inj.installed():
            with pytest.raises(KSPTimeout):
                checkpoint(None, "boom")
        checkpoint(None, "boom")  # uninstalled again
        assert inj.fired == [("boom", "timeout")]

    def test_fault_scope_restores_previous_hook(self):
        seen = []
        prev = install_fault_hook(seen.append)
        try:
            with fault_scope(lambda stage: None):
                checkpoint(None, "inner")
            checkpoint(None, "outer")
            assert seen == ["outer"]
        finally:
            install_fault_hook(prev)

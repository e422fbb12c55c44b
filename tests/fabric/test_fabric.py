"""The serving fabric end-to-end: kills, recovery, failover, elastic."""

import json
from dataclasses import replace

import pytest

import repro.fabric.fabric as fabric_module
from repro.dyn.stream import IncidentStream
from repro.fabric.elastic import ElasticPolicy
from repro.fabric.fabric import FLEET_SERVER, FabricConfig, ServingFabric, report_row
from repro.fabric.replica import ACTIVE, STANDBY
from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.load.simclock import virtual_time
from repro.serve.faults import FaultPlan

KILL = "fabric.heartbeat:rankfail:3@R1"
MIX = {"kind": "hotspot", "scc": True, "k": {"dist": "small_heavy", "k_max": 4}}
STEADY = {"kind": "poisson", "rate": 400.0}
#: enough load that the seeded kill finds flights in progress
LOADED = {"kind": "poisson", "rate": 2000.0}


@pytest.fixture(scope="module")
def graph():
    return suite_graph("LJ", "tiny")


def build(graph, *, inject=None, seed=0, **over):
    config = FabricConfig(seed=seed, **over)  # FLEET_SERVER: 3 replicas
    plan = FaultPlan.from_specs(inject, seed=seed) if inject else None
    return ServingFabric(
        graph, make_mix(graph, dict(MIX)), config=config, fault_plan=plan
    )


def run(fabric, *, traffic=STEADY, horizon=0.5, max_queries=150, **kwargs):
    return fabric.run(
        arrival_process(dict(traffic)),
        horizon=horizon,
        max_queries=max_queries,
        **kwargs,
    )


class TestKillRecovery:
    def test_kill_drain_recover(self, graph):
        fabric = build(graph, inject=[KILL])
        report = run(fabric)
        assert len(report.kills) == 1
        kill = report.kills[0]
        assert kill.replica == 1
        assert kill.recovered_at is not None and kill.recovered_at > kill.at
        assert kill.ttr == pytest.approx(kill.recovered_at - kill.at)
        assert kill.within_budget
        # the replica rejoined and the fleet ended fully active
        assert report.replica_states == {0: ACTIVE, 1: ACTIVE, 2: ACTIVE}
        assert report.dist["failures"] == 1

    def test_restored_replica_matches_authority(self, graph):
        fabric = build(graph, inject=[KILL])
        run(fabric)
        authority = fabric.authority
        restored = fabric.replicas[1].server
        assert restored.batch.version == authority.version

    def test_no_kill_no_failures(self, graph):
        report = run(build(graph))
        assert report.kills == []
        assert report.dist["failures"] == 0
        assert report.dispositions()["availability"] == 1.0

    def test_recovery_window_queries_are_answered(self, graph):
        fabric = build(graph, inject=[KILL])
        report = run(fabric)
        window = report.recovery_window_dispositions()
        served = {
            k for k, v in window.items() if v and k not in ("shed", "expired")
        }
        assert served <= {"complete", "degraded"}


def test_fleet_prunes_on_the_compiled_dijkstra(graph, monkeypatch):
    """Every replica builds its prune trees with the compiled Dijkstra:
    the fleet's checkpoints, recorded by a fault hook chained under the
    virtual clock, visit ``sssp.dijkstra`` and never ``sssp.delta``."""
    stages = set()

    def recording(clock, model=None, hook=None):
        return virtual_time(clock, model, hook=stages.add)

    monkeypatch.setattr(fabric_module, "virtual_time", recording)
    report = run(build(graph))
    assert report.count("complete") > 0
    assert "sssp.dijkstra" in stages
    assert "sssp.delta" not in stages


class TestStageFaults:
    """One plan for both seams: a fleet takes checkpoint faults too."""

    def one_replica(self, graph, inject=None):
        return build(graph, inject=inject, server=replace(FLEET_SERVER, replicas=1))

    def test_fleet_takes_a_stage_fault(self, graph):
        clean = run(self.one_replica(graph))
        fabric = self.one_replica(graph, inject=["prune.scan:timeout:1"])
        faulted = run(fabric)
        assert clean.count("degraded") == 0
        assert faulted.count("degraded") == 1
        assert fabric.fault_plan.fired == [("prune.scan", "timeout")]
        assert not faulted.kills

    def test_inert_plan_leaves_the_run_unchanged(self, graph):
        clean = run(self.one_replica(graph))
        inert = run(self.one_replica(graph, inject=["nowhere:timeout:1"]))
        assert inert.logs == clean.logs

    def test_fatal_fault_fails_one_query_and_the_run_goes_on(self, graph):
        clean = run(self.one_replica(graph))
        fabric = self.one_replica(graph, inject=["serve.attempt:fatal:1"])
        faulted = run(fabric)
        failed = [log for log in faulted.logs if log.disposition == "failed"]
        assert len(failed) == 1
        assert failed[0].error == "InjectedFault(\"injected fault at stage 'serve.attempt'\")"
        assert fabric.fault_plan.fired == [("serve.attempt", "fatal")]
        assert len(faulted.logs) == len(clean.logs)
        assert faulted.count("complete") == clean.count("complete") - 1

    def test_cli_survives_a_fatal_fault(self, tmp_path):
        from repro.fabric.cli import main

        out = tmp_path / "fatal.json"
        code = main(["--inject", "serve.attempt:fatal:1", "--quiet", "--json", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["dispositions"]["failed"] == 1
        assert row["scenario"] == "mmpp+fatal"

    def test_scenario_label_names_the_fault_kinds(self):
        from repro.fabric.cli import scenario_label

        assert scenario_label("mmpp", []) == "mmpp"
        assert scenario_label("mmpp", [KILL]) == "mmpp+kill"
        assert scenario_label("mmpp", ["prune.scan:timeout:1"]) == "mmpp+timeout"
        assert (
            scenario_label("poisson", [KILL, "prune.scan:timeout:1", "sssp:timeout:2"])
            == "poisson+kill+timeout"
        )

    def test_cli_rejects_a_rule_that_cannot_fire(self, capsys):
        from repro.fabric.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--inject", "fabric.heartbeat:rankfail:0@R1", "--quiet"])
        assert exc.value.code == 2
        assert "at_hit must be >= 1" in capsys.readouterr().err


class TestDeterminism:
    def test_double_run_byte_identical(self, graph):
        rows = [
            json.dumps(report_row("kill", run(build(graph, inject=[KILL]))))
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

    def test_seed_changes_the_run(self, graph):
        a = run(build(graph, seed=0))
        b = run(build(graph, seed=1))
        assert [log.issued_at for log in a.logs] != [
            log.issued_at for log in b.logs
        ]  # different arrival streams


class TestFailoverEquivalence:
    def test_hedged_results_bitwise_match_unfailed_run(self, graph):
        """A query hedged off a killed replica returns exactly the result
        the unfailed fabric would have returned."""
        clean = run(build(graph), traffic=LOADED, keep_results=True)
        failed = run(build(graph, inject=[KILL]), traffic=LOADED, keep_results=True)
        hedged = [log for log in failed.logs if log.hedges > 0]
        assert hedged, "the seeded kill should strand at least one flight"
        for log in hedged:
            assert log.disposition == "complete"
            assert failed.results[log.request_id] == clean.results[log.request_id]

    def test_all_completed_results_match(self, graph):
        clean = run(build(graph), keep_results=True)
        failed = run(build(graph, inject=[KILL]), keep_results=True)
        done = {
            log.request_id for log in clean.logs if log.disposition == "complete"
        } & {
            log.request_id for log in failed.logs if log.disposition == "complete"
        }
        assert done
        for rid in done:
            assert clean.results[rid] == failed.results[rid]


class TestMutationConsistency:
    def test_kill_during_mutations_keeps_survivors_in_step(self, graph):
        """A replica killed while batches stream leaves every surviving
        (and recovered) replica at the authority's graph version."""
        fabric = build(graph, inject=["fabric.mutate:rankfail:2@R1"])
        batches = IncidentStream(seed=0, rate=60.0).batches(fabric.authority, 0.5)
        report = run(fabric, mutations=batches)
        assert report.mutation_batches > 0
        assert len(report.kills) == 1
        version = fabric.authority.version
        assert version > 0
        for rid in sorted(fabric.replicas):
            replica = fabric.replicas[rid]
            if replica.server is not None and replica.state == ACTIVE:
                assert replica.server.batch.version == version, rid

    def test_replay_counts_missed_batches(self, graph):
        fabric = build(graph, inject=["fabric.mutate:rankfail:1@R1"])
        batches = IncidentStream(seed=0, rate=120.0).batches(fabric.authority, 0.5)
        report = run(fabric, mutations=batches)
        kill = report.kills[0]
        assert kill.recovered_at is not None
        assert kill.missed_batches >= 0
        assert report.mutation_batches > kill.missed_batches


class _FakeReplica:
    def __init__(self, state, workers, load):
        self.state = state
        self.workers = workers
        self._load = load

    def load_at(self, t):
        return self._load


class TestElasticPolicy:
    def test_scale_up_picks_lowest_standby(self):
        policy = ElasticPolicy()
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 4),
            1: _FakeReplica(ACTIVE, 4, 4),
            3: _FakeReplica(STANDBY, 0, 0),
            2: _FakeReplica(STANDBY, 0, 0),
        }
        assert policy.decide(replicas, 0.0) == ("scale_up", 2)

    def test_scale_down_respects_floor(self):
        policy = ElasticPolicy(min_replicas=2)
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 0),
            1: _FakeReplica(ACTIVE, 4, 0),
        }
        assert policy.decide(replicas, 0.0) is None  # at the floor
        replicas[2] = _FakeReplica(ACTIVE, 4, 0)
        assert policy.decide(replicas, 0.0) == ("scale_down", 2)

    def test_cooldown_suppresses_flapping(self):
        policy = ElasticPolicy(min_replicas=1)
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 0),
            1: _FakeReplica(ACTIVE, 4, 0),
        }
        assert policy.decide(replicas, 0.0) == ("scale_down", 1)
        assert policy.decide(replicas, 0.1) is None  # cooling down
        assert policy.decide(replicas, 0.2) is None
        assert policy.decide(replicas, 0.3) == ("scale_down", 1)

    def test_fabric_scales_under_burst(self, graph):
        fabric = build(
            graph,
            max_replicas=5,
            elastic=ElasticPolicy(min_replicas=2),
        )
        report = fabric.run(
            arrival_process(
                {
                    "kind": "mmpp",
                    "rate_low": 600.0,
                    "rate_high": 2400.0,
                    "dwell_low": 0.15,
                    "dwell_high": 0.05,
                }
            ),
            horizon=1.0,
            max_queries=600,
        )
        actions = [e.action for e in report.elastic_events]
        assert "scale_up" in actions
        assert "scale_down" in actions


def sweep_peak(logs) -> int:
    """Most served queries in the system at once: the maximum over all
    instants x of #{issued_at <= x < issued_at + latency}."""
    served = [log for log in logs if log.served]
    return max(
        (
            sum(1 for o in served if o.issued_at <= x < o.issued_at + o.latency)
            for x in {log.issued_at for log in served}
        ),
        default=0,
    )


class TestPeakInFlight:
    def test_counted_at_arrival_with_a_queue(self, graph):
        report = build(graph, server=replace(FLEET_SERVER, queue_depth=4)).run(
            arrival_process({"kind": "poisson", "rate": 3000.0}),
            horizon=0.2,
            max_queries=150,
        )
        assert any(log.queue_time > 0 for log in report.logs if log.served)
        assert report.peak_in_flight == sweep_peak(report.logs)

    def test_hedged_query_counts_once(self, graph):
        # a saturated closed loop keeps the system near its peak, so a
        # lost flight still counted after its hedge would show
        report = run_closed(build(graph, inject=[KILL]))
        hedged = [log for log in report.logs if log.hedges]
        assert hedged and all(log.served for log in hedged)
        assert report.peak_in_flight == sweep_peak(report.logs)


def run_closed(fabric, users=12):
    return fabric.run(
        arrival_process({"kind": "closed", "users": users, "think_mean": 0.002}),
        horizon=0.3,
        max_queries=400,
    )


class TestClosedLoop:
    def test_closed_loop_under_kill(self, graph):
        report = run_closed(build(graph, inject=[KILL]), users=12)
        assert len(report.kills) == 1
        assert any(log.hedges for log in report.logs)
        assert report.peak_in_flight <= 12

    def test_deterministic_under_kill(self, graph):
        rows = [
            json.dumps(report_row("closed", run_closed(build(graph, inject=[KILL]))))
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

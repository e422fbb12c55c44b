"""One replica recipe: every serving replica is built from one ServerConfig.

A one-replica fleet, a fleet's t=0 replicas, a scale-up replica and a
recovered replica all come out of :meth:`ServerConfig.build`, so they
carry the same settings; a rebuilt replica answers at the version of
the live graph it was built over.
"""

from dataclasses import replace

import pytest

from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.fabric.cli import MMPP_SPEC
from repro.fabric.elastic import ElasticPolicy
from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.fabric.replica import ACTIVE
from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.load.runner import RunTable, ServerConfig, run_table
from repro.serve.faults import FaultPlan
from repro.serve.server import QueryServer

#: every server setting away from its default
RECIPE = ServerConfig(
    name="recipe",
    timeout=0.3,
    max_in_flight=3,
    queue_depth=2,
    tier1_budget_fraction=0.5,
    replicas=2,
)
MIX = {"kind": "hotspot", "scc": True, "k": {"dist": "small_heavy", "k_max": 4}}


@pytest.fixture(scope="module")
def graph():
    return suite_graph("LJ", "tiny")


def settings(server: QueryServer) -> dict:
    return {
        "tier1_budget_fraction": server.tier1_budget_fraction,
        "sanitize": server._sanitize,
        "default_timeout": server.default_timeout,
        "max_in_flight": server.max_in_flight,
    }


@pytest.fixture(scope="module")
def fleet(graph):
    """A two-replica elastic fleet whose replica 1 is killed and
    recovered while the incident stream mutates the graph; the burst
    scales the fleet up."""
    fabric = ServingFabric(
        graph,
        make_mix(graph, dict(MIX)),
        config=FabricConfig(
            server=RECIPE,
            max_replicas=4,
            elastic=ElasticPolicy(min_replicas=2),
            seed=3,
        ),
        fault_plan=FaultPlan.from_specs(["fabric.heartbeat:rankfail:3@R1"], seed=3),
    )
    initial = {rid: fabric.replicas[rid].server for rid in fabric.replicas}
    report = fabric.run(
        arrival_process(dict(MMPP_SPEC)),
        horizon=1.0,
        max_queries=600,
        mutations=IncidentStream(seed=3, rate=40.0).batches(fabric.authority, 1.0),
    )
    return fabric, initial, report


def test_every_replica_carries_the_recipe(graph, fleet):
    fabric, initial, report = fleet
    want = settings(RECIPE.build(graph))
    assert want["tier1_budget_fraction"] == 0.5

    single = ServingFabric(
        graph, config=FabricConfig(server=replace(RECIPE, replicas=1), seed=3)
    )
    t0 = [initial[rid] for rid in (0, 1)]
    assert [initial[rid] for rid in (2, 3)] == [None, None]  # standby slots

    (kill,) = report.kills
    assert kill.replica == 1 and kill.recovered_at is not None
    recovered = fabric.replicas[1].server
    assert recovered is not t0[1]
    assert "scale_up" in [e.action for e in report.elastic_events]
    scaled = [fabric.replicas[rid].server for rid in (2, 3)]
    scaled = [s for s in scaled if s is not None]
    assert scaled

    for server in [single.replicas[0].server, *t0, recovered, *scaled]:
        assert settings(server) == want
    for rid in fabric.replicas:
        if fabric.replicas[rid].state == ACTIVE:
            assert fabric.replicas[rid].workers == RECIPE.max_in_flight


def test_run_table_fleet_honours_recipe(graph, monkeypatch):
    """A run-table cell of one or two replicas is a fleet whose every
    server is built from the cell's config."""
    config = ServerConfig(
        name="split", timeout=0.5, tier1_budget_fraction=0.5, replicas=2
    )
    built: list[QueryServer] = []
    build = ServerConfig.build

    def recording_build(self, g):
        built.append(build(self, g))
        return built[-1]

    monkeypatch.setattr(ServerConfig, "build", recording_build)
    table = RunTable(
        name="recipe",
        traffic=(("poisson", {"kind": "poisson", "rate": 50.0}),),
        graphs=("LJ",),
        configs=(config, replace(config, name="single", replicas=1)),
        horizon=0.05,
        mix=dict(MIX),
    )
    rows = run_table(table)["rows"]
    assert [row["replicas"] for row in rows] == [2, 1]
    assert all("availability" in row and "heartbeats" in row for row in rows)
    assert len(built) == 3
    for server in built:
        assert server.tier1_budget_fraction == 0.5


@pytest.mark.parametrize(
    "config, match",
    [
        pytest.param(
            replace(RECIPE, queue_depth=-1), "queue_depth", id="negative-queue-depth"
        ),
        pytest.param(
            replace(RECIPE, replicas=0), "at least one replica", id="no-replicas"
        ),
    ],
)
def test_fleet_rejects_a_bad_recipe(graph, config, match):
    with pytest.raises(ValueError, match=match):
        ServingFabric(graph, config=FabricConfig(server=config))


@pytest.mark.parametrize("version", [0, 7])
def test_server_answers_at_the_live_version(graph, version):
    server = QueryServer(LiveGraph(graph, version=version))
    assert server.batch.version == version
    assert server.serve(0, 5, 2).graph_version == version

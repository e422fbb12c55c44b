"""Property test over the one serving loop.

Hypothesis draws a seed, open or closed traffic, a fleet of one to three
replicas (with an optional seeded replica kill), and a mutation rate; every example runs on the tiny LJ graph.  Two invariants:

* a rerun from the same seed gives identical logs and results;
* every ``complete`` answer is the true top-K on the graph version
  stamped on it: it equals a cold :func:`repro.solve`, itself checked by
  :func:`~repro.verify.verify_ksp_result`, on the authority graph
  rebuilt at that version by replaying the stream's batches in order.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.fabric.fabric import FLEET_SERVER, FabricConfig, ServingFabric
from repro.graph.suite import suite_graph
from repro.load.arrivals import ClosedLoop, PoissonArrivals
from repro.load.mixes import make_mix
from repro.serve.faults import FaultPlan
from repro.verify import verify_ksp_result

GRAPH = suite_graph("LJ", "tiny")
MIX = {"kind": "uniform", "scc": True, "k": {"k_max": 4}}
HORIZON = 0.15
MAX_QUERIES = 40


@st.composite
def scenarios(draw) -> dict:
    replicas = draw(st.integers(1, 3))
    kill = None
    if draw(st.booleans()):
        hit = draw(st.integers(1, 6))
        kill = f"fabric.heartbeat:rankfail:{hit}@R{draw(st.integers(0, replicas - 1))}"
    return {
        "seed": draw(st.integers(0, 2**16)),
        "closed": draw(st.booleans()),
        "replicas": replicas,
        "kill": kill,
        "mutation_rate": draw(st.sampled_from([0.0, 40.0, 120.0])),
    }


def run_once(sc: dict):
    """One run; returns the report and every batch the stream yielded."""
    seed = sc["seed"]
    mix = make_mix(GRAPH, dict(MIX))
    plan = FaultPlan.from_specs([sc["kill"]], seed=seed) if sc["kill"] else None
    server = replace(FLEET_SERVER, timeout=0.05, replicas=sc["replicas"])
    loop = ServingFabric(
        GRAPH,
        mix,
        config=FabricConfig(server=server, seed=seed),
        fault_plan=plan,
    )
    yielded = []

    def record(batches):
        for batch in batches:
            yielded.append(batch)
            yield batch

    mutations = None
    if sc["mutation_rate"]:
        stream = IncidentStream(seed=seed, rate=sc["mutation_rate"])
        mutations = record(stream.batches(loop.authority, HORIZON))
    traffic = (
        ClosedLoop(users=6, think_mean=0.01) if sc["closed"] else PoissonArrivals(400.0)
    )
    report = loop.run(
        traffic,
        horizon=HORIZON,
        max_queries=MAX_QUERIES,
        mutations=mutations,
        keep_results=True,
    )
    return report, yielded


def graphs_by_version(batches) -> dict:
    """The authority graph at every version the batches reach."""
    live = LiveGraph(GRAPH)
    graphs = {live.version: live.graph}
    for batch in batches:
        live.apply(batch)
        graphs[live.version] = live.graph
    return graphs


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_rerun_identical_and_complete_answers_exact(sc):
    report, batches = run_once(sc)
    again, _ = run_once(sc)
    assert report.logs
    assert again.logs == report.logs
    assert again.results == report.results
    assert again.metrics() == report.metrics()

    graphs = graphs_by_version(batches)
    for log in report.logs:
        if log.disposition != "complete":
            continue
        graph = graphs[log.graph_version]
        cold = repro.solve(graph, log.source, log.target, log.k)
        assert verify_ksp_result(graph, log.source, log.target, cold)
        assert report.results[log.request_id] == tuple(
            (p.vertices, p.distance) for p in cold.paths
        ), log

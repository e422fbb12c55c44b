"""Graph-version consistency when the fabric replicates mutations.

The dyn-layer contract the fabric leans on: a :class:`LiveGraph` can be
(re)built *at* a checkpointed version, and a mutation batch applied to
every surviving replica leaves them all at the authority's version even
when a kill lands mid-stream.
"""

import numpy as np
import pytest

from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.dyn.terrace import TerraceGraph
from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.fabric.replica import ACTIVE
from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.serve.faults import FaultPlan


class TestLiveGraphVersionSeed:
    def test_starts_at_given_version(self):
        graph = suite_graph("LJ", "tiny")
        live = LiveGraph(graph, version=7)
        assert live.version == 7
        assert live.snapshot().version == 7

    def test_negative_version_rejected(self):
        graph = suite_graph("LJ", "tiny")
        with pytest.raises(ValueError):
            LiveGraph(graph, version=-1)

    def test_default_stays_zero(self):
        graph = suite_graph("LJ", "tiny")
        assert LiveGraph(graph).version == 0

    def test_alive_mask_tombstones_the_dead(self):
        """A checkpoint rebuild: ``alive`` tombstones every vertex it marks
        dead, exactly as deleting them from a fresh spine does."""
        graph = suite_graph("LJ", "tiny")
        alive = np.ones(graph.num_vertices, dtype=bool)
        alive[[0, 3, 17]] = False
        live = LiveGraph(graph, alive=alive, version=4)
        spine = TerraceGraph.from_csr(graph)
        spine.delete_vertices(np.flatnonzero(~alive))
        want = spine.to_csr()
        assert live.version == 4
        assert np.array_equal(live.alive, alive)
        got = live.graph
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.weights, want.weights)
        assert got.num_edges < graph.num_edges


class TestKillDuringMutations:
    @pytest.fixture(scope="class")
    def outcome(self):
        graph = suite_graph("LJ", "tiny")
        config = FabricConfig(seed=0)  # FLEET_SERVER: 3 replicas
        plan = FaultPlan.from_specs(["fabric.mutate:rankfail:2@R2"], seed=0)
        fabric = ServingFabric(
            graph,
            make_mix(graph, {"kind": "uniform", "scc": True}),
            config=config,
            fault_plan=plan,
        )
        batches = IncidentStream(seed=3, rate=80.0).batches(
            fabric.authority, 0.5
        )
        report = fabric.run(
            arrival_process({"kind": "poisson", "rate": 300.0}),
            horizon=0.5,
            max_queries=120,
            mutations=batches,
        )
        return fabric, report

    def test_survivors_share_the_authority_version(self, outcome):
        fabric, report = outcome
        assert report.mutation_batches > 0
        assert len(report.kills) == 1
        version = fabric.authority.version
        versions = {
            rid: fabric.replicas[rid].server.batch.version
            for rid in sorted(fabric.replicas)
            if fabric.replicas[rid].state == ACTIVE
        }
        assert versions, "no active replicas after the run"
        assert set(versions.values()) == {version}

    def test_recovered_replica_replayed_the_log(self, outcome):
        fabric, report = outcome
        kill = report.kills[0]
        assert kill.replica == 2
        assert kill.recovered_at is not None
        # batches that landed while dead were replayed, not dropped
        assert fabric.replicas[2].server.batch.version == fabric.authority.version

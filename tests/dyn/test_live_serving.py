"""Live-graph serving: snapshot versions, surgical invalidation, and
certificate-carried incremental re-solve.

The load-bearing assertion here is the acceptance criterion of the
live serving path: a query whose pruning decision was carried across
a mutation batch by :func:`~repro.core.pruning.prune_reuse_certificate`
must produce paths **bitwise identical** to a cold
:class:`~repro.core.peek.PeeK` solve on the same snapshot.
"""

import numpy as np
import pytest

from repro.core.batch import BatchPeeK
from repro.core.peek import PeeK
from repro.core.pruning import k_upper_bound_prune, prune_reuse_certificate
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream, MutationBatch, MutationSummary
from repro.dyn.terrace import TerraceGraph
from repro.errors import SanitizerError, VertexError
from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.suite import suite_graph
from repro.load.runner import ServerConfig
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.query import Query
from repro.serve.server import QueryServer
from repro.sssp.dijkstra import dijkstra


def fan8():
    """The conftest fan graph plus an isolated 6→7 component.

    For query (0, 4, k=3) the bound is 6: vertex 5 (spSum 20) and the
    weight-10 edges are pruned, and 6/7 are unreachable — mutations
    confined to {5, 6, 7} stay outside the kept region.
    """
    edges = [
        (0, 1, 1.0), (1, 4, 1.0),
        (0, 2, 2.0), (2, 4, 2.0),
        (0, 3, 3.0), (3, 4, 3.0),
        (0, 5, 10.0), (5, 4, 10.0),
        (6, 7, 1.0),
    ]
    return from_edge_list(8, edges)


def _summary(
    *,
    version=1,
    has_insert=False,
    has_decrease=False,
    up=(),
    tombstoned=(),
):
    return MutationSummary(
        version=version,
        has_insert=has_insert,
        has_decrease=has_decrease,
        up_src=np.asarray([e[0] for e in up], dtype=np.int64),
        up_dst=np.asarray([e[1] for e in up], dtype=np.int64),
        up_old_w=np.asarray([e[2] for e in up], dtype=np.float64),
        tombstoned=np.asarray(sorted(tombstoned), dtype=np.int64),
        down_src=np.empty(0, dtype=np.int64),
        down_dst=np.empty(0, dtype=np.int64),
        down_w=np.empty(0, dtype=np.float64),
    )


class TestLiveGraph:
    def test_versions_are_monotone(self):
        live = LiveGraph(fan8())
        assert live.version == 0
        assert live.snapshot().summary is None
        s1 = live.apply(MutationBatch.build(reweights=[(0, 5, 12.0)]))
        s2 = live.apply(MutationBatch.build(deletes=[(6, 7)]))
        assert (s1.version, s2.version) == (1, 2)
        assert live.version == 2
        assert live.snapshot() is s2

    def test_invalid_batch_is_all_or_nothing(self):
        live = LiveGraph(fan8())
        bad = MutationBatch.build(
            deletes=[(0, 1)],  # valid half
            inserts=[(0, 99, 1.0)],  # invalid half
        )
        with pytest.raises(VertexError):
            live.apply(bad)
        assert live.version == 0
        assert live.graph.has_edge(0, 1)  # the delete did not land

    def test_delete_records_up_edge_with_old_weight(self):
        live = LiveGraph(fan8())
        s = live.apply(MutationBatch.build(deletes=[(0, 5), (3, 0)]))
        # (3, 0) never existed: only the real deletion is an up-edge
        assert s.summary.up_src.tolist() == [0]
        assert s.summary.up_old_w.tolist() == [10.0]
        assert s.summary.increase_only

    def test_delete_records_the_lightest_parallel_copy(self):
        graph = CSRGraph(np.array([0, 2, 2]), np.array([1, 1]), np.array([5.0, 1.0]))
        snap = LiveGraph(graph).apply(MutationBatch.build(deletes=[(0, 1)]))
        # the light copy was the edge every path used
        assert snap.summary.up_old_w.tolist() == [1.0]

    def test_summary_lists_lowered_and_inserted_edges(self):
        live = LiveGraph(fan8())
        snap = live.apply(MutationBatch.build(
            reweights=[(0, 5, 4.0), (0, 1, 3.0)],
            inserts=[(2, 3, 0.5), (6, 5, 1.0), (1, 4, 2.0), (7, 6, 1.0)],
            tombstones=[7],
        ))
        s = snap.summary
        # (1,4) is heavier than the live edge, (7,6) starts at a vertex
        # this batch kills, (0,1) went up
        got = sorted(zip(s.down_src.tolist(), s.down_dst.tolist(), s.down_w.tolist()))
        assert got == [(0, 5, 4.0), (2, 3, 0.5), (6, 5, 1.0)]

    def test_reweight_classification(self):
        live = LiveGraph(fan8())
        up = live.apply(MutationBatch.build(reweights=[(0, 5, 15.0)]))
        assert up.summary.up_old_w.tolist() == [10.0]
        assert up.summary.increase_only
        down = live.apply(MutationBatch.build(reweights=[(0, 5, 2.0)]))
        assert down.summary.has_decrease
        same = live.apply(MutationBatch.build(reweights=[(0, 5, 2.0)]))
        assert same.summary.increase_only and same.summary.up_src.size == 0

    def test_insert_classification(self):
        live = LiveGraph(fan8())
        new = live.apply(MutationBatch.build(inserts=[(1, 2, 1.0)]))
        assert new.summary.has_insert
        heavier = live.apply(MutationBatch.build(inserts=[(1, 2, 5.0)]))
        assert heavier.summary.increase_only  # dedup keeps the lighter
        lighter = live.apply(MutationBatch.build(inserts=[(1, 2, 0.5)]))
        assert lighter.summary.has_decrease and not lighter.summary.has_insert

    def test_insert_toward_tombstoned_target_is_ineffective(self):
        live = LiveGraph(fan8())
        live.apply(MutationBatch.build(tombstones=[7]))
        s = live.apply(MutationBatch.build(inserts=[(6, 7, 1.0)]))
        assert s.summary.increase_only

    def test_tombstones_record_only_newly_dead(self):
        live = LiveGraph(fan8())
        s1 = live.apply(MutationBatch.build(tombstones=[5]))
        assert s1.summary.tombstoned.tolist() == [5]
        s2 = live.apply(MutationBatch.build(tombstones=[5, 6]))
        assert s2.summary.tombstoned.tolist() == [6]
        spine = TerraceGraph.from_csr(fan8())
        spine.delete_vertices([5, 6])
        assert s2.graph.num_edges == spine.num_live_edges()

    def test_sssp_matches_dijkstra_at_every_version(self):
        """Dijkstra on a Terrace replaying the batches == snapshot
        Dijkstra across a seeded stream."""
        graph = erdos_renyi(80, 4.0, seed=13)
        live, spine = LiveGraph(graph), TerraceGraph.from_csr(graph)
        stream = IncidentStream(seed=21, rate=15.0, p_tombstone=0.0)
        versions = 0
        for batch in stream.batches(live, horizon=2.0):
            snap = live.apply(batch)
            spine.delete_edges(batch.delete_src, batch.delete_dst)
            spine.reweight_edges(batch.reweight_src, batch.reweight_dst, batch.reweight_w)
            spine.insert_edges(batch.insert_src, batch.insert_dst, batch.insert_w)
            a = spine.sssp(0).dist
            b = dijkstra(snap.graph, 0).dist
            assert np.allclose(
                np.nan_to_num(a, posinf=-1), np.nan_to_num(b, posinf=-1)
            )
            versions += 1
        assert versions > 0


class TestReuseCertificate:
    @pytest.fixture
    def prune(self):
        return k_upper_bound_prune(fan8(), 0, 4, 3, kernel="dijkstra")

    def test_increase_outside_kept_region_accepted(self, prune):
        # (0, 5) has a pruned endpoint; {6, 7} are unreachable
        ok = _summary(up=[(0, 5, 10.0), (6, 7, 1.0)])
        assert prune_reuse_certificate(prune, ok)

    def test_insert_or_decrease_refused(self, prune):
        assert not prune_reuse_certificate(prune, _summary(has_insert=True))
        assert not prune_reuse_certificate(prune, _summary(has_decrease=True))

    def test_up_edge_inside_kept_region_refused(self, prune):
        inside = _summary(up=[(0, 1, 1.0)])
        assert not prune_reuse_certificate(prune, inside)

    def test_heavy_up_edge_between_kept_vertices_accepted(self, prune):
        # both endpoints kept but the old weight already exceeded the
        # bound: the edge was outside the pruned subgraph all along
        heavy = _summary(up=[(1, 4, 7.5)])
        assert prune_reuse_certificate(prune, heavy)

    def test_tombstone_placement(self, prune):
        assert prune_reuse_certificate(prune, _summary(tombstoned=(5,)))
        assert not prune_reuse_certificate(prune, _summary(tombstoned=(2,)))


class TestVersionedBatchPeeK:
    def test_reuse_is_bitwise_identical_to_cold_peek(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph)
        bp.prepare(0, 4, 3).run()  # cold, memoises the pruning decision
        snap = live.apply(MutationBatch.build(reweights=[(0, 5, 15.0)]))
        assert snap.summary.increase_only
        bp.rebind(snap)

        prep = bp.prepare(0, 4, 3)
        assert bp.prune_reused == 1 and prep.version == 1
        reused = prep.run()
        cold = PeeK(snap.graph, 0, 4, kernel="dijkstra").run(3)
        assert [p.vertices for p in reused.paths] == [
            p.vertices for p in cold.paths
        ]
        # bitwise, not approx: the certificate promises identical floats
        assert [p.distance for p in reused.paths] == [
            p.distance for p in cold.paths
        ]

    def test_decrease_forces_cold_resolve(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph)
        bp.prepare(0, 4, 3)
        snap = live.apply(
            MutationBatch.build(reweights=[(0, 5, 4.0), (5, 4, 4.0)])
        )
        assert snap.summary.has_decrease
        bp.rebind(snap)
        assert bp.cache_info["prepared_cached"] == 0
        bp.prepare(0, 4, 3)
        assert bp.prune_reused == 0 and bp.prune_cold == 2
        # the re-solve sees the cleared road: 0-5-4 now costs 8
        cold = PeeK(snap.graph, 0, 4, kernel="dijkstra").run(4)
        assert cold.distances[-1] == 8.0

    def test_untouched_region_retains_sssp_cache(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph)
        bp.prepare(0, 4, 3)
        snap = live.apply(MutationBatch.build(reweights=[(6, 7, 3.0)]))
        bp.rebind(snap)
        info = bp.cache_info
        assert info["invalidated"] == 0
        assert info["retained"] == 3  # fwd(0) + rev(4) + prepared(0,4,3)

    def test_touched_region_repairs_sssp_cache(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph)
        bp.prepare(0, 4, 3)
        snap = live.apply(MutationBatch.build(reweights=[(0, 1, 9.0)]))
        bp.rebind(snap)
        info = bp.cache_info
        # (0,1) is a tree edge of both halves and a kept up-edge: the
        # pruning decision goes, both SSSP halves are repaired onto the
        # new snapshot
        assert info["invalidated"] == 1
        assert info["repaired"] == 2
        assert info["forward_cached"] == info["reverse_cached"] == 1
        for tree, cold in (
            (bp.forward_sssp(0), dijkstra(snap.graph, 0)),
            (bp.reverse_sssp(4), dijkstra(snap.graph.reverse(), 4)),
        ):
            assert [tree.parent_of(v) for v in range(8)] == cold.parent.tolist()
            assert tree.dist.tobytes() == cold.dist.tobytes()
            assert tree.parent.tobytes() == cold.parent.tobytes()
        assert bp.cache_info["misses"] == 2  # both halves were hits

    def test_rebind_requires_monotone_version(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph)
        snap = live.apply(MutationBatch.build(reweights=[(6, 7, 2.0)]))
        bp.rebind(snap)
        with pytest.raises(ValueError):
            bp.rebind(snap)

    def test_san_dyn_audits_reuse(self):
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph, sanitize=True)
        bp.prepare(0, 4, 3)
        snap = live.apply(MutationBatch.build(reweights=[(0, 5, 20.0)]))
        bp.rebind(snap)
        bp.prepare(0, 4, 3)  # sound reuse: SAN-DYN passes silently
        assert bp.prune_reused == 1

    def test_san_dyn_catches_unsound_reuse(self):
        """Force a stale decision past the certificate: SAN-DYN fires."""
        live = LiveGraph(fan8())
        bp = BatchPeeK(live.graph, sanitize=True)
        bp.prepare(0, 4, 3)
        snap = live.apply(MutationBatch.build(reweights=[(0, 1, 50.0)]))
        bp.graph = snap.graph  # bypass rebind's invalidation on purpose
        bp.version = snap.version
        with pytest.raises(SanitizerError):
            bp.prepare(0, 4, 3)


class TestServerLiveServing:
    def test_static_server_rejects_mutations(self, fan_graph):
        server = QueryServer(fan_graph)
        with pytest.raises(ValueError):
            server.apply_mutations(MutationBatch.build(deletes=[(0, 1)]))

    def test_graph_version_stamped_on_results(self):
        live = LiveGraph(fan8())
        server = QueryServer(live)
        r0 = server.serve(0, 4, 3)
        server.apply_mutations(MutationBatch.build(reweights=[(0, 5, 11.0)]))
        r1 = server.serve(0, 4, 3)
        assert (r0.graph_version, r1.graph_version) == (0, 1)
        assert server.counters["mutation_batches"] == 1
        assert server.live.version == 1

    def test_served_reuse_matches_cold_peek(self):
        live = LiveGraph(fan8())
        server = QueryServer(live, sanitize=True)
        server.serve(0, 4, 3)
        server.apply_mutations(MutationBatch.build(reweights=[(5, 4, 30.0)]))
        result = server.serve(0, 4, 3)
        assert server.batch.cache_info["prune_reused"] == 1
        cold = PeeK(live.graph, 0, 4, kernel="dijkstra").run(3)
        assert [p.vertices for p in result.paths] == [
            p.vertices for p in cold.paths
        ]
        assert result.distances == cold.distances

    def test_san_dyn_audit_leaves_the_run_unchanged(self, monkeypatch):
        """SAN-DYN's cold re-prune is not the query's work: it bills no
        simulated time and adds no trace counter, so an audited run
        reports exactly what an unaudited one does."""
        graph = suite_graph("LJ", "tiny")
        queries = [
            Query(0, 5, 4, timeout=0.05, request_id=f"q{i}", issued_at=0.004 * i)
            for i in range(6)
        ]

        def run():
            config = ServerConfig(name="audit", timeout=0.05)
            fabric = ServingFabric(graph, config=FabricConfig(server=config))
            with use_tracer(Tracer()) as tracer:
                report = fabric.run(queries, horizon=0.05, keep_results=True)
            return report.logs, report.results, tracer.counter_totals()

        monkeypatch.delenv("RPR_SANITIZE", raising=False)
        plain = run()
        assert plain[2]["batch.prune_reuse"] == 5  # every repeat is audited
        monkeypatch.setenv("RPR_SANITIZE", "1")
        assert run() == plain

    def test_harness_applies_mutation_feed_in_order(self):
        config = ServerConfig(name="single")
        fabric = ServingFabric(fan8(), config=FabricConfig(server=config))
        server = fabric.replicas[0].server
        queries = [
            Query(0, 4, 3, request_id=f"q{i}", issued_at=0.25 * i)
            for i in range(5)
        ]
        batches = [
            MutationBatch.build(reweights=[(0, 5, 11.0)], at=0.3),
            MutationBatch.build(reweights=[(0, 5, 12.0)], at=0.6),
            MutationBatch.build(reweights=[(0, 5, 13.0)], at=9.9),  # late
        ]
        report = fabric.run(queries, horizon=1.5, mutations=iter(batches))
        assert report.mutation_batches == 2  # the at=9.9 batch never fires
        assert report.metrics()["mutation_batches"] == 2
        assert server.counters["mutation_batches"] == 2
        assert server.live.version == fabric.authority.version == 2
        assert report.count("complete") == len(queries)

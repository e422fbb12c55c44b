"""Distributed PeeK: identical paths to serial PeeK, sensible scaling."""

import numpy as np
import pytest

from repro.core.peek import PeeK, peek_ksp
from repro.distributed.comm import CommModel, SimComm
from repro.distributed.dist_peek import DistributedPeeK, distributed_peek
from repro.distributed.dist_sssp import distributed_delta_stepping
from repro.distributed.partition import RowPartition
from repro.errors import UnreachableTargetError
from repro.graph.build import from_edge_list
from repro.graph.generators import preferential_attachment
from tests.conftest import random_reachable_pair


@pytest.fixture(scope="module")
def pa_case():
    g = preferential_attachment(600, 6, seed=12)
    s, t = random_reachable_pair(g, seed=5)
    return g, s, t


class TestCorrectness:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_matches_serial_peek(self, pa_case, nodes):
        g, s, t = pa_case
        ref = peek_ksp(g, s, t, 6).distances
        rep = distributed_peek(g, s, t, 6, nodes)
        assert np.allclose(rep.result.distances, ref)

    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_bitwise_equal_to_serial_peek(self, pa_case, nodes, alpha):
        g, s, t = pa_case
        ref = PeeK(g, s, t, alpha=alpha).run(6)
        got = distributed_peek(g, s, t, 6, nodes, alpha=alpha).result
        assert [p.vertices for p in got.paths] == [p.vertices for p in ref.paths]
        assert got.distances == ref.distances
        assert got.prune.bound == ref.prune.bound
        assert np.array_equal(got.prune.keep_vertices, ref.prune.keep_vertices)
        assert np.array_equal(got.prune.keep_edges, ref.prune.keep_edges)
        assert got.compaction.strategy == ref.compaction.strategy

    def test_edges_traversed_counts_each_traversal_once(self, pa_case):
        """The two pruning SSSPs are counted once, plus the KSP stage."""
        g, s, t = pa_case
        rep = distributed_peek(g, s, t, 6, 2)
        comm = SimComm(2, CommModel())
        fwd = distributed_delta_stepping(RowPartition.build(g, 2), s, comm)
        rev = distributed_delta_stepping(RowPartition.build(g.reverse(), 2), t, comm)
        sssp_edges = fwd.stats.edges_relaxed + rev.stats.edges_relaxed
        assert rep.edges_traversed == sssp_edges + rep.result.stats.edges_relaxed

    def test_unreachable(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(UnreachableTargetError):
            distributed_peek(g, 0, 3, 2, 2)


class TestScaling:
    def test_more_nodes_speed_up_with_scaled_model(self, pa_case):
        g, s, t = pa_case
        model = CommModel().scaled_for(g.num_edges)
        t1 = distributed_peek(g, s, t, 4, 1, model=model).time_units
        t8 = distributed_peek(g, s, t, 4, 8, model=model).time_units
        assert t8 < t1

    def test_report_fields(self, pa_case):
        g, s, t = pa_case
        rep = distributed_peek(g, s, t, 4, 4)
        assert rep.edges_traversed > 0
        assert rep.comm.num_ranks == 4
        assert rep.comm.supersteps > 0
        assert rep.time_units == pytest.approx(
            rep.comm.time_units + rep.ksp_units
        )
        assert 0 < rep.comm.parallel_efficiency <= 16.5  # cores_per_node bound

    def test_constructor_wrapper_equivalence(self, pa_case):
        g, s, t = pa_case
        a = DistributedPeeK(g, s, t, 2).run(3)
        b = distributed_peek(g, s, t, 3, 2)
        assert np.allclose(a.result.distances, b.result.distances)

    def test_edge_swap_branch(self, pa_case):
        """alpha=0 forbids regeneration, exercising the distributed
        edge-swap compaction path."""
        g, s, t = pa_case
        serial = peek_ksp(g, s, t, 4).distances
        rep = distributed_peek(g, s, t, 4, 3, alpha=0.0)
        assert rep.result.compaction.strategy == "edge-swap"
        assert np.allclose(rep.result.distances, serial)

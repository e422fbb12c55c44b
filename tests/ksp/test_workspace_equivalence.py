"""A solver's answers must not depend on what its SSSP workspace did before.

Every deviation algorithm runs its spur searches on one epoch-stamped
:class:`~repro.sssp.workspace.SSSPWorkspace`, whose arrays are never
cleared: stale epochs, stale settled flags and a ban mask left over from
earlier queries must all read as "fresh".  Each test runs an algorithm
twice — once on a new workspace, once on a workspace already dirtied by
other searches on the same graph — and requires the same ranked paths,
distances and, because the relaxation order is unchanged, the same work
counters.  The kernel-level A/B against fresh-allocation Dijkstra lives in
``tests/sssp/test_workspace.py``; answers against networkx in
``tests/ksp/test_agreement_properties.py``.
"""

import pytest

from repro.core.compaction import RegeneratedGraph
from repro.core.peek import PeeK
from repro.graph.generators import erdos_renyi, grid_network
from repro.ksp.node_classification import NodeClassificationKSP
from repro.ksp.optyen import OptYenKSP
from repro.ksp.pnc import PostponedNCKSP
from repro.ksp.psb import PSBKSP
from repro.ksp.sidetrack import SidetrackKSP
from repro.ksp.sidetrack_star import SidetrackStarKSP
from repro.ksp.yen import YenKSP
from repro.sssp.dijkstra import dijkstra
from repro.sssp.workspace import SSSPWorkspace

ALGOS = [
    YenKSP,
    OptYenKSP,
    NodeClassificationKSP,
    SidetrackKSP,
    SidetrackStarKSP,
    PostponedNCKSP,
    PSBKSP,
]


def _paths_of(result):
    return [(p.distance, p.vertices) for p in result.paths]


def _dirty_workspace(graph):
    """A workspace left as earlier queries leave it: advanced epochs,
    stamped dist/settled slots and a non-empty ban mask."""
    ws = SSSPWorkspace(graph)
    n = graph.num_vertices
    for s in range(min(n, 4)):
        dijkstra(graph, s, banned_vertices=frozenset({(s + 1) % n}), workspace=ws)
    return ws


def _run_both(cls, graph, source, target, k):
    fresh = cls(graph, source, target).run(k)
    reused = cls(graph, source, target)
    reused._workspace = _dirty_workspace(graph)
    return fresh, reused.run(k)


@pytest.mark.parametrize("cls", ALGOS, ids=[c.name for c in ALGOS])
class TestAlgorithmEquivalence:
    def test_fan_graph(self, cls, fan_graph):
        base, ws = _run_both(cls, fan_graph, 0, 5, 4)
        assert _paths_of(ws) == _paths_of(base)

    def test_loop_trap(self, cls, loop_trap_graph):
        base, ws = _run_both(cls, loop_trap_graph, 0, 4, 3)
        assert _paths_of(ws) == _paths_of(base)

    def test_random_graphs(self, cls):
        for seed in (1, 2, 3):
            g = erdos_renyi(70, 4.0, seed=seed)
            base, ws = _run_both(cls, g, 0, g.num_vertices - 1, 6)
            assert _paths_of(ws) == _paths_of(base), f"seed={seed}"

    def test_grid(self, cls):
        g = grid_network(7, 7, seed=4)
        base, ws = _run_both(cls, g, 0, g.num_vertices - 1, 8)
        assert _paths_of(ws) == _paths_of(base)

    def test_work_counters_identical(self, cls):
        """Leftover state changes nothing about the search: same counters."""
        g = erdos_renyi(50, 4.0, seed=6)
        base, ws = _run_both(cls, g, 0, g.num_vertices - 1, 5)
        assert ws.stats.edges_relaxed == base.stats.edges_relaxed
        assert ws.stats.sssp_calls == base.stats.sssp_calls


class TestPeeKEquivalence:
    def test_peek_workspace_binds_to_remnant(self):
        """PeeK's inner workspace binds to the compacted graph, and the
        answers equal OptYen's on the whole graph.  Both cases repair an
        express candidate, so the workspace exists."""
        for seed, k in ((2, 5), (3, 12)):  # regeneration, edge swap
            g = erdos_renyi(80, 5.0, seed=seed)
            t = g.num_vertices - 1
            solver = PeeK(g, 0, t)
            got = solver.run(k)
            remnant = solver.compaction_result.compacted
            if isinstance(remnant, RegeneratedGraph):
                remnant = remnant.graph
            assert solver.prepared.inner._workspace.graph is remnant
            ref = OptYenKSP(g, 0, t).run(k)
            assert [p.vertices for p in got.paths] == [p.vertices for p in ref.paths]
            assert got.distances == pytest.approx(ref.distances)

    def test_peek_matches_plain_yen(self):
        g = grid_network(6, 6, seed=2)
        t = g.num_vertices - 1
        yen = YenKSP(g, 0, t).run(6)
        peek = PeeK(g, 0, t).run(6)
        assert [p.distance for p in peek.paths] == pytest.approx(
            [p.distance for p in yen.paths]
        )


class TestSolverWorkspaceLifecycle:
    def test_workspace_created_lazily_and_reused(self):
        g = erdos_renyi(40, 4.0, seed=8)
        solver = YenKSP(g, 0, g.num_vertices - 1)
        assert solver._workspace is None
        solver.run(4)
        ws = solver._workspace
        assert ws is not None and ws.epoch > 1  # many spur searches, one workspace

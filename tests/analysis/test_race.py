"""Vector-clock race detector: core semantics, Δ-stepping, SimComm."""

import numpy as np
import pytest

from repro.analysis.race import (
    DeltaSteppingFootprints,
    Footprint,
    RaceDetector,
    check_workload,
)
from repro.core.compaction import compact_status_array
from repro.distributed.comm import SimComm
from repro.errors import CommError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid_network
from repro.parallel.workload import JobKind, Phase, TaskPhase, Workload
from repro.sssp.delta_stepping import BACKENDS, delta_stepping
from repro.sssp.dijkstra import dijkstra


# ----------------------------------------------------------------------
# detector core
# ----------------------------------------------------------------------
def test_write_write_conflict():
    det = RaceDetector(2)
    det.write(0, ("dist", 4))
    det.write(1, ("dist", 4))
    assert [f.rule for f in det.findings] == ["RACE-WW"]
    assert "dist[4]" in det.findings[0].message


def test_read_write_conflict_both_orders():
    det = RaceDetector(2)
    det.read(0, ("dist", 1))
    det.write(1, ("dist", 1))  # write after concurrent read
    det.write(0, ("dist", 2))
    det.read(1, ("dist", 2))  # read after concurrent write
    assert [f.rule for f in det.findings] == ["RACE-RW", "RACE-RW"]


def test_barrier_separates_accesses():
    det = RaceDetector(2)
    det.write(0, ("dist", 4))
    det.barrier()
    det.write(1, ("dist", 4))
    det.read(0, ("dist", 4))  # same side of the barrier as task 1's write...
    assert [f.rule for f in det.findings] == ["RACE-RW"]  # ...so only this


def test_same_task_never_conflicts_with_itself():
    det = RaceDetector(3)
    det.read(1, "x")
    det.write(1, "x")
    det.write(1, "x")
    assert det.findings == []


def test_conflicts_deduplicated_per_pair_and_resource():
    det = RaceDetector(2)
    for _ in range(5):
        det.write(0, "x")
        det.write(1, "x")
    assert len(det.findings) == 1


def test_needs_at_least_one_task():
    with pytest.raises(ValueError):
        RaceDetector(0)


# ----------------------------------------------------------------------
# workload-level checking
# ----------------------------------------------------------------------
def test_check_workload_trusts_undeclared_phases():
    wl = Workload(phases=[Phase(JobKind.DATA, 100, "opaque")])
    assert check_workload(wl) == []


def test_check_workload_flags_overlapping_writes():
    fps = (
        Footprint(writes=(("dist", 1), ("dist", 2))),
        Footprint(writes=(("dist", 2),)),
    )
    wl = Workload(phases=[TaskPhase((10, 10), "bad-commit", footprints=fps)])
    findings = check_workload(wl)
    assert [f.rule for f in findings] == ["RACE-WW"]
    assert findings[0].context["phase"] == "bad-commit"


def test_check_workload_phases_are_barrier_separated():
    # the same overlap split across two phases is legal: phases sync
    wl = Workload(
        phases=[
            Phase(JobKind.DATA, 1, "a", footprints=(Footprint(writes=(("d", 0),)), Footprint())),
            Phase(JobKind.DATA, 1, "b", footprints=(Footprint(), Footprint(writes=(("d", 0),)))),
        ]
    )
    assert check_workload(wl) == []


# ----------------------------------------------------------------------
# Δ-stepping decomposition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_tasks", [2, 4])
def test_shipped_delta_stepping_decomposition_is_race_free(num_tasks, backend):
    """Acceptance criterion: zero conflicts on the real phase structure."""
    for g in (grid_network(8, 8, seed=3), erdos_renyi(60, 0.1, seed=7)):
        source = int(np.argmax(g.out_degrees()))  # a vertex with out-edges
        rec = DeltaSteppingFootprints(num_tasks=num_tasks)
        delta_stepping(g, source, footprint_recorder=rec, backend=backend)
        assert rec.phases, "recorder saw no bucket steps"
        assert rec.check() == []


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize(
    "graph",
    [
        grid_network(8, 8, seed=3),
        erdos_renyi(60, 0.1, seed=7),
        erdos_renyi(120, 0.05, seed=2),
    ],
    ids=["grid", "er60", "er120"],
)
def test_engines_record_identical_footprints(graph, masked):
    """The scalar engine's recorder path sees the vectorized engine's
    exact batches, so both record the same phases."""
    source = int(np.argmax(graph.out_degrees()))
    if masked:  # masked-out vertices dropped by a status-array view
        mask = np.random.default_rng(5).random(graph.num_vertices) > 0.25
        mask[source] = True
        graph = compact_status_array(graph, mask)
    phases = {}
    for backend in BACKENDS:
        rec = DeltaSteppingFootprints(num_tasks=3)
        delta_stepping(graph, source, footprint_recorder=rec, backend=backend)
        phases[backend] = rec.phases
    assert phases["scalar"], "recorder saw no bucket steps"
    assert phases["scalar"] == phases["vectorized"]


def test_barrier_elision_bug_is_flagged():
    """Acceptance criterion: the synthetic forgotten-barrier bug is caught."""
    g = CSRGraph(
        np.array([0, 2, 3, 3]),
        np.array([1, 2, 2]),
        np.array([1.0, 3.0, 0.5]),
    )
    rec = DeltaSteppingFootprints(num_tasks=2, elide_barriers=True)
    delta_stepping(g, 0, delta=10.0, footprint_recorder=rec)
    findings = rec.check()
    assert findings and all(f.rule == "RACE-RW" for f in findings)
    assert any("dist[" in f.message for f in findings)
    # the same run with proper barriers is clean
    clean = DeltaSteppingFootprints(num_tasks=2)
    delta_stepping(g, 0, delta=10.0, footprint_recorder=clean)
    assert clean.check() == []


def test_footprint_recorder_does_not_change_distances():
    g = erdos_renyi(50, 0.12, seed=11)
    rec = DeltaSteppingFootprints(num_tasks=3)
    with_rec = delta_stepping(g, 0, footprint_recorder=rec)
    without = delta_stepping(g, 0)
    assert np.array_equal(with_rec.dist, without.dist)
    assert np.array_equal(with_rec.dist, dijkstra(g, 0).dist)


def test_recorder_as_workload_carries_footprints():
    g = grid_network(4, 4, seed=1)
    rec = DeltaSteppingFootprints(num_tasks=2)
    delta_stepping(g, 0, footprint_recorder=rec)
    wl = rec.as_workload()
    assert wl.num_phases == len(rec.phases)
    assert all(p.footprints for p in wl.phases)
    # gather/commit alternation: labels come in pairs
    labels = [p.label for p in wl.phases]
    assert any(lbl.endswith("-gather") for lbl in labels)
    assert any(lbl.endswith("-commit") for lbl in labels)


# ----------------------------------------------------------------------
# SimComm integration
# ----------------------------------------------------------------------
def test_simcomm_flags_unsynchronised_writes():
    det = RaceDetector(2)
    comm = SimComm(2, race_detector=det)
    comm.record_writes(0, [("owned", 3)])
    comm.record_writes(1, [("owned", 3)])
    assert [f.rule for f in det.findings] == ["RACE-WW"]


def test_simcomm_collectives_are_barriers():
    det = RaceDetector(2)
    comm = SimComm(2, race_detector=det)
    comm.record_writes(0, [("owned", 3)])
    comm.alltoallv([[[], []], [[], []]])  # any collective synchronises
    comm.record_writes(1, [("owned", 3)])
    comm.barrier()
    comm.record_reads(0, [("owned", 3)])
    assert det.findings == []


def test_simcomm_rank_count_must_match_detector():
    with pytest.raises(CommError, match="3 tasks"):
        SimComm(2, race_detector=RaceDetector(3))


def test_simcomm_rejects_bad_rank():
    comm = SimComm(2, race_detector=RaceDetector(2))
    with pytest.raises(CommError, match="bad rank"):
        comm.record_writes(5, ["x"])


def test_simcomm_without_detector_ignores_declarations():
    comm = SimComm(2)
    comm.record_writes(0, ["x"])  # no-op, must not raise
    comm.record_reads(1, ["x"])
    assert comm.race_detector is None

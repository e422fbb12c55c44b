"""Simulated-race detection for the parallel phase decompositions.

The shared-memory simulator (:mod:`repro.parallel`) and the BSP
communicator (:mod:`repro.distributed.comm`) both replay *declared*
parallel structure: phases whose tasks are claimed to be independent,
separated by barriers.  Nothing in the simulators verifies that claim —
a decomposition that forgets a barrier, or partitions writes incorrectly,
still simulates fine and silently reports speedups for a program that
would corrupt memory on real threads.

This module closes that gap with a FastTrack-style vector-clock detector
over declared read/write footprints.  Each concurrent task carries a
vector clock; :meth:`RaceDetector.barrier` joins all clocks (everything
before the barrier happens-before everything after); two accesses to the
same resource conflict when neither happens-before the other and at least
one is a write.  Conflicts surface as :class:`~repro.analysis.findings.
Finding` records with rule ``RACE-WW`` (write-write) or ``RACE-RW``
(read-write).

Footprints enter three ways:

* :class:`~repro.parallel.workload.Phase` / ``TaskPhase`` accept an
  optional ``footprints`` tuple (one :class:`Footprint` per concurrent
  task); :func:`check_workload` sweeps a workload and checks every phase
  that declares them.
* ``delta_stepping(..., footprint_recorder=DeltaSteppingFootprints(...))``
  records the kernel's real gather → barrier → commit decomposition as it
  runs, so the shipped bucket-relaxation structure is checked against the
  *actual* frontiers and relaxations of a run, not a hand-written model.
* ``SimComm(..., race_detector=...)`` treats every collective as a
  barrier and lets distributed algorithms declare per-rank footprints via
  ``record_reads`` / ``record_writes``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.parallel.workload import Footprint, JobKind, Phase, Workload

__all__ = [
    "Footprint",
    "RaceDetector",
    "DeltaSteppingFootprints",
    "DistDeltaFootprints",
    "check_workload",
]


def _resource_name(resource) -> str:
    """``("dist", 5)`` → ``"dist[5]"``; anything else via ``str``."""
    if isinstance(resource, tuple) and len(resource) == 2:
        return f"{resource[0]}[{resource[1]}]"
    return str(resource)


class RaceDetector:
    """Vector-clock happens-before checker over declared accesses.

    Tasks are numbered ``0..num_tasks-1``.  Record accesses with
    :meth:`read` / :meth:`write` (or the bulk variants), insert
    :meth:`barrier` wherever the decomposition claims synchronisation,
    and inspect :attr:`findings` — one deduplicated
    :class:`~repro.analysis.findings.Finding` per conflicting
    (rule, resource, task-pair) triple.
    """

    def __init__(self, num_tasks: int, *, label: str = "") -> None:
        if num_tasks < 1:
            raise ValueError("need at least one task")
        self.num_tasks = num_tasks
        self.label = label
        # vc[t][u]: the latest tick of task u that task t has synchronised with
        self._vc = [[0] * num_tasks for _ in range(num_tasks)]
        for t in range(num_tasks):
            self._vc[t][t] = 1
        self._last_write: dict = {}  # resource -> (task, tick)
        self._reads: dict = {}  # resource -> {task: tick}
        self.findings: list[Finding] = []
        self._reported: set = set()

    # ------------------------------------------------------------------
    def _happens_before(self, observer: int, other: int, tick: int) -> bool:
        return self._vc[observer][other] >= tick

    def _report(self, rule: str, resource, a: int, b: int) -> None:
        key = (rule, resource, min(a, b), max(a, b))
        if key in self._reported:
            return
        self._reported.add(key)
        name = _resource_name(resource)
        where = f" in {self.label}" if self.label else ""
        kind = "write-write" if rule == "RACE-WW" else "read-write"
        self.findings.append(
            Finding(
                tool="race",
                rule=rule,
                severity="error",
                message=(
                    f"{kind} conflict on {name}{where}: tasks {min(a, b)} "
                    f"and {max(a, b)} access it concurrently with no "
                    "separating barrier"
                ),
                context={
                    "resource": name,
                    "tasks": (min(a, b), max(a, b)),
                    "phase": self.label,
                },
            )
        )

    # ------------------------------------------------------------------
    def read(self, task: int, resource) -> None:
        """Task ``task`` reads ``resource`` at its current clock."""
        lw = self._last_write.get(resource)
        if lw is not None:
            writer, tick = lw
            if writer != task and not self._happens_before(task, writer, tick):
                self._report("RACE-RW", resource, writer, task)
        self._reads.setdefault(resource, {})[task] = self._vc[task][task]

    def write(self, task: int, resource) -> None:
        """Task ``task`` writes ``resource`` at its current clock."""
        lw = self._last_write.get(resource)
        if lw is not None:
            writer, tick = lw
            if writer != task and not self._happens_before(task, writer, tick):
                self._report("RACE-WW", resource, writer, task)
        for reader, tick in self._reads.get(resource, {}).items():
            if reader != task and not self._happens_before(task, reader, tick):
                self._report("RACE-RW", resource, reader, task)
        self._last_write[resource] = (task, self._vc[task][task])

    def record_reads(self, task: int, resources) -> None:
        """Bulk :meth:`read` of an iterable of resources."""
        for r in resources:
            self.read(task, r)

    def record_writes(self, task: int, resources) -> None:
        """Bulk :meth:`write` of an iterable of resources."""
        for r in resources:
            self.write(task, r)

    def barrier(self) -> None:
        """Global synchronisation: join every clock, then advance each task."""
        joined = [
            max(self._vc[t][u] for t in range(self.num_tasks))
            for u in range(self.num_tasks)
        ]
        for t in range(self.num_tasks):
            self._vc[t] = joined.copy()
            self._vc[t][t] += 1


def check_workload(workload: Workload) -> list[Finding]:
    """Check every footprint-declaring phase of a workload for races.

    Phase boundaries are barriers (that is the simulator's execution
    model), so each phase is checked independently: its tasks run
    concurrently with no internal synchronisation and every declared
    access pair on a shared resource with at least one write is a
    conflict.  Phases without footprints are skipped — declaring them is
    opt-in per decomposition.
    """
    findings: list[Finding] = []
    for phase in workload.phases:
        fps = getattr(phase, "footprints", ())
        if not fps:
            continue
        det = RaceDetector(len(fps), label=phase.label)
        for t, fp in enumerate(fps):
            det.record_reads(t, fp.reads)
        for t, fp in enumerate(fps):
            det.record_writes(t, fp.writes)
        findings.extend(det.findings)
    return findings


class DeltaSteppingFootprints:
    """Record Δ-stepping's bucket steps as footprint-declared phases.

    Pass an instance as ``delta_stepping(..., footprint_recorder=...)``.
    Each bucket step is decomposed the way the paper parallelises it
    (§6.2, GBBS-style): a *gather* phase where tasks read the distances
    of their frontier/edge-target chunk, a barrier, then a *commit* phase
    where the min-reduced relaxations are written back partitioned by
    target vertex — so no two tasks ever write the same slot.

    ``elide_barriers=True`` deliberately merges each step's gather and
    commit into one phase — the classic forgotten-barrier bug — which the
    detector must flag (this is the synthetic-bug regression test; the
    shipped decomposition must report zero conflicts).
    """

    def __init__(self, num_tasks: int = 2, *, elide_barriers: bool = False) -> None:
        if num_tasks < 1:
            raise ValueError("need at least one task")
        self.num_tasks = num_tasks
        self.elide_barriers = elide_barriers
        self.phases: list[tuple[str, tuple[Footprint, ...]]] = []

    def record_step(self, label: str, sources, read_targets, written) -> None:
        """Record one bucket step's accesses (arrays of vertex ids).

        ``sources``/``read_targets`` are the per-edge frontier sources and
        relaxation targets the step *read* distances of; ``written`` are
        the vertices whose ``dist``/``parent`` the step improved.
        """
        nt = self.num_tasks
        reads: list[set] = [set() for _ in range(nt)]
        # edges are dealt to tasks round-robin by position — the simulator's
        # static chunking of one vectorised batch
        for pos, u in enumerate(sources.tolist()):
            reads[pos % nt].add(("dist", int(u)))
        for pos, v in enumerate(read_targets.tolist()):
            reads[pos % nt].add(("dist", int(v)))
        writes: list[set] = [set() for _ in range(nt)]
        # commits are owner-partitioned by target vertex
        for v in written.tolist():
            w = writes[int(v) % nt]
            w.add(("dist", int(v)))
            w.add(("parent", int(v)))
        if self.elide_barriers:
            self.phases.append(
                (
                    label,
                    tuple(
                        Footprint(
                            reads=tuple(sorted(reads[t])),
                            writes=tuple(sorted(writes[t])),
                        )
                        for t in range(nt)
                    ),
                )
            )
            return
        self.phases.append(
            (
                f"{label}-gather",
                tuple(
                    Footprint(reads=tuple(sorted(reads[t]))) for t in range(nt)
                ),
            )
        )
        self.phases.append(
            (
                f"{label}-commit",
                tuple(
                    Footprint(writes=tuple(sorted(writes[t]))) for t in range(nt)
                ),
            )
        )

    def as_workload(self) -> Workload:
        """The recorded steps as a footprint-carrying DATA-phase workload."""
        phases = [
            Phase(
                JobKind.DATA,
                work=sum(len(fp.reads) + len(fp.writes) for fp in fps),
                label=label,
                footprints=fps,
            )
            for label, fps in self.phases
        ]
        return Workload(phases=phases, label="delta-stepping-footprints")

    def check(self) -> list[Finding]:
        """Run the race detector over everything recorded so far."""
        return check_workload(self.as_workload())


class DistDeltaFootprints:
    """Declare distributed Δ-stepping's per-rank footprints as it runs.

    Pass an instance as ``distributed_delta_stepping(...,
    footprint_recorder=...)`` together with a ``SimComm(...,
    race_detector=RaceDetector(num_ranks))``: the kernel calls
    :meth:`gather` for each rank before routing (reads of the rank's own
    frontier distances, clears of its own ``needs`` flags) and
    :meth:`commit` after the ``alltoallv`` (owner-side reads of request
    targets, writes of improved distances/parents).  The collectives are
    the barriers — SimComm already joins the detector's clocks on every
    one — so the shipped owner-routed decomposition must report **zero**
    conflicts.

    ``owner_routed=False`` declares the classic distributed-memory bug
    instead: the *requesting* rank writes the target's distance directly,
    as a shared-memory port naively would, which races between any two
    ranks relaxing edges into the same vertex in one superstep.  The
    detector must flag that (the synthetic-bug regression test).
    """

    def __init__(self, *, owner_routed: bool = True) -> None:
        self.owner_routed = owner_routed

    def gather(self, comm, rank: int, frontier, targets) -> None:
        """Rank-local expansion: read own frontier, clear own flags."""
        frontier = [int(u) for u in frontier]
        comm.record_reads(rank, (("dist", u) for u in frontier))
        comm.record_writes(rank, (("needs", u) for u in frontier))
        if not self.owner_routed:
            comm.record_writes(
                rank, (("dist", int(v)) for v in targets)
            )

    def commit(self, comm, rank: int, targets, improved) -> None:
        """Owner-side apply: read routed targets, write improvements."""
        comm.record_reads(rank, (("dist", int(v)) for v in targets))
        improved = [int(v) for v in improved]
        comm.record_writes(rank, (("dist", v) for v in improved))
        comm.record_writes(rank, (("parent", v) for v in improved))
        comm.record_writes(rank, (("needs", v) for v in improved))

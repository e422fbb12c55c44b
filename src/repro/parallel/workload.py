"""Workload descriptions: what the parallel simulator schedules.

A :class:`Workload` is an ordered list of phases, each tagged with the
paper's job class (Figure 7):

* ``DATA`` — one bulk operation split across all workers with a barrier at
  the end (a Δ-stepping bucket step, the spSum pass, the parallel sort);
* ``EMBARRASSING`` — independent chunks, no communication until the final
  join (path validation, both compaction builds);
* ``TASK`` — a set of unequal independent tasks list-scheduled onto thread
  groups (the concurrent SSSPs of one KSP iteration — the *outer* level of
  the paper's two-level strategy);
* ``SERIAL`` — inherently sequential work (candidate-pool heap operations,
  NC's colour propagation).

The ``*_workload`` builders translate the statistics objects the real
algorithms produce into phases, so the simulator replays *measured* work,
never synthetic numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "JobKind",
    "Footprint",
    "Phase",
    "TaskPhase",
    "Workload",
    "pruning_workload",
    "compaction_workload",
    "ksp_workload",
    "peek_workload",
    "baseline_ksp_workload",
]


class JobKind(enum.Enum):
    """The paper's Figure 7 job classes."""

    DATA = "data"
    EMBARRASSING = "embarrassing"
    TASK = "task"
    SERIAL = "serial"


@dataclass(frozen=True)
class Footprint:
    """Declared memory accesses of one concurrent task within a phase.

    ``reads``/``writes`` are tuples of hashable resource keys — the
    convention is ``(array_name, index)`` pairs like ``("dist", 5)``.
    Phases that declare one footprint per task can be audited for
    write-write and read-write conflicts by
    :func:`repro.analysis.race.check_workload`; phases that declare none
    are simply trusted, as before.
    """

    reads: tuple = ()
    writes: tuple = ()


@dataclass(frozen=True)
class Phase:
    """One barrier-delimited step of ``work`` abstract units.

    ``footprints`` (optional) declares per-task read/write sets — one
    :class:`Footprint` per concurrent task — for race auditing.
    """

    kind: JobKind
    work: int
    label: str = ""
    footprints: tuple = ()


@dataclass(frozen=True)
class TaskPhase:
    """A task-parallel step: independent tasks of the given sizes.

    For KSP iterations, each task is one deviation's suffix search, and the
    two-level strategy may split a task further across an inner thread
    group (the scheduler handles that).  ``footprints`` is the same
    optional per-task access declaration as on :class:`Phase`.
    """

    tasks: tuple[int, ...]
    label: str = ""
    kind: JobKind = JobKind.TASK
    footprints: tuple = ()

    @property
    def work(self) -> int:
        return sum(self.tasks)


@dataclass
class Workload:
    """An ordered phase list; concatenable with ``+``."""

    phases: list = field(default_factory=list)
    label: str = ""

    def __add__(self, other: "Workload") -> "Workload":
        return Workload(
            phases=self.phases + other.phases,
            label=self.label or other.label,
        )

    @property
    def total_work(self) -> int:
        return sum(p.work for p in self.phases)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def serial_time_units(self) -> int:
        """Time on one worker = total work (no overheads by definition)."""
        return self.total_work


# ----------------------------------------------------------------------
# builders from the library's statistics objects
# ----------------------------------------------------------------------


def pruning_workload(prune_stats) -> Workload:
    """Phases of one K-upper-bound pruning run (§6.1, first row block).

    The two Δ-stepping SSSPs contribute one DATA phase per bucket step
    (their real logged ``phase_work``); the spSum pass and prune scan are
    single DATA phases; the sort is DATA with its n·log n work; the path
    validation is EMBARRASSING (the paper's concurrent hash-table probes).
    """
    phases: list = []
    for w in prune_stats.sssp_phase_work:
        if w > 0:
            phases.append(Phase(JobKind.DATA, w, "sssp-bucket"))
    if not prune_stats.sssp_phase_work and (
        prune_stats.edges_relaxed or prune_stats.vertices_settled
    ):
        # Dijkstra kernel: no bucket structure — inherently serial settles
        phases.append(
            Phase(
                JobKind.SERIAL,
                prune_stats.edges_relaxed + prune_stats.vertices_settled,
                "sssp-serial",
            )
        )
    phases.append(Phase(JobKind.DATA, prune_stats.sum_work, "spsum"))
    phases.append(Phase(JobKind.DATA, prune_stats.sort_work, "sort"))
    if prune_stats.validation_work:
        phases.append(
            Phase(JobKind.EMBARRASSING, prune_stats.validation_work, "validate")
        )
    phases.append(Phase(JobKind.DATA, prune_stats.prune_scan_work, "prune-scan"))
    return Workload(phases=phases, label="k-upper-bound-pruning")


def compaction_workload(compaction_result) -> Workload:
    """One embarrassingly-parallel build phase (§6.1, middle block)."""
    return Workload(
        phases=[
            Phase(
                JobKind.EMBARRASSING,
                compaction_result.build_work,
                f"compact-{compaction_result.strategy}",
            )
        ],
        label="adaptive-graph-compaction",
    )


def ksp_workload(ksp_stats) -> Workload:
    """The KSP stage: one TASK phase per outer iteration (§6.1, last block).

    ``iteration_tasks[i]`` holds the real work of each independent suffix
    search of iteration *i* — these run concurrently in the paper's outer
    level.  ``init_work`` (first SSSP + reverse tree) is a DATA phase: it is
    a parallel Δ-stepping in the paper's design.  Serial per-iteration work
    (pool operations, NC colouring) stays serial.
    """
    phases: list = [Phase(JobKind.DATA, max(ksp_stats.init_work, 1), "ksp-init")]
    for i, tasks in enumerate(ksp_stats.iteration_tasks):
        if tasks:
            phases.append(TaskPhase(tuple(tasks), f"iter-{i}"))
        serial = (
            ksp_stats.iteration_serial[i]
            if i < len(ksp_stats.iteration_serial)
            else 0
        )
        if serial:
            phases.append(Phase(JobKind.SERIAL, serial, f"iter-{i}-serial"))
    return Workload(phases=phases, label="ksp-computation")


def peek_workload(peek_result) -> Workload:
    """The full PeeK pipeline workload from a :class:`PeeKResult`."""
    wl = Workload(label="peek")
    if peek_result.prune is not None:
        wl = wl + pruning_workload(peek_result.prune.stats)
    if peek_result.compaction is not None:
        wl = wl + compaction_workload(peek_result.compaction)
    wl = wl + ksp_workload(peek_result.stats)
    wl.label = "peek"
    return wl


def baseline_ksp_workload(ksp_stats) -> Workload:
    """Workload of a plain baseline run (Yen/NC/OptYen) — KSP phases only."""
    wl = ksp_workload(ksp_stats)
    wl.label = "baseline-ksp"
    return wl

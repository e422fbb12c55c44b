"""Parallel execution model (paper §6).

The paper classifies every PeeK job as data parallel, embarrassingly
parallel, or task parallel (Figure 7) and reports scalability on a 32-thread
shared-memory machine (Figure 9) and a 1,024-core cluster (Figure 10).

This reproduction cannot spin 32 real threads to any effect (pure Python
frontier loops cannot share cores the way compiled OpenMP loops do), so
the parallel claims are reproduced by an **instrumented cost-model
simulator**: the real algorithms run once and log their actual work
decomposition — Δ-stepping bucket phases, compaction chunks, the
per-deviation SSSP task lists of the KSP stage — and a scheduler replays
that structure for any thread count, charging synchronisation and
load-imbalance costs.  Simulated times are anchored to
real measured serial seconds via :func:`repro.parallel.metrics.calibrate`.
See DESIGN.md §1 for the substitution rationale.
"""

from repro.parallel.workload import (
    JobKind,
    Phase,
    TaskPhase,
    Workload,
    pruning_workload,
    compaction_workload,
    ksp_workload,
    peek_workload,
    baseline_ksp_workload,
)
from repro.parallel.scheduler import MachineModel, SimReport, simulate
from repro.parallel.metrics import calibrate, gteps, speedup_curve

__all__ = [
    "JobKind",
    "Phase",
    "TaskPhase",
    "Workload",
    "pruning_workload",
    "compaction_workload",
    "ksp_workload",
    "peek_workload",
    "baseline_ksp_workload",
    "MachineModel",
    "SimReport",
    "simulate",
    "calibrate",
    "gteps",
    "speedup_curve",
]

"""Exception hierarchy for the PeeK reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """A graph file or edge array is malformed (bad shape, dtype, header)."""


class InvalidWeightError(ReproError):
    """An edge weight violates the paper's precondition ``w > 0``.

    PeeK (Definition 1) requires strictly positive weights; Dijkstra,
    Δ-stepping, and the K-upper-bound argument are all unsound otherwise.
    """


class VertexError(ReproError, IndexError):
    """A vertex id is out of range for the graph it was used with."""


class UnreachableTargetError(ReproError):
    """The target vertex is not reachable from the source vertex."""


class KSPError(ReproError):
    """A K-shortest-path query could not be satisfied as requested."""


class KSPTimeout(KSPError):
    """Raised when a pipeline stage exceeds its deadline (the paper's '-').

    Every stage of the PeeK pipeline — the pruning SSSPs, the compaction
    build, and the KSP deviation loop — observes the deadline through the
    cooperative checkpoints in :mod:`repro.cancel`, so a timeout surfaces
    within one checkpoint interval of the budget, never after an unbounded
    stage run.  (Historically exported from :mod:`repro.ksp.base`, which
    still re-exports it.)
    """


class ServerOverloadError(ReproError):
    """The serving layer shed this query: too many queries in flight.

    Raised by :class:`repro.serve.QueryServer` admission control before any
    pipeline work starts; the caller may retry later.
    """


class PartitionError(ReproError):
    """A distributed partition is inconsistent (overlap, gap, bad rank)."""


class CommError(ReproError):
    """Misuse of the simulated MPI communicator (bad rank, tag reuse...)."""


class RankFailure(ReproError):
    """A simulated computing node died mid-job (see ``docs/parallel_model.md``).

    Mirrors how MPI programs actually observe node loss: the failure
    surfaces at the next *collective* the dead rank participates in, not
    at the instant of death.  Raised by
    :class:`~repro.distributed.comm.SimComm` when a
    :class:`~repro.serve.faults.FaultPlan` has killed a rank; caught
    and recovered by :class:`~repro.distributed.supervisor.DistSupervisor`
    (or propagated to the caller when no supervisor is attached).
    """

    def __init__(
        self, rank: int, *, stage: str = "", superstep: int | None = None
    ) -> None:
        where = f" during {stage!r}" if stage else ""
        at = f" (superstep {superstep})" if superstep is not None else ""
        super().__init__(f"rank {rank} failed{where}{at}")
        self.rank = rank
        self.stage = stage
        self.superstep = superstep


class RecoveryExhaustedError(ReproError):
    """The distributed supervisor gave up: too many rank failures.

    Carries the rank whose failure exceeded ``max_recoveries`` and the
    recovery count — the partial-outcome record of an abandoned job.
    """

    def __init__(self, rank: int, recoveries: int, max_recoveries: int) -> None:
        super().__init__(
            f"giving up after {recoveries} recoveries "
            f"(max_recoveries={max_recoveries}): rank {rank} failed again"
        )
        self.rank = rank
        self.recoveries = recoveries
        self.max_recoveries = max_recoveries


class SanitizerError(ReproError):
    """A runtime sanitizer check failed (see :mod:`repro.analysis.sanitize`).

    Raised only when sanitizers are enabled (``repro.solve(...,
    sanitize=True)`` or ``RPR_SANITIZE=1``); carries the structured
    :class:`~repro.analysis.findings.Finding` on ``.finding``.
    """

    def __init__(self, message: str, finding=None) -> None:
        super().__init__(message)
        self.finding = finding

"""Virtual time for load experiments: the clock *is* the work done.

Reproducible load experiments cannot read the wall clock — two runs of
the same seed would time out differently and the metrics tables would
never be byte-identical.  Instead the serving loop runs each query on
a :class:`SimClock`, installed through :func:`repro.cancel.clock_scope`,
and advances it at every cooperative cancellation checkpoint by a
per-stage cost from a :class:`CostModel`.

Checkpoint counts are a deterministic function of the algorithmic work
(settled vertices, bucket phases, scan blocks, deviation iterations), so
simulated service time — and therefore every deadline expiry, every
degradation, every queue wait — is a pure function of (graph, query
stream, cost model).  No wall-clock enters the loop anywhere.

The default cost constants are calibrated so a tiny-suite PeeK query
lands in the low milliseconds of simulated time — the order of a real
PeeK query on a tiny graph — but their *absolute* scale is irrelevant to the experiments: only the
ratios between stages and between service time and arrival rate matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from contextlib import contextmanager

from repro.cancel import clock_scope, fault_scope

__all__ = [
    "SimClock",
    "CostModel",
    "DEFAULT_COSTS",
    "virtual_time",
]


class SimClock:
    """A settable monotonic-per-query virtual clock.

    Implements the zero-argument-callable protocol
    :mod:`repro.cancel` expects from a clock, so ``clock_scope(clock)``
    routes every deadline comparison through it.  The serving loop *jumps*
    the clock to each query's start time (which may move backward
    relative to the previous query's finish — queries overlap in
    simulated time even though they execute one after another in real
    time) and the checkpoint hook advances it as the pipeline works.
    """

    __slots__ = ("_now", "ticks")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: checkpoint-advance count (diagnostics; deterministic)
        self.ticks = 0

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (negative advances are a bug, so rejected)."""
        if seconds < 0:
            raise ValueError("SimClock cannot advance backwards")
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        """What :func:`repro.cancel.sleep` calls while this clock is
        installed (the server's backoff sleeps)."""
        self.advance(max(0.0, seconds))

    def jump_to(self, t: float) -> None:
        """Set absolute time (the serving loop aligning to a query's start)."""
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(t={self._now:.6f}, ticks={self.ticks})"


#: Per-checkpoint simulated cost (seconds) by stage-label prefix.  The
#: checkpoint cadence differs per stage (dijkstra: per 256 settles;
#: delta: per bucket phase; scan: per 1024 inspections; deviation loop:
#: per iteration + per spur search), so these are costs *per visit*, not
#: per unit of work — see docs/load_testing.md for the calibration note.
DEFAULT_COSTS: dict[str, float] = {
    "sssp": 2e-4,
    "prune.scan": 1e-4,
    "prune.masks": 4e-4,
    "compact": 4e-4,
    "serve.attempt": 5e-5,
    "dist": 2e-4,
}


@dataclass(frozen=True)
class CostModel:
    """Stage-label prefix → simulated seconds per checkpoint visit.

    Lookup is longest-dotted-prefix (the same matching rule as
    :class:`~repro.serve.faults.FaultRule`): ``"prune.scan"`` beats
    ``"prune"`` beats the ``default``.  Frozen so a cost model can be a
    run-table cell key.
    """

    costs: tuple[tuple[str, float], ...] = field(
        default_factory=lambda: tuple(sorted(DEFAULT_COSTS.items()))
    )
    #: cost for any stage no prefix matches (e.g. the per-iteration
    #: checkpoints of the deviation loop, labelled by algorithm name)
    default: float = 1e-4

    @staticmethod
    def from_dict(costs: dict[str, float], default: float = 1e-4) -> "CostModel":
        return CostModel(costs=tuple(sorted(costs.items())), default=default)

    def cost(self, stage: str) -> float:
        best_len = -1
        best = self.default
        for prefix, cost in self.costs:
            if stage == prefix or stage.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best_len = len(prefix)
                    best = cost
        return best


class _CheckpointAdvance:
    """The fault hook that turns checkpoints into time: advance, then
    delegate to the wrapped hook (a FaultInjector, usually)."""

    __slots__ = ("clock", "model", "inner")

    def __init__(
        self,
        clock: SimClock,
        model: CostModel,
        inner: Callable[[str], None] | None,
    ) -> None:
        self.clock = clock
        self.model = model
        self.inner = inner

    def __call__(self, stage: str) -> None:
        self.clock.advance(self.model.cost(stage))
        self.clock.ticks += 1
        if self.inner is not None:
            self.inner(stage)


@contextmanager
def virtual_time(
    clock: SimClock,
    model: CostModel | None = None,
    hook: Callable[[str], None] | None = None,
) -> Iterator[SimClock]:
    """Run the block on simulated time.

    Installs ``clock`` as the library clock (deadlines, budgets, server
    timing) *and* a checkpoint hook that advances it by ``model`` costs.
    Installing a hook also flips :func:`repro.cancel.cancellation_active`
    on, so kernels take their in-loop checkpoints even on deadline-less
    queries — otherwise deadline-less work would be free.

    ``hook`` chains an inner fault hook (e.g. a
    :class:`~repro.serve.faults.FaultInjector`) so seeded fault campaigns
    compose with virtual time.
    """
    model = model if model is not None else CostModel()
    with clock_scope(clock), fault_scope(_CheckpointAdvance(clock, model, hook)):
        yield clock

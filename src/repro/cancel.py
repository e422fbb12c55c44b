"""Cooperative cancellation checkpoints for the whole PeeK pipeline.

The paper's Table 3 writes "-" for runs that blow a 1-hour budget, and the
ROADMAP's production north star needs the same property per query: every
stage must observe its deadline, not just the KSP deviation loop.  The
kernels cannot be preempted (they are long NumPy batches and tight scalar
loops), so cancellation is *cooperative*: each stage calls
:func:`checkpoint` at a natural work boundary —

* Δ-stepping: once per bucket phase;
* Dijkstra: once per settle batch (every :data:`SETTLE_CHECK_INTERVAL`
  settled vertices) plus once at kernel entry;
* compiled Dijkstra (:func:`~repro.sssp.dijkstra.dijkstra_tree`, the
  pruning stage's default): the same visits as the loop — once at entry,
  then ``settled // SETTLE_CHECK_INTERVAL`` times right after the SciPy
  call returns, so virtual clocks and fault hooks see an identical
  stream.  SciPy cannot be interrupted, so its wall-clock overshoot is
  one whole SSSP (~15-20 ms on a medium suite graph) rather than one
  settle batch;
* Algorithm 2's spSum scan: once per :data:`SCAN_CHECK_INTERVAL` inspected
  vertices;
* compaction: before the (single vectorised) build;
* the deviation loop: per iteration and per suffix search, as before.

A checkpoint raises :class:`~repro.errors.KSPTimeout` when the deadline —
an absolute ``time.perf_counter()`` value, matching the historical
``KSPAlgorithm`` convention — has passed.  The worst-case overshoot is
therefore one checkpoint interval of work (one compiled SSSP for the
compiled Dijkstra), which is what the deadline tests bound.

Fault injection
---------------
The same checkpoints double as the seams for the deterministic fault
harness (:mod:`repro.serve.faults`): an installed *fault hook* is called
with the stage name at every checkpoint and may raise.  The hook is
process-global (install it around a test, not around concurrent prod
traffic) and ``None`` by default, in which case a checkpoint with no
deadline is a single attribute load.

Virtual time
------------
The time source itself is injectable: :func:`install_clock` /
:func:`clock_scope` swap the ``perf_counter`` every deadline comparison
reads for any zero-argument float callable, and :func:`sleep` (the
server's retry backoff) sleeps on whichever clock is installed.  The
serving loop (:class:`~repro.fabric.fabric.ServingFabric`) installs a
:class:`~repro.load.simclock.SimClock` that *advances at every checkpoint* by a per-stage cost, so deadline
expiry — and therefore degradation, partial results, and shedding —
becomes a deterministic function of work done, reproducible from seeds
alone with no wall-clock in the loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import KSPTimeout

__all__ = [
    "SETTLE_CHECK_INTERVAL",
    "SCAN_CHECK_INTERVAL",
    "checkpoint",
    "cancellation_active",
    "deadline_in",
    "remaining",
    "now",
    "sleep",
    "install_clock",
    "clock_scope",
    "install_fault_hook",
    "fault_scope",
]

#: Dijkstra checks its deadline every this-many settled vertices.  A power
#: of two so the hot loop's test is ``settled & (N-1) == 0``.
SETTLE_CHECK_INTERVAL = 256

#: Algorithm 2's spSum scan checks every this-many inspected vertices.
SCAN_CHECK_INTERVAL = 1024

#: the installed fault hook (``Callable[[str], None] | None``)
_fault_hook: Callable[[str], None] | None = None

#: the installed time source (``time.perf_counter`` unless replaced)
_clock: Callable[[], float] = time.perf_counter


def now() -> float:
    """The current time on the installed clock (wall-clock by default).

    Every deadline comparison in the library reads this, so swapping the
    clock via :func:`install_clock` moves the *whole* cancellation
    machinery — deadlines, budgets, backoff accounting — onto virtual
    time at once.
    """
    return _clock()


def sleep(seconds: float) -> None:
    """Sleep ``seconds`` on the installed clock.

    A clock with a ``sleep`` method (a
    :class:`~repro.load.simclock.SimClock`) advances by ``seconds``, so a
    backoff under virtual time costs simulated time, never wall time;
    the default wall clock calls ``time.sleep``.
    """
    clock_sleep = getattr(_clock, "sleep", None)
    if clock_sleep is not None:
        clock_sleep(seconds)
    else:
        time.sleep(seconds)


def install_clock(
    clock: Callable[[], float] | None,
) -> Callable[[], float]:
    """Install ``clock`` as the time source; returns the previous one.

    ``None`` restores ``time.perf_counter``.  Process-global, like the
    fault hook: install around a harness run, not around concurrent
    production traffic.
    """
    global _clock
    prev = _clock
    _clock = clock if clock is not None else time.perf_counter
    return prev


@contextmanager
def clock_scope(clock: Callable[[], float]) -> Iterator[None]:
    """Install ``clock`` for the duration of the block."""
    prev = install_clock(clock)
    try:
        yield
    finally:
        install_clock(prev)


def checkpoint(deadline: float | None, stage: str) -> None:
    """One cooperative cancellation point.

    Calls the installed fault hook (if any) with ``stage``, then raises
    :class:`~repro.errors.KSPTimeout` when ``deadline`` (an absolute
    value on the installed clock, ``time.perf_counter`` by default) has
    passed.
    """
    hook = _fault_hook
    if hook is not None:
        hook(stage)
    if deadline is not None and _clock() > deadline:
        raise KSPTimeout(f"{stage} exceeded its deadline")


def cancellation_active(deadline: float | None) -> bool:
    """Whether kernels should pay for in-loop checkpoints on this run.

    True when a deadline is set *or* a fault hook is installed — the hook
    must see stage names even on deadline-less runs, or injected faults
    would silently not fire.
    """
    return deadline is not None or _fault_hook is not None


def deadline_in(seconds: float | None) -> float | None:
    """Relative budget (seconds from now) → absolute deadline, or None."""
    if seconds is None:
        return None
    return _clock() + float(seconds)


def remaining(deadline: float | None) -> float:
    """Seconds left until ``deadline`` (``inf`` when none; may be <= 0)."""
    if deadline is None:
        return float("inf")
    return deadline - _clock()


def install_fault_hook(
    hook: Callable[[str], None] | None,
) -> Callable[[str], None] | None:
    """Install ``hook`` as the global fault hook; returns the previous one."""
    global _fault_hook
    prev = _fault_hook
    _fault_hook = hook
    return prev


@contextmanager
def fault_scope(hook: Callable[[str], None]) -> Iterator[None]:
    """Install ``hook`` for the duration of the block (tests, harnesses)."""
    prev = install_fault_hook(hook)
    try:
        yield
    finally:
        install_fault_hook(prev)

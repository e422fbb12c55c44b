"""``QueryServer`` — bounded-latency KSP serving with graceful degradation.

The paper caps benchmark runs at one hour and writes "-" on overrun; a
production KSP service needs the per-query version of that discipline:
a budget every stage observes, and a *defined* answer when the budget (or
a stage) blows up.  The server composes three mechanisms:

1. **Budgets.** Each query's relative ``timeout`` becomes an absolute
   deadline threaded through :meth:`BatchPeeK.prepare` into every stage —
   pruning SSSPs (per bucket / per settle batch), the spSum scan, the
   compaction build, and the deviation loop — via the cooperative
   checkpoints of :mod:`repro.cancel`.

2. **Degradation chain.**  PeeK → plain OptYen → partial results:

   * a timeout (or an ``UnreachableTargetError``-class fault) in PeeK's
     prune/compact stages falls back to plain OptYen on the *original*
     graph under the same deadline — still exact, just slower (Yamane &
     Kitajima's observation that a reduced-graph fallback stays exact,
     inverted: the unreduced graph is always a sound fallback);
   * a timeout inside either KSP enumeration keeps the paths produced so
     far — deviation algorithms yield in non-decreasing distance order,
     so the prefix is exactly the true top-``len(paths)`` list;
   * the outcome (``complete | degraded | partial | failed``) is recorded
     on the :class:`ServeResult` and on the active obs span.

3. **Retry + admission control.**  Transient faults (anything raising
   with a truthy ``transient`` attribute, e.g. the harness'
   :class:`~repro.serve.faults.InjectedFault`) are retried on a fixed
   exponential backoff schedule (:data:`MAX_ATTEMPTS`,
   :data:`BACKOFF_BASE`, :data:`BACKOFF_MULTIPLIER`) while budget
   remains; a bounded in-flight count sheds excess load with
   :class:`~repro.errors.ServerOverloadError` before any pipeline work
   starts.

Constructed over a :class:`~repro.dyn.live.LiveGraph` the server also
serves *live* graphs: :meth:`QueryServer.apply_mutations` applies a
:class:`~repro.dyn.stream.MutationBatch`, swaps in the new snapshot
version, and rebinds the underlying
:class:`~repro.core.batch.BatchPeeK` (cached SSSP trees repaired onto the
new snapshot + certificate-carried prune reuse).  Every :class:`ServeResult` records the
``graph_version`` it was answered against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cancel import checkpoint, deadline_in, now, remaining, sleep
from repro.core.batch import BatchPeeK
from repro.dyn.live import LiveGraph, Snapshot
from repro.errors import (
    KSPTimeout,
    ServerOverloadError,
    UnreachableTargetError,
)
from repro.ksp.base import KSPResult, KSPStats
from repro.ksp.optyen import OptYenKSP
from repro.obs.tracer import get_tracer
from repro.paths import Path
from repro.serve.query import Query, validate_query

__all__ = [
    "COMPLETE",
    "DEGRADED",
    "PARTIAL",
    "FAILED",
    "OUTCOMES",
    "MAX_ATTEMPTS",
    "BACKOFF_BASE",
    "BACKOFF_MULTIPLIER",
    "ServeResult",
    "QueryServer",
]

#: the full pipeline finished inside the budget (fewer than K paths only
#: when the graph has fewer simple paths — that is a complete answer)
COMPLETE = "complete"
#: the OptYen fallback finished: results are exact, PeeK's stages were not
DEGRADED = "degraded"
#: enumeration was cut off mid-run: an exact, sorted prefix of the K list
PARTIAL = "partial"
#: no path could be produced (budget exhausted before the first path, the
#: target is unreachable, or retries ran out)
FAILED = "failed"

OUTCOMES = (COMPLETE, DEGRADED, PARTIAL, FAILED)


#: retry schedule for transient faults: attempt ``i`` (1-based) sleeps
#: ``BACKOFF_BASE * BACKOFF_MULTIPLIER**(i-1)`` before retrying, up to
#: ``MAX_ATTEMPTS`` attempts in all
MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.02
BACKOFF_MULTIPLIER = 2.0


@dataclass
class ServeResult:
    """One served query: paths plus the outcome contract.

    ``paths`` is always a (possibly empty) sorted list of exact shortest
    paths — degraded and partial outcomes never contain approximate or
    unordered entries (the sanitizer smoke test in CI audits this).
    """

    paths: list[Path]
    k_requested: int
    #: one of :data:`OUTCOMES`
    outcome: str
    #: which tier produced the paths: "peek" or "optyen" ("" when none)
    tier: str
    #: total attempts, including the successful one
    attempts: int
    #: seconds spent serving on the installed clock, including backoff sleeps
    elapsed: float
    #: repr of the fault that forced degradation/failure (None when clean)
    error: str | None = None
    #: KSP-stage counters of the tier that produced the paths
    stats: KSPStats = field(default_factory=KSPStats)
    #: the originating request (None only for legacy constructions)
    query: Query | None = None
    #: seconds the request waited before :meth:`QueryServer.serve` started
    #: (supplied by the queueing layer in front of the server; 0 when the
    #: caller dispatched directly)
    queue_time: float = 0.0
    #: seconds inside the degradation chain, on the installed clock —
    #: equal to ``elapsed``; end-to-end latency is ``queue_time +
    #: service_time``
    service_time: float = 0.0
    #: graph snapshot version the query was answered against (0 for
    #: static graphs; see :meth:`QueryServer.apply_mutations`)
    graph_version: int = 0

    @property
    def distances(self) -> list[float]:
        return [p.distance for p in self.paths]

    @property
    def ok(self) -> bool:
        """Whether any exact paths were served (everything but failed)."""
        return self.outcome != FAILED


class _Attempt:
    """Outcome of one degradation-chain walk (internal)."""

    __slots__ = ("paths", "outcome", "tier", "error", "stats")

    def __init__(self, paths, outcome, tier, error, stats):
        self.paths = paths
        self.outcome = outcome
        self.tier = tier
        self.error = error
        self.stats = stats


def _is_transient(exc: BaseException) -> bool:
    return bool(getattr(exc, "transient", False))


class QueryServer:
    """Deadline-aware KSP serving over a shared :class:`BatchPeeK`.

    Parameters
    ----------
    graph:
        The graph every query runs against — either a static
        :class:`~repro.graph.csr.CSRGraph` (historical behaviour,
        bit-for-bit unchanged) or a :class:`~repro.dyn.live.LiveGraph`,
        which enables :meth:`apply_mutations` and serves from the live
        graph's current version.
    default_timeout:
        Per-query budget in seconds when :meth:`serve` is called without
        one (``None`` = unbounded, matching library defaults).
    max_in_flight:
        Admission-control bound; query ``max_in_flight + 1`` is shed with
        :class:`~repro.errors.ServerOverloadError` instead of queueing.
    tier1_budget_fraction:
        Budget splitting: cap tier 1 (the full PeeK pipeline) at this
        fraction of the query's remaining budget, reserving the rest for
        the plain-OptYen fallback.  ``None`` (the default) gives tier 1
        the whole budget — the historical behavior, under which a *real*
        deadline expiry can never produce a ``degraded`` outcome (by the
        time tier 1 times out, tier 2 has no budget left).  With a
        fraction set, tight deadlines degrade instead of failing
        wholesale; see ``docs/serving.md``.
    sanitize:
        Audit every served result with the SAN-PATH battery
        (:func:`repro.analysis.sanitize.check_result_paths`) — including
        degraded and partial ones.  ``None`` defers to ``RPR_SANITIZE``.

    Transient faults are retried on the module's backoff schedule; the
    sleeps go through :func:`repro.cancel.sleep`, so they land on the
    installed clock: wall time by default, the
    :class:`~repro.load.simclock.SimClock` under virtual time.
    """

    def __init__(
        self,
        graph,
        *,
        default_timeout: float | None = None,
        max_in_flight: int = 64,
        tier1_budget_fraction: float | None = None,
        sanitize: bool | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if tier1_budget_fraction is not None and not 0.0 < tier1_budget_fraction <= 1.0:
            raise ValueError("tier1_budget_fraction must be in (0, 1]")
        if isinstance(graph, LiveGraph):
            self.live: LiveGraph | None = graph
            self.graph = graph.graph
        else:
            self.live = None
            self.graph = graph
        self.batch = BatchPeeK(self.graph, sanitize=bool(sanitize))
        if self.live is not None:
            # a replica rebuilt at a checkpoint version answers at it
            self.batch.version = self.live.version
        self.default_timeout = default_timeout
        self.max_in_flight = max_in_flight
        self.tier1_budget_fraction = tier1_budget_fraction
        self._sanitize = sanitize
        self._lock = threading.Lock()
        self._in_flight = 0
        #: outcome name -> count, plus "shed", "retries", and (live
        #: graphs) "mutation_batches"
        self.counters: dict[str, int] = {o: 0 for o in OUTCOMES}
        self.counters["shed"] = 0
        self.counters["retries"] = 0
        self.counters["mutation_batches"] = 0

    # -- live-graph mutations -------------------------------------------
    def apply_mutations(self, batch) -> Snapshot:
        """Apply one :class:`~repro.dyn.stream.MutationBatch`; new snapshot.

        Only valid for servers constructed over a
        :class:`~repro.dyn.live.LiveGraph`.  Under the server's lock (a
        rebind patches repaired trees in place, so call :meth:`serve` and
        this from one thread at a time): applies the batch to
        the live graph, swaps the new snapshot in as ``self.graph``,
        and rebinds the :class:`~repro.core.batch.BatchPeeK` — which
        repairs its cached SSSP trees onto the new snapshot (evicting only
        those a tombstone reaches or that a repair would mostly redo) and
        drops only the memoised pruning decisions the reuse certificate
        cannot carry forward.
        """
        if self.live is None:
            raise ValueError(
                "apply_mutations requires a server built over a LiveGraph; "
                "this server was constructed over a static graph"
            )
        with self._lock:
            snap = self.live.apply(batch)
            self.graph = snap.graph
            self.batch.rebind(snap)
            self.counters["mutation_batches"] += 1
        get_tracer().add("serve.mutation_batches")
        return snap

    # -- admission control ---------------------------------------------
    @property
    def in_flight(self) -> int:
        """Queries currently inside :meth:`serve`."""
        with self._lock:
            return self._in_flight

    def _admit(self) -> None:
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                self.counters["shed"] += 1
                get_tracer().add("serve.shed")
                raise ServerOverloadError(
                    f"{self._in_flight} queries in flight "
                    f"(max_in_flight={self.max_in_flight}); query shed"
                )
            self._in_flight += 1

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # -- the front door -------------------------------------------------
    def serve(
        self,
        query: Query | int,
        target: int | None = None,
        k: int | None = None,
        *,
        timeout: float | None = None,
        queue_time: float = 0.0,
    ) -> ServeResult:
        """Serve one query under a budget; never hangs, never raises on
        timeout.

        Two call forms, same behavior:

        * **request-object** — ``serve(Query(source, target, k,
          timeout=0.1))``; the budget comes from ``Query.timeout``;
        * **legacy** — ``serve(source, target, k, timeout=0.1)``; a
          :class:`Query` is constructed internally, so the two forms are
          provably the same code path.

        ``queue_time`` is descriptive only (recorded on the result for
        latency accounting by queueing layers such as
        :mod:`repro.load`); the budget always runs from serve start.

        Invalid *requests* still raise immediately via
        :func:`~repro.serve.query.validate_query`
        (:class:`~repro.errors.VertexError` for out-of-range ids,
        :class:`~repro.errors.KSPError` for ``source == target``,
        ``ValueError`` for ``k < 1``) — those are caller bugs, not faults
        to degrade around.  Overload raises
        :class:`~repro.errors.ServerOverloadError` before any work.
        Everything else yields a :class:`ServeResult` whose ``outcome``
        states exactly what the paths are.
        """
        if isinstance(query, Query):
            if target is not None or k is not None or timeout is not None:
                raise TypeError(
                    "pass either a Query or (source, target, k, timeout=...), "
                    "not both"
                )
        else:
            if target is None or k is None:
                raise TypeError(
                    "serve() takes a Query or (source, target, k) positionally"
                )
            query = Query(query, target, k, timeout=timeout)
        validate_query(self.graph, query)
        self._admit()
        try:
            return self._serve(query, queue_time)
        finally:
            self._release()

    def _serve(self, query: Query, queue_time: float) -> ServeResult:
        timeout = query.timeout
        if timeout is None:
            timeout = self.default_timeout
        deadline = deadline_in(timeout)
        tracer = get_tracer()
        version = self.batch.version  # snapshot the query is answered on
        t0 = now()
        with tracer.span(
            "serve.query", source=query.source, target=query.target, k=query.k
        ) as span:
            attempts = 0
            while True:
                attempts += 1
                try:
                    att = self._attempt(
                        query.source, query.target, query.k, deadline
                    )
                    break
                except Exception as exc:  # noqa: BLE001 - classified below
                    if not _is_transient(exc):
                        # the caller logs this query failed: count it here too
                        self.counters[FAILED] += 1
                        raise
                    backoff = BACKOFF_BASE * BACKOFF_MULTIPLIER ** (attempts - 1)
                    if attempts >= MAX_ATTEMPTS or remaining(deadline) <= backoff:
                        att = _Attempt([], FAILED, "", exc, KSPStats())
                        break
                    self.counters["retries"] += 1
                    tracer.add("serve.retries")
                    sleep(backoff)
            elapsed = now() - t0
            result = ServeResult(
                paths=att.paths,
                k_requested=query.k,
                outcome=att.outcome,
                tier=att.tier,
                attempts=attempts,
                elapsed=elapsed,
                error=repr(att.error) if att.error is not None else None,
                stats=att.stats,
                query=query,
                queue_time=queue_time,
                service_time=elapsed,
                graph_version=version,
            )
            self._maybe_sanitize(result, query.source, query.target)
            self.counters[att.outcome] += 1
            if span.enabled:
                span.attrs["outcome"] = att.outcome
                span.attrs["tier"] = att.tier
                span.attrs["attempts"] = attempts
                span.attrs["graph_version"] = version
                tracer.add(f"serve.outcome.{att.outcome}")
        return result

    # -- the degradation chain ------------------------------------------
    def _tier1_deadline(self, deadline):
        """Where tier 1's budget ends (the full deadline unless split)."""
        fraction = self.tier1_budget_fraction
        if fraction is None or deadline is None:
            return deadline
        return min(deadline, now() + remaining(deadline) * fraction)

    def _attempt(self, source, target, k, deadline) -> _Attempt:
        """One walk down PeeK → plain OptYen → partial."""
        # --- tier 1: the full batched PeeK pipeline ---
        stage_error: BaseException
        tier1_deadline = self._tier1_deadline(deadline)
        split = tier1_deadline is not None and tier1_deadline != deadline
        tier1_partial: list[Path] = []
        tier1_stats = KSPStats()
        try:
            checkpoint(tier1_deadline, "serve.attempt")
            prep = self.batch.prepare(
                source, target, k, deadline=tier1_deadline
            )
            paths, cut = self._enumerate(prep.inner, k, prep.map_paths)
            if not cut:
                return _Attempt(paths, COMPLETE, "peek", None, prep.inner.stats)
            if paths and not split:
                return _Attempt(
                    paths, PARTIAL, "peek", cut, prep.inner.stats
                )
            # With a budget split, a tier-1 cut still leaves real budget:
            # keep the prefix as a floor and let tier 2 try to beat it.
            tier1_partial = paths
            tier1_stats = prep.inner.stats
            stage_error = cut
        except KSPTimeout as exc:
            stage_error = exc  # prune or compact blew the (tier-1) budget
        except UnreachableTargetError as exc:
            stage_error = exc  # possibly a stage fault; tier 2 decides

        # --- tier 2: plain OptYen on the original, unpruned graph ---
        get_tracer().add("serve.degraded_attempts")
        try:
            fallback = OptYenKSP(self.graph, source, target, deadline=deadline)
            paths, cut = self._enumerate(fallback, k, None)
            if not cut:
                return _Attempt(
                    paths, DEGRADED, "optyen", stage_error, fallback.stats
                )
            # Both tiers were cut: the prefixes are both exact leading
            # segments of the same true list, so the longer one wins.
            if len(tier1_partial) > len(paths):
                return _Attempt(
                    tier1_partial, PARTIAL, "peek", stage_error, tier1_stats
                )
            if paths:
                return _Attempt(paths, PARTIAL, "optyen", cut, fallback.stats)
            return _Attempt([], FAILED, "", cut, fallback.stats)
        except UnreachableTargetError as exc:
            # Confirmed by the unpruned graph: genuinely no s→t path.
            return _Attempt([], FAILED, "", exc, KSPStats())
        except KSPTimeout as exc:
            if tier1_partial:
                return _Attempt(
                    tier1_partial, PARTIAL, "peek", stage_error, tier1_stats
                )
            return _Attempt([], FAILED, "", exc, KSPStats())

    @staticmethod
    def _enumerate(solver, k, map_paths):
        """Drive ``solver.iter_paths`` collecting up to ``k`` paths.

        Returns ``(paths, cut)`` where ``cut`` is the ``KSPTimeout`` that
        interrupted enumeration, or ``None`` when it ran to completion
        (K paths or exhaustion).  Paths collected before the cut are kept:
        deviation enumeration yields in sorted order, so they are the
        exact top-``len(paths)``.
        """
        paths: list[Path] = []
        tracer = get_tracer()
        with tracer.span("ksp", algorithm=solver.name, k=k) as span:
            try:
                for path in solver.iter_paths():
                    paths.append(path)
                    if len(paths) == k:
                        break
            except KSPTimeout as exc:
                if map_paths is not None:
                    paths = map_paths(paths)
                return paths, exc
            finally:
                if span.enabled:
                    solver._emit_obs(span)
        if map_paths is not None:
            paths = map_paths(paths)
        return paths, None

    def _maybe_sanitize(self, result: ServeResult, source, target) -> None:
        sanitize = self._sanitize
        if sanitize is None:
            from repro.analysis.sanitize import sanitize_enabled_from_env

            sanitize = sanitize_enabled_from_env()
        if not sanitize or not result.paths:
            return
        from repro.analysis.sanitize import check_result_paths

        audit = KSPResult(paths=result.paths, k_requested=result.k_requested)
        check_result_paths(self.graph, audit, source, target)

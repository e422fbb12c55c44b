"""The records of a serving run: per-query logs and the ledger.

The discrete-event loop itself is :class:`~repro.fabric.fabric.
ServingFabric`, a fleet of one or more replicas, and its run report is
:class:`~repro.fabric.fabric.FabricReport`; this module holds the parts
both the loop and the benchmarks read: :class:`QueryLog` per request,
the unified :func:`disposition_summary` ledger, the nearest-rank
:func:`percentile`, and the seed-stream offsets of the seeding contract
(docs/load_testing.md).  It imports nothing of the fabric, so
``repro.load`` stays light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.serve.server import OUTCOMES

__all__ = [
    "SHED",
    "EXPIRED",
    "DISPOSITIONS",
    "QueryLog",
    "percentile",
    "disposition_summary",
]

#: loop-level dispositions, beyond the server's four outcomes
SHED = "shed"  #: no worker and no queue room at arrival
EXPIRED = "expired"  #: budget ran out while waiting in the queue

DISPOSITIONS = OUTCOMES + (SHED, EXPIRED)

#: the mix RNG is decorrelated from the arrival RNG by this offset so one
#: cell seed drives both streams (see docs/load_testing.md)
MIX_STREAM_OFFSET = 0x9E3779B9
THINK_STREAM_OFFSET = 0x6A09E667


def percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (inclusive), ``None`` on empty input.

    Nearest-rank rather than interpolated: every reported quantile is a
    latency that actually happened, and the arithmetic is exact — no
    float blending to vary across BLAS builds.
    """
    if not sorted_values:
        return None
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, -(-int(q * len(sorted_values)) // 100))  # ceil without floats
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class QueryLog:
    """One request's journey through the serving loop, in simulated seconds."""

    request_id: str
    source: int
    target: int
    k: int
    issued_at: float
    #: a server outcome, or :data:`SHED` / :data:`EXPIRED`
    disposition: str
    tier: str = ""
    queue_time: float = 0.0
    service_time: float = 0.0
    #: issue → response (queue + service); 0 for shed/expired
    latency: float = 0.0
    attempts: int = 0
    paths: int = 0
    #: replica that took the query (-1 = shed before reaching one)
    replica: int = -1
    #: hedged re-dispatches after a replica died mid-flight
    hedges: int = 0
    #: graph version the answer was computed on (0 = static graph or no
    #: answer)
    graph_version: int = 0
    #: repr of the fault behind a degraded or failed answer
    error: str | None = None

    @property
    def served(self) -> bool:
        return self.disposition in OUTCOMES


def disposition_summary(
    logs: Iterable[QueryLog], server_counters: dict | None = None
) -> dict:
    """The unified SLO ledger: every request accounted for, in one place.

    Counts every :data:`DISPOSITIONS` member over ``logs`` (zero-filled,
    so the schema is stable across runs), plus:

    ``issued``
        total requests;
    ``answered``
        requests that got *some* response — ``complete`` + ``degraded``
        + ``partial`` (``failed`` responses carry no paths, so they do
        not count as answered);
    ``availability``
        ``answered / issued`` (1.0 on an empty run — an idle service is
        up);
    ``hedged``
        requests that needed at least one hedged re-dispatch.

    ``server_counters`` merges a server's own counter dict (e.g.
    :attr:`QueryServer.counters <repro.serve.server.QueryServer.counters>`):
    queries shed *inside* the server by admission control raise
    ``ServerOverloadError`` and bump its ``"shed"`` counter without ever
    producing a loop log entry, so they would otherwise vanish from
    the SLO accounting.  The run-table rows of
    :mod:`benchmarks.bench_serving` and the fabric SLO rows both come
    from this summary.
    """
    counts = {d: 0 for d in DISPOSITIONS}
    issued = 0
    hedged = 0
    for log in logs:
        issued += 1
        counts[log.disposition] += 1
        if log.hedges:
            hedged += 1
    if server_counters:
        extra_shed = int(server_counters.get("shed", 0))
        counts[SHED] += extra_shed
        issued += extra_shed
    answered = counts["complete"] + counts["degraded"] + counts["partial"]
    out = dict(counts)
    out["issued"] = issued
    out["answered"] = answered
    out["availability"] = round(answered / issued, 6) if issued else 1.0
    out["hedged"] = hedged
    return out

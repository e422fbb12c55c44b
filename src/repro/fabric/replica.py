"""One fabric replica: a ``QueryServer`` plus its serving-state machine.

A *replica* is the unit of serving failure — it owns one full graph copy
(every shard; the tiny-suite graphs fit in memory, so sharding buys
cache affinity and mutation routing rather than capacity), one
:class:`~repro.serve.QueryServer`, and the per-replica station
bookkeeping the router's bounded-load rule consults.  The fabric lays
replica ``i`` onto rank ``i`` of its own
:class:`~repro.distributed.comm.SimComm`, so a fault rule's ``@R<N>``
is the fleet's spelling of ``@RANK`` (see ``docs/parallel_model.md``).

States::

    standby ──scale up──▶ recovering ──ready──▶ active
       ▲                                          │  ▲
       │  drained                        scale    │  │   restore +
       └───────────── draining ◀──down────┘  kill │  │   replay done
                                                  ▼  │
                                                 dead

Only ``active`` replicas take new placements; ``draining`` finishes its
in-flight queries; ``dead`` replicas had their in-flight hedged away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.serve.query import Query
from repro.serve.server import QueryServer, ServeResult

__all__ = ["ACTIVE", "DRAINING", "DEAD", "RECOVERING", "STANDBY",
           "REPLICA_STATES", "Flight", "Replica"]

ACTIVE = "active"
DRAINING = "draining"
DEAD = "dead"
RECOVERING = "recovering"
STANDBY = "standby"

REPLICA_STATES = (ACTIVE, DRAINING, DEAD, RECOVERING, STANDBY)


@dataclass
class Flight:
    """One in-flight query on one replica.

    The simulation serves eagerly (the result is computed at dispatch),
    but the *response instant* is ``finish`` — a kill observed before
    ``finish`` means the client never saw this result, so it is discarded
    and the query hedged to a survivor.
    """

    query: Query
    replica: int
    issued_at: float
    start: float
    finish: float
    result: ServeResult
    hedges: int = 0


class Replica:
    """Station bookkeeping + state machine around one ``QueryServer``."""

    def __init__(
        self,
        replica_id: int,
        server: QueryServer | None,
        *,
        queue_depth: int = 0,
        state: str = STANDBY,
    ) -> None:
        if state not in REPLICA_STATES:
            raise ValueError(f"unknown replica state {state!r}")
        self.id = replica_id
        self.server = server
        self.queue_depth = queue_depth
        self.state = state
        self.workers = server.max_in_flight if server is not None else 0
        #: next-free instant per worker slot (a heap)
        self.worker_free: list[float] = [0.0] * self.workers
        #: in-flight queries keyed by request id
        self.inflight: dict[str, Flight] = {}
        #: completion instants of in-flight queries (a heap of
        #: (finish, request_id) so pruning stays deterministic)
        self._outstanding: list[tuple[float, str]] = []
        #: committed (client-visible) responses across the replica's life
        self.served = 0

    # -- capacity -------------------------------------------------------
    @property
    def slots(self) -> int:
        """Hard capacity: workers plus wait-queue depth."""
        return self.workers + self.queue_depth

    @property
    def routable(self) -> bool:
        return self.state == ACTIVE and self.server is not None

    def commit_until(self, t: float) -> list[Flight]:
        """Retire flights whose response instant has passed; returns them."""
        done: list[Flight] = []
        while self._outstanding and self._outstanding[0][0] <= t:
            _, rid = heapq.heappop(self._outstanding)
            flight = self.inflight.pop(rid, None)
            if flight is not None:
                done.append(flight)
                self.served += 1
        return done

    def load_at(self, t: float) -> int:
        """In-flight count at ``t`` (the bounded-load rule's input)."""
        self.commit_until(t)
        return len(self.inflight)

    def next_start(self, t: float) -> float:
        """Earliest instant a worker slot frees for an arrival at ``t``."""
        return max(t, self.worker_free[0]) if self.worker_free else t

    def occupy(self, flight: Flight) -> None:
        """Record a dispatched flight (caller already ran the server)."""
        heapq.heapreplace(self.worker_free, flight.finish)
        heapq.heappush(self._outstanding, (flight.finish, flight.query.request_id))
        self.inflight[flight.query.request_id] = flight

    # -- lifecycle ------------------------------------------------------
    def lose_inflight(self) -> list[Flight]:
        """Take every uncommitted flight (the kill path); empties the set.

        Returned in request-id order so the hedging loop is deterministic.
        """
        lost = [self.inflight[rid] for rid in sorted(self.inflight)]
        self.inflight.clear()
        self._outstanding.clear()
        return lost

    def reset(self, server: QueryServer, *, at: float, state: str = ACTIVE) -> None:
        """Mount a (re)built server: fresh slots, all free at ``at``."""
        self.server = server
        self.workers = server.max_in_flight
        self.worker_free = [float(at)] * self.workers
        self.inflight.clear()
        self._outstanding.clear()
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Replica(id={self.id}, state={self.state}, "
            f"inflight={len(self.inflight)})"
        )

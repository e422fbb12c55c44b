"""``ServingFabric`` — the one discrete-event serving loop.

Every simulated serving run goes through this loop: a run-table cell, a
``peek-load smoke``, a ``peek-load replay``, a replicated fleet under
seeded kills.  One run interleaves five event streams on a single
simulated timeline, in a fixed priority order at equal instants
(recoveries → heartbeats → mutations → query arrivals):

* **queries** — open-loop arrivals, a replayed trace, or a closed-loop
  user population, routed by shard through the bounded-load
  consistent-hash :class:`~repro.fabric.router.Router` and served
  *eagerly* on the shared :class:`~repro.load.simclock.SimClock`: the
  clock jumps to the query's start instant, the real pipeline advances
  it per checkpoint, and the completion becomes a flight on the
  replica's worker slots.  A closed-loop user wakes one think time after
  its query's *final* response: a hedge moves it, and a shed or expired
  query wakes the user at the instant that disposition was decided;
* **heartbeats** — every :data:`HEARTBEAT_INTERVAL` simulated seconds the
  fabric's :class:`~repro.distributed.comm.SimComm` runs a barrier
  (stage ``fabric.heartbeat``); a seeded
  :class:`~repro.serve.faults.FaultPlan` kill surfaces here as
  :class:`~repro.errors.RankFailure`, exactly like the distributed
  solvers observe node loss (the same plan fires its stage faults at
  the replicas' pipeline checkpoints);
* **kills** — the dead replica is drained: responses already delivered
  stand, uncommitted flights are *hedged* — re-dispatched to a
  surviving replica under the query's original deadline (wait burns
  budget, so a hedge can still expire honestly);
* **recoveries** — :class:`~repro.fabric.supervisor.FabricSupervisor`
  restores the shard snapshots from the CRC-checked store, the replica
  replays the mutation batches it missed, its rebuilt state is verified
  byte-equal to the authority, and it rejoins the ring (time-to-recovery
  is deterministic: restore latency + bytes + per-batch replay);
* **mutations** — each :class:`~repro.dyn.stream.MutationBatch` is
  applied to the authoritative :class:`~repro.dyn.live.LiveGraph` and
  broadcast (stage ``fabric.mutate``) to every serving replica holding a
  touched shard — under full replication that is every ``active`` /
  ``draining`` replica; dead or recovering replicas catch up from the
  batch log during recovery.

One way to build the loop: ``ServingFabric(graph, ...)`` is a fleet of
``config.server.replicas`` replicas, each server built by
:meth:`ServerConfig.build <repro.load.runner.ServerConfig.build>` over
its own copy of the authority's ``LiveGraph``.  A single server — a
run-table cell's G/G/c/K station, a ``peek-load smoke``, a ``peek-load
replay`` — is a one-replica fleet: its answers equal those of a server
over the static graph, since every ``BatchPeeK`` memoises its pruning
decisions whether or not the graph ever changes, and its heartbeats
only add availability columns and ``comm.*``/``dist.*``/``fabric.*``
counters.

Everything downstream of the seeds is deterministic, so a report —
availability, latency percentiles under failure, disposition counts,
time-to-recovery per kill — is reproducible byte-for-byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from random import Random
from typing import Any, Iterable

import numpy as np

from repro.distributed.comm import CommModel, SimComm
from repro.dyn.live import LiveGraph
from repro.errors import RankFailure, SanitizerError
from repro.fabric.elastic import SCALE_DELAY, ElasticEvent, ElasticPolicy
from repro.fabric.replica import (
    ACTIVE,
    DEAD,
    DRAINING,
    RECOVERING,
    STANDBY,
    Flight,
    Replica,
)
from repro.fabric.ring import HashRing
from repro.fabric.router import Router, ShardMap
from repro.fabric.supervisor import FabricSupervisor
from repro.load.arrivals import ArrivalProcess, ClosedLoop
from repro.load.harness import (
    DISPOSITIONS,
    EXPIRED,
    MIX_STREAM_OFFSET,
    SHED,
    THINK_STREAM_OFFSET,
    QueryLog,
    disposition_summary,
    percentile,
)
from repro.load.runner import ServerConfig
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.load.trace import open_loop_queries
from repro.obs.tracer import get_tracer
from repro.serve.faults import FaultPlan, InjectedFault
from repro.serve.query import Query
from repro.serve.server import FAILED, QueryServer, ServeResult

__all__ = [
    "FLEET_SERVER",
    "SHARDS",
    "HEARTBEAT_INTERVAL",
    "CHECKPOINT_EVERY",
    "MAX_HEDGES",
    "RECOVERY_LATENCY",
    "RECOVERY_SECONDS_PER_BYTE",
    "REPLAY_SECONDS_PER_BATCH",
    "RECOVERY_BUDGET_HEARTBEATS",
    "FabricConfig",
    "KillRecord",
    "FabricReport",
    "ServingFabric",
    "report_row",
    "slo_text",
]


#: the fleet's default replica recipe: 3 replicas at t=0, a 0.5 s client
#: budget, 4 worker slots and a 4-deep wait queue each
FLEET_SERVER = ServerConfig(name="fleet", timeout=0.5, queue_depth=4, replicas=3)

#: shard count (vertex ranges of the RowPartition)
SHARDS = 8
#: simulated seconds between health heartbeats
HEARTBEAT_INTERVAL = 0.02
#: coordinated authority checkpoints every N heartbeats
CHECKPOINT_EVERY = 5
#: maximum hedged re-dispatches per query
MAX_HEDGES = 2
#: time-to-recovery = RECOVERY_LATENCY + checkpoint bytes ·
#: RECOVERY_SECONDS_PER_BYTE + missed batches · REPLAY_SECONDS_PER_BATCH
RECOVERY_LATENCY = 0.01
RECOVERY_SECONDS_PER_BYTE = 1e-9
REPLAY_SECONDS_PER_BATCH = 1e-4
#: SLO: a kill must be recovered within this many heartbeats
RECOVERY_BUDGET_HEARTBEATS = 10


@dataclass(frozen=True)
class FabricConfig:
    """Everything one fabric needs besides the graph and the traffic:
    the replica recipe plus the fleet-only settings (the fleet's fixed
    cadences and recovery model are the module constants above)."""

    #: how every replica is built, and how many serve at t=0 (``replicas``)
    server: ServerConfig = FLEET_SERVER
    #: provisioned replica slots (ring membership; extras start standby)
    max_replicas: int | None = None
    #: scaling policy (None = fixed fleet)
    elastic: ElasticPolicy | None = None
    seed: int = 0


@dataclass
class KillRecord:
    """One replica kill and its recovery, for the report."""

    replica: int
    at: float
    stage: str
    in_flight_lost: int
    recovered_at: float | None = None
    ttr: float | None = None
    missed_batches: int = 0
    checkpoint_version: int = 0
    within_budget: bool | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "replica": self.replica,
            "at": round(self.at, 6),
            "stage": self.stage,
            "in_flight_lost": self.in_flight_lost,
            "recovered_at": round(self.recovered_at, 6)
            if self.recovered_at is not None
            else None,
            "ttr": round(self.ttr, 6) if self.ttr is not None else None,
            "missed_batches": self.missed_batches,
            "checkpoint_version": self.checkpoint_version,
            "within_budget": self.within_budget,
        }


@dataclass
class FabricReport:
    """Everything one run of the loop produced."""

    logs: list[QueryLog]
    horizon: float
    #: most served queries in the system at once (counted at arrivals,
    #: where the count rises)
    peak_in_flight: int = 0
    #: checkpoint ticks the clock advanced through (work proxy)
    clock_ticks: int = 0
    #: mutation batches applied from the run's mutation feed
    mutation_batches: int = 0
    #: merged per-outcome counters of every server the run built
    server_counters: dict[str, int] = field(default_factory=dict)
    kills: list[KillRecord] = field(default_factory=list)
    elastic_events: list[ElasticEvent] = field(default_factory=list)
    heartbeats: int = 0
    spills: int = 0
    router_rejected: int = 0
    #: final replica states, id-ordered
    replica_states: dict[int, str] = field(default_factory=dict)
    #: BSP accounting of the fleet's communicator
    dist: dict[str, float] = field(default_factory=dict)
    #: request_id -> ((vertices, distance), ...) when ``keep_results``
    results: dict[str, tuple] | None = None

    def count(self, disposition: str) -> int:
        return sum(1 for log in self.logs if log.disposition == disposition)

    def dispositions(self, server_counters: dict | None = None) -> dict:
        """Unified disposition ledger — see
        :func:`~repro.load.harness.disposition_summary`; merges
        ``server_counters`` (default: the run's own)."""
        return disposition_summary(
            self.logs,
            self.server_counters if server_counters is None else server_counters,
        )

    def recovery_window_dispositions(self) -> dict[str, int]:
        """Disposition counts of queries issued while a replica was down."""
        windows = [
            (k.at, k.recovered_at if k.recovered_at is not None else self.horizon)
            for k in self.kills
        ]
        counts: dict[str, int] = {}
        for log in self.logs:
            if any(lo <= log.issued_at <= hi for lo, hi in windows):
                counts[log.disposition] = counts.get(log.disposition, 0) + 1
        return dict(sorted(counts.items()))

    def metrics(self) -> dict[str, Any]:
        """The aggregate table one run reports: load, then availability
        and recovery.

        Latency percentiles are over *served* queries (shed and expired
        requests never got a response; their rates are reported
        separately so they cannot hide in a truncated latency
        distribution).  All values are exact functions of the seeds.
        """
        logs = self.logs
        issued = len(logs)
        counts = {d: 0 for d in DISPOSITIONS}
        for log in logs:
            counts[log.disposition] += 1
        served = [log for log in logs if log.served]
        latencies = sorted(log.latency for log in served)
        queue_times = sorted(log.queue_time for log in served)
        horizon = self.horizon
        out: dict[str, Any] = {
            "queries": issued,
            "served": len(served),
            "horizon": round(horizon, 6),
            "throughput_qps": round(len(served) / horizon, 6) if horizon > 0 else 0.0,
            "goodput_qps": round(counts["complete"] / horizon, 6)
            if horizon > 0
            else 0.0,
            "latency_p50": _round(percentile(latencies, 50)),
            "latency_p99": _round(percentile(latencies, 99)),
            "latency_p999": _round(percentile(latencies, 99.9)),
            "queue_p50": _round(percentile(queue_times, 50)),
            "queue_p99": _round(percentile(queue_times, 99)),
            "peak_in_flight": self.peak_in_flight,
            "mutation_batches": self.mutation_batches,
        }
        for disposition in DISPOSITIONS:
            out[f"{disposition}_rate"] = (
                round(counts[disposition] / issued, 6) if issued else 0.0
            )
        summary = self.dispositions()
        ttrs = [k.ttr for k in self.kills if k.ttr is not None]
        out.update(
            {
                "availability": summary["availability"],
                "answered": summary["answered"],
                "hedged": summary["hedged"],
                "kills": len(self.kills),
                "ttr_max": round(max(ttrs), 6) if ttrs else None,
                "ttr_mean": round(sum(ttrs) / len(ttrs), 6) if ttrs else None,
                "recovery_within_budget": all(
                    k.within_budget for k in self.kills
                ),
                "heartbeats": self.heartbeats,
                "spills": self.spills,
                "router_rejected": self.router_rejected,
                "elastic_events": len(self.elastic_events),
            }
        )
        return out


def _round(value: float | None) -> float | None:
    return round(value, 6) if value is not None else None


class _Feed:
    """Lazy, time-ordered mutation feed.

    The next batch is pulled from the stream only after the previous one
    was applied to the authority, so generators that sample the *current* graph state
    (:meth:`~repro.dyn.stream.IncidentStream.batches`) see exactly the
    state their batch applies to.
    """

    def __init__(self, batches) -> None:
        self._it = iter(batches) if batches is not None else iter(())
        self._next = next(self._it, None)

    def peek(self) -> float | None:
        return self._next.at if self._next is not None else None

    def pop_apply(self, apply) -> None:
        apply(self._next)
        self._next = next(self._it, None)


class _Users:
    """A closed-loop population: one pending wake-up per user.

    Initial wake-ups are spread uniformly over one mean think time, and each
    think time is drawn at dispatch, in dispatch order, from the think
    stream.  The heap holds one live entry per user (a moved wake-up
    leaves a stale entry behind, skipped on the way out), which keeps
    in-flight <= population by construction even for a million users.
    """

    def __init__(self, population: ClosedLoop, seed: int) -> None:
        self._rng = Random(seed + THINK_STREAM_OFFSET)
        self._rate = 1.0 / population.think_mean
        self._wake = [
            self._rng.random() * population.think_mean
            for _ in range(population.users)
        ]
        self._heap = [(t, user) for user, t in enumerate(self._wake)]
        heapq.heapify(self._heap)
        #: request_id -> (user, think time) of every issued query
        self._issued: dict[str, tuple[int, float]] = {}

    def peek(self) -> float:
        """The earliest live wake-up instant."""
        heap = self._heap
        while heap and self._wake[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)  # stale: a hedge moved this user's wake-up
        return heap[0][0] if heap else float("inf")

    def pop(self) -> int:
        """Take the user behind :meth:`peek`'s wake-up."""
        self.peek()
        return heapq.heappop(self._heap)[1]

    def issue(self, user: int, log: QueryLog) -> None:
        """Draw the think time of ``user``'s new query and schedule the
        wake-up after its response."""
        think = self._rng.expovariate(self._rate)
        self._issued[log.request_id] = (user, think)
        self._schedule(user, log, log.issued_at, think)

    def move(self, log: QueryLog, at: float) -> None:
        """Re-anchor the wake-up on a hedged query's new final log,
        decided at ``at``."""
        user, think = self._issued[log.request_id]
        self._schedule(user, log, at, think)

    def _schedule(self, user: int, log: QueryLog, at: float, think: float) -> None:
        response = log.issued_at + log.latency if log.served else at
        self._wake[user] = response + think
        heapq.heappush(self._heap, (response + think, user))


class ServingFabric:
    """N replicas, one router, one supervisor, one timeline.

    Parameters
    ----------
    graph:
        The initial graph (a static CSR; the fabric owns the
        authoritative :class:`~repro.dyn.live.LiveGraph` built over it,
        :attr:`authority`, and every replica serves its own copy).
    mix:
        Query-content sampler for generated traffic (optional when every
        run replays a trace).
    config:
        The :class:`FabricConfig`: the replica recipe
        (``config.server``: ``max_in_flight`` worker slots and a FIFO
        wait queue of ``queue_depth`` requests per replica, 0 = shed on
        busy; ``timeout`` is each query's budget in simulated seconds,
        anchored at its *arrival*, so queue wait burns it) plus the
        fleet-only settings.  ``config.seed`` drives arrival times, query
        content and think times (docs/load_testing.md, "The seeding
        contract").
    cost_model:
        Per-checkpoint simulated costs (default :class:`CostModel`).
    fault_plan:
        Seeded :class:`~repro.serve.faults.FaultPlan`: its ``rankfail``
        rules kill replicas at the fabric's collectives (replica ``i`` is
        rank ``i``, so ``@R<N>`` and ``@N`` name the same replica), its
        other rules fire at every replica's pipeline checkpoints.
    """

    def __init__(
        self,
        graph,
        mix=None,
        *,
        config: FabricConfig | None = None,
        cost_model: CostModel | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        cfg = config if config is not None else FabricConfig()
        initial = cfg.server.replicas
        if initial < 1:
            raise ValueError("need at least one replica")
        provisioned = cfg.max_replicas if cfg.max_replicas is not None else initial
        if provisioned < initial:
            raise ValueError("max_replicas must cover the initial replicas")
        if cfg.server.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.config = cfg
        self.mix = mix
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.fault_plan = fault_plan
        self.replicas: dict[int, Replica] = {}
        #: (version_after, batch) per applied batch — the recovery replay log
        self._batch_log: list[tuple[int, Any]] = []
        #: pending timed events: (at, seq, kind, replica_id, kill_record)
        self._pending: list[tuple[float, int, str, int, KillRecord | None]] = []
        self._seq = 0
        self._known_dead: set[int] = set()
        self._ticks_done = 0
        self._mutations_applied = 0
        self.kills: list[KillRecord] = []
        self.elastic_events: list[ElasticEvent] = []
        self._logs: dict[str, QueryLog] = {}
        self._results: dict[str, tuple] | None = None
        self._users: _Users | None = None
        self._peak = 0
        self._clock = SimClock()
        self.authority = LiveGraph(graph)
        self.shard_map = ShardMap(graph, SHARDS)
        self.comm = SimComm(
            provisioned,
            CommModel().scaled_for(graph.num_edges),
            fault_plan=fault_plan,
        )
        self.supervisor = FabricSupervisor(self.comm, self.shard_map)
        depth = cfg.server.queue_depth
        snap = self.authority.snapshot()
        alive = self.authority.alive
        for rid in range(provisioned):
            if rid < initial:
                server = self._replica_server(snap.graph, alive, snap.version)
                self.replicas[rid] = Replica(
                    rid, server, queue_depth=depth, state=ACTIVE
                )
            else:
                self.replicas[rid] = Replica(
                    rid, None, queue_depth=depth, state=STANDBY
                )
        self.router = Router(HashRing(range(provisioned)), self.replicas)

    # -- construction helpers -------------------------------------------
    def _replica_server(self, csr, alive, version: int) -> QueryServer:
        """A replica's server over its own live graph rebuilt from
        ``(csr, alive, version)``: the authority's state for a t=0 or
        scale-up replica, a restored checkpoint for a recovered one."""
        recipe: ServerConfig = self.config.server
        return recipe.build(LiveGraph(csr, alive=alive, version=version))

    # -- the run --------------------------------------------------------
    def run(
        self,
        traffic: ArrivalProcess | ClosedLoop | Iterable[Query],
        *,
        horizon: float,
        max_queries: int | None = None,
        mutations=None,
        keep_results: bool = False,
    ) -> FabricReport:
        """Run one experiment; see the module docstring.

        ``traffic`` is an open-loop arrival process, a closed-loop
        population, or a query trace (unique request ids).
        ``mutations`` is an optional time-ordered iterable of
        :class:`~repro.dyn.stream.MutationBatch`; each batch is applied
        before dispatching any query issued at or after its ``at``
        instant.  The timeline runs out to ``horizon``, so kills near
        the end still record their recovery.
        """
        self._results = {} if keep_results else None
        feed = _Feed(mutations)
        with virtual_time(self._clock, self.cost_model, hook=self.fault_plan):
            # t=0 coordinated checkpoint: recovery always has a base
            self.supervisor.save_shards(self.authority)
            if isinstance(traffic, ClosedLoop):
                self._run_closed(traffic, horizon, max_queries, feed)
            else:
                if isinstance(traffic, ArrivalProcess):
                    queries = open_loop_queries(
                        traffic,
                        self.mix,
                        horizon=horizon,
                        seed=self.config.seed,
                        timeout=self.config.server.timeout,
                        max_queries=max_queries,
                    )
                else:
                    queries = islice(traffic, max_queries)
                for q in queries:
                    self._advance_to(q.issued_at, feed)
                    self._dispatch(q)
            self._advance_to(horizon, feed)
        for rid in sorted(self.replicas):
            self.replicas[rid].commit_until(float("inf"))
        return self._report(horizon)

    def _run_closed(
        self,
        population: ClosedLoop,
        horizon: float,
        max_queries: int | None,
        feed: _Feed,
    ) -> None:
        if self.mix is None:
            raise ValueError("a closed-loop run needs a query mix")
        cfg = self.config
        users = self._users = _Users(population, cfg.seed)
        rng_mix = Random(cfg.seed + MIX_STREAM_OFFSET)
        issued = 0
        while True:
            t = users.peek()
            if t >= horizon or (max_queries is not None and issued >= max_queries):
                return  # every remaining user retires
            if self._step(t, feed):
                continue  # a kill may have moved a wake-up earlier
            user = users.pop()
            source, target, k = self.mix.sample(rng_mix)
            q = Query(
                source=source,
                target=target,
                k=k,
                timeout=cfg.server.timeout,
                request_id=f"q{issued:06d}",
                issued_at=t,
            )
            issued += 1
            users.issue(user, self._dispatch(q))

    # -- the event loop --------------------------------------------------
    def _advance_to(self, t: float, feed: _Feed) -> None:
        """Process every timed event at or before ``t``, in time order."""
        while self._step(t, feed):
            pass

    def _step(self, t: float, feed: _Feed) -> bool:
        """Process the earliest timed event at or before ``t``, if any.

        Equal-instant priority: recoveries, then heartbeats, then
        mutations — a replica that recovers exactly when a batch lands
        receives that batch like any other survivor.
        """
        next_recover = self._pending[0][0] if self._pending else None
        next_tick = (self._ticks_done + 1) * HEARTBEAT_INTERVAL
        next_mut = feed.peek()
        candidates = [
            v
            for v in (next_recover, next_tick, next_mut)
            if v is not None and v <= t
        ]
        if not candidates:
            return False
        at = min(candidates)
        if next_recover is not None and next_recover <= at:
            self._process_pending()
        elif next_tick <= at:
            self._ticks_done += 1
            self._heartbeat(self._ticks_done * HEARTBEAT_INTERVAL)
        else:
            feed.pop_apply(self._apply_batch)
        return True

    def _process_pending(self) -> None:
        at, _, kind, rid, kill = heapq.heappop(self._pending)
        if kind == "recover":
            self._finish_recovery(at, rid, kill)
        else:  # "scaleup"
            snap = self.authority.snapshot()
            server = self._replica_server(
                snap.graph, self.authority.alive, snap.version
            )
            self.replicas[rid].reset(server, at=at, state=ACTIVE)

    def _schedule(self, at: float, kind: str, rid: int, kill) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (at, self._seq, kind, rid, kill))

    # -- heartbeats ------------------------------------------------------
    def _heartbeat(self, tb: float) -> None:
        cfg = self.config
        try:
            self.comm.barrier(stage="fabric.heartbeat")
        except RankFailure:
            pass  # kill surfaced; membership handled from comm.dead below
        for rid in sorted(self.comm.dead - self._known_dead):
            self._known_dead.add(rid)
            self._process_kill(rid, tb)
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            replica.commit_until(tb)
            if replica.state == DRAINING and not replica.inflight:
                replica.state = STANDBY
        if self._ticks_done % CHECKPOINT_EVERY == 0:
            self.supervisor.save_shards(self.authority)
        if cfg.elastic is not None:
            decision = cfg.elastic.decide(self.replicas, tb)
            if decision is not None:
                action, rid = decision
                util = cfg.elastic.utilization(self.replicas, tb)
                self.elastic_events.append(
                    ElasticEvent(
                        at=round(tb, 9),
                        action=action,
                        replica=rid,
                        utilization=round(util, 6),
                    )
                )
                if action == "scale_up":
                    self.replicas[rid].state = RECOVERING
                    self._schedule(tb + SCALE_DELAY, "scaleup", rid, None)
                else:
                    self.replicas[rid].state = DRAINING
                get_tracer().add(f"fabric.{action}")

    # -- kills and hedging ----------------------------------------------
    def _process_kill(self, rid: int, tk: float) -> None:
        replica = self.replicas[rid]
        replica.commit_until(tk)  # delivered responses survive the kill
        lost = replica.lose_inflight()
        was_serving = replica.state in (ACTIVE, DRAINING)
        replica.state = DEAD
        kill = KillRecord(
            replica=rid,
            at=tk,
            stage="fabric.heartbeat",
            in_flight_lost=len(lost),
        )
        self.kills.append(kill)
        tracer = get_tracer()
        tracer.add("fabric.kills")
        # BSP accounting: one restore read, like the distributed layer
        shard_bytes = self.supervisor.checkpoint_bytes()
        model = self.comm.model
        self.comm.charge_recovery(
            model.latency
            + model.per_byte * (max(shard_bytes) if shard_bytes else 0)
        )
        self.comm.report.failures += 1
        if was_serving:
            ready = (
                tk
                + RECOVERY_LATENCY
                + sum(shard_bytes) * RECOVERY_SECONDS_PER_BYTE
            )
            self._schedule(ready, "recover", rid, kill)
        else:
            # a standby/recovering victim has nothing to restore; it is
            # simply marked dead until an operator (or scale-up) revives it
            kill.within_budget = True
        for flight in lost:
            self._hedge(flight, tk)

    def _hedge(self, flight: Flight, tk: float) -> None:
        q = flight.query
        hedges = flight.hedges + 1
        get_tracer().add("fabric.hedges")
        rid = None
        if hedges <= MAX_HEDGES:
            rid = self.router.place(self.shard_map.shard_of(q.source), tk)
        if rid is None:
            log = self._log(
                q,
                SHED,
                queue_time=tk - q.issued_at,
                replica=flight.replica,
                hedges=hedges,
            )
        else:
            log = self._serve_on(self.replicas[rid], q, tk, hedges)
        if self._users is not None:
            self._users.move(log, tk)

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, q: Query) -> QueryLog:
        t = q.issued_at
        if q.request_id in self._logs:
            raise ValueError(
                f"duplicate request_id {q.request_id!r}: the loop keys "
                "flights and logs by request id"
            )
        # the in-system count only rises at arrivals, so its peak is
        # taken here; lost flights left their replica at the kill, so a
        # hedged query counts once
        in_system = sum(r.load_at(t) for r in self.replicas.values())
        rid = self.router.place(self.shard_map.shard_of(q.source), t)
        if rid is None:
            return self._log(q, SHED)
        log = self._serve_on(self.replicas[rid], q, t, 0)
        if log.served:
            self._peak = max(self._peak, in_system + 1)
        return log

    def _serve_on(
        self, replica: Replica, q: Query, now_t: float, hedges: int
    ) -> QueryLog:
        start = replica.next_start(now_t)
        queue_time = start - q.issued_at  # total wait since *issue*
        timeout = q.timeout
        if timeout is not None and queue_time >= timeout:
            return self._log(
                q, EXPIRED, queue_time=queue_time, replica=replica.id, hedges=hedges
            )
        budget = None if timeout is None else timeout - queue_time
        self._clock.jump_to(start)
        try:
            res = replica.server.serve(q.with_timeout(budget), queue_time=queue_time)
        except InjectedFault as fault:
            # a fatal fault fails this query, not the fleet's run
            spent = self._clock.now() - start
            res = ServeResult(
                paths=[], k_requested=q.k, outcome=FAILED, tier="", attempts=1,
                elapsed=spent, error=repr(fault), query=q, queue_time=queue_time,
                service_time=spent, graph_version=replica.server.batch.version,
            )
        finish = self._clock.now()
        replica.occupy(
            Flight(
                query=q,
                replica=replica.id,
                issued_at=q.issued_at,
                start=start,
                finish=finish,
                result=res,
                hedges=hedges,
            )
        )
        if self._results is not None:
            self._results[q.request_id] = tuple(
                (p.vertices, p.distance) for p in res.paths
            )
        return self._log(
            q,
            res.outcome,
            tier=res.tier,
            queue_time=queue_time,
            service_time=res.service_time,
            latency=finish - q.issued_at,
            attempts=res.attempts,
            paths=len(res.paths),
            replica=replica.id,
            hedges=hedges,
            graph_version=res.graph_version,
            error=res.error,
        )

    def _log(self, q: Query, disposition: str, **fields) -> QueryLog:
        """Record ``q``'s :class:`QueryLog` with ``disposition``."""
        log = QueryLog(
            request_id=q.request_id,
            source=q.source,
            target=q.target,
            k=q.k,
            issued_at=q.issued_at,
            disposition=disposition,
            **fields,
        )
        self._logs[log.request_id] = log
        if self._results is not None and log.disposition in (SHED, EXPIRED):
            self._results.pop(log.request_id, None)
        return log

    # -- mutations -------------------------------------------------------
    def _apply_batch(self, batch) -> None:
        self._mutations_applied += 1
        touched_shards = self.shard_map.shards_touching(
            batch.touched_vertices()
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("fabric.mutate.batches")
            tracer.add("fabric.mutate.touched_shards", len(touched_shards))
        try:
            self.comm.bcast(int(batch.size), stage="fabric.mutate")
        except RankFailure:
            # a kill mid-apply: process membership first, then apply the
            # batch to the *survivors* — they all land on the same version
            # (the failover-consistency contract tests/dyn asserts)
            for rid in sorted(self.comm.dead - self._known_dead):
                self._known_dead.add(rid)
                self._process_kill(rid, batch.at)
        snap = self.authority.apply(batch)
        self._batch_log.append((snap.version, batch))
        # full replication: every serving replica holds every touched
        # shard, so the recipient set is the active + draining fleet;
        # dead/recovering replicas replay from the batch log instead
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            if replica.state in (ACTIVE, DRAINING):
                replica.server.apply_mutations(batch)

    # -- recovery --------------------------------------------------------
    def _finish_recovery(self, tr: float, rid: int, kill: KillRecord) -> None:
        csr, alive, version = self.supervisor.restore_shards()
        server = self._replica_server(csr, alive, version)
        missed = 0
        for batch_version, batch in self._batch_log:
            if batch_version > version:
                server.apply_mutations(batch)
                missed += 1
        self._verify_restored(server, rid)
        self.comm.revive(rid)
        self._known_dead.discard(rid)
        ready = tr + missed * REPLAY_SECONDS_PER_BATCH
        self.replicas[rid].reset(server, at=ready, state=ACTIVE)
        if kill is not None:
            kill.recovered_at = ready
            kill.ttr = ready - kill.at
            kill.missed_batches = missed
            kill.checkpoint_version = version
            kill.within_budget = (
                kill.ttr <= RECOVERY_BUDGET_HEARTBEATS * HEARTBEAT_INTERVAL
            )
        get_tracer().add("fabric.recoveries")

    def _verify_restored(self, server: QueryServer, rid: int) -> None:
        """Restored-equals-authority audit (the point of the checksums)."""
        mine = server.live.graph
        truth = self.authority.graph
        same = (
            server.live.version == self.authority.version
            and np.array_equal(mine.indptr, truth.indptr)
            and np.array_equal(mine.indices, truth.indices)
            and np.array_equal(mine.weights, truth.weights)
            and np.array_equal(server.live.alive, self.authority.alive)
        )
        if not same:
            raise SanitizerError(
                f"replica {rid} restored state diverges from the authority "
                f"(version {server.live.version} vs {self.authority.version})"
            )

    # -- reporting -------------------------------------------------------
    def _report(self, horizon: float) -> FabricReport:
        counters: dict[str, int] = {}
        for rid in sorted(self.replicas):
            server = self.replicas[rid].server
            if server is None:
                continue
            for key, value in server.counters.items():
                counters[key] = counters.get(key, 0) + value
        rep = self.comm.report
        dist = {
            "failures": rep.failures,
            "supersteps": rep.supersteps,
            "checkpoint_units": round(rep.checkpoint_units, 6),
            "recovery_units": round(rep.recovery_units, 6),
            "checkpoint_bytes": rep.checkpoint_bytes,
        }
        return FabricReport(
            logs=list(self._logs.values()),  # dispatch order
            horizon=horizon,
            peak_in_flight=self._peak,
            clock_ticks=self._clock.ticks,
            mutation_batches=self._mutations_applied,
            server_counters=dict(sorted(counters.items())),
            kills=self.kills,
            elastic_events=self.elastic_events,
            heartbeats=self._ticks_done,
            spills=self.router.spills,
            router_rejected=self.router.rejected,
            replica_states={
                rid: self.replicas[rid].state for rid in sorted(self.replicas)
            },
            dist=dist,
            results=self._results,
        )


def report_row(scenario: str, report: FabricReport) -> dict[str, Any]:
    """One JSON-ready row per fabric run — the shared shape of
    ``peek-load fabric`` payloads and ``BENCH_fabric.json``."""
    return {
        "scenario": scenario,
        **report.metrics(),
        "dispositions": report.dispositions(),
        "recovery_window": report.recovery_window_dispositions(),
        "kill_records": [k.as_dict() for k in report.kills],
        "replica_states": {
            str(rid): state for rid, state in report.replica_states.items()
        },
        "dist": report.dist,
    }


def slo_text(rows: list[dict[str, Any]], *, title: str = "fabric SLO") -> str:
    """Human-readable SLO table over scenario rows (``metrics()`` dicts
    extended with ``scenario`` and ``kill_records`` keys) — shared by
    ``peek-load fabric`` and ``benchmarks/bench_fabric.py``."""

    def ms(value) -> str:
        return f"{value * 1e3:8.2f}" if value is not None else f"{'-':>8}"

    lines = [
        title,
        "",
        f"{'scenario':>20} {'queries':>7} {'avail':>7} {'p50 ms':>8} "
        f"{'p99 ms':>8} {'p999 ms':>8} {'shed%':>6} {'degr%':>6} "
        f"{'kills':>5} {'ttr ms':>8} {'hedged':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row.get('scenario', '-'):>20} {row['queries']:>7} "
            f"{row['availability']:>7.4f} {ms(row['latency_p50'])} "
            f"{ms(row['latency_p99'])} {ms(row['latency_p999'])} "
            f"{row['shed_rate']:>6.1%} {row['degraded_rate']:>6.1%} "
            f"{row['kills']:>5} {ms(row['ttr_max'])} {row['hedged']:>6}"
        )
    lines.append("")
    for row in rows:
        for kill in row.get("kill_records", ()):
            budget = "ok" if kill["within_budget"] else "OVER BUDGET"
            lines.append(
                f"  kill: scenario={row.get('scenario', '-')} "
                f"replica={kill['replica']} at={kill['at']:.3f}s "
                f"lost={kill['in_flight_lost']} "
                f"ttr={kill['ttr'] * 1e3:.2f}ms "
                f"missed_batches={kill['missed_batches']} [{budget}]"
                if kill["ttr"] is not None
                else f"  kill: scenario={row.get('scenario', '-')} "
                f"replica={kill['replica']} at={kill['at']:.3f}s "
                f"(not recovered)"
            )
    return "\n".join(lines)

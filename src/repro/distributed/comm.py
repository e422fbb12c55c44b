"""SimComm: a BSP-accounted stand-in for an MPI communicator.

The mpi4py idiom (see the HPC guide this repo follows) is buffer-based
collectives over NumPy arrays; :class:`SimComm` exposes the same collective
shapes — ``alltoallv``, ``allgather``, ``allreduce``, ``bcast`` — operating
on *lists indexed by rank* since all ranks live in one process.  Every call
moves the real data (algorithms depend on it) and charges simulated time
under the classic BSP/Hockney model:

    T_step = max_r(compute_r) + latency + per_message·msgs + per_byte·h

where ``h`` is the maximum bytes any rank sends or receives in the step.
Compute work is reported by the algorithm via :meth:`SimComm.compute`
(work units, same scale as the shared-memory simulator).

Fault injection
---------------
A seeded :class:`FaultPlan` (rank-scoped :class:`~repro.serve.faults.
FaultRule` entries, same stage-prefix grammar as the serve-layer
injector) kills chosen ranks at chosen collectives.  A dead rank raises
:class:`~repro.errors.RankFailure` at the next collective it
participates in — the way real MPI jobs observe node loss — and keeps
raising until :meth:`SimComm.revive` (normally called by the
:class:`~repro.distributed.supervisor.DistSupervisor` during recovery).
Every collective carries a ``stage`` label (``dist.sssp.route``,
``dist.compact.counts``, ...; the full namespace is tabulated in
``docs/serving.md``) so plans can target one phase of one algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import CommError, RankFailure
from repro.obs.tracer import get_tracer

__all__ = ["CommModel", "SimComm", "DistReport", "FaultPlan"]


@dataclass(frozen=True)
class CommModel:
    """BSP cost parameters, in work units (one unit ≈ one edge relaxation).

    Defaults approximate a commodity cluster where one network round trip
    costs as much as ~20k edge relaxations and each byte on the wire costs
    a fraction of a relaxation — the regime in which the paper's 1-D
    partitioned Δ-stepping scales to 64 nodes with visible but not fatal
    communication overhead.
    """

    latency: float = 20000.0
    per_message: float = 200.0
    per_byte: float = 0.05
    #: cores per computing node (paper: 16); intra-node work is divided by
    #: this with the shared-memory inner model before BSP accounting.
    cores_per_node: int = 16

    def step_cost(self, max_bytes: int, num_messages: int) -> float:
        return (
            self.latency
            + self.per_message * num_messages
            + self.per_byte * max_bytes
        )

    def scaled_for(
        self, graph_edges: int, reference_edges: float = 1.5e9
    ) -> "CommModel":
        """Rescale the comm constants for a scaled-down benchmark graph.

        The paper's graphs have ~1.5B edges; this reproduction runs ~10⁵–10⁶
        edge analogues.  Keeping hardware-realistic absolute constants on a
        graph 10³× smaller makes every run latency-bound and hides the
        scaling behaviour the experiment is about.  Dividing the constants
        by the size ratio keeps the *compute-to-communication ratio* of the
        paper's setting, which is the quantity the Figure 10 curves are
        sensitive to.  (See DESIGN.md §1 and EXPERIMENTS.md for discussion.)
        """
        ratio = max(reference_edges / max(graph_edges, 1), 1.0)
        return CommModel(
            latency=self.latency / ratio,
            per_message=self.per_message / ratio,
            per_byte=self.per_byte / ratio,
            cores_per_node=self.cores_per_node,
        )


@dataclass
class DistReport:
    """Accumulated accounting of one distributed run.

    ``compute_units``/``comm_units`` count only *useful* work: when a rank
    failure rolls the job back, the charges since the restore point are
    moved into ``wasted_units``, so a recovered run reports the same
    compute/comm as its failure-free twin and :attr:`time_units`
    decomposes simulated time exactly into
    ``compute + comm + checkpoint + recovery + wasted``.
    """

    num_ranks: int
    supersteps: int = 0
    compute_units: float = 0.0
    comm_units: float = 0.0
    total_bytes: int = 0
    total_messages: int = 0
    #: serial-equivalent work (sum over ranks) for speedup computation
    serial_work: float = 0.0
    #: rank failures observed (and recovered from) during the run
    failures: int = 0
    #: cost of writing superstep checkpoints (charged through CommModel)
    checkpoint_units: float = 0.0
    #: cost of restoring/recomputing state after failures
    recovery_units: float = 0.0
    #: compute+comm charged, then thrown away by a rollback
    wasted_units: float = 0.0
    #: checkpoint payload written across the run (all ranks)
    checkpoint_bytes: int = 0

    @property
    def time_units(self) -> float:
        return (
            self.compute_units
            + self.comm_units
            + self.checkpoint_units
            + self.recovery_units
            + self.wasted_units
        )

    @property
    def parallel_efficiency(self) -> float:
        if self.time_units <= 0:
            return 1.0
        return self.serial_work / (self.time_units * self.num_ranks)


class FaultPlan:
    """A seeded schedule of rank kills over collective stage labels.

    Rules are :class:`~repro.serve.faults.FaultRule` entries with
    ``kind="rankfail"``; ``stage`` matches collective labels exactly or by
    dotted prefix (``"dist.sssp"`` matches ``"dist.sssp.route"``), and the
    rule fires at its ``at_hit``-th matching collective.  ``at_hit=None``
    draws the firing visit — and ``rank=None`` the victim — from the
    plan's seeded RNG, so randomised kill campaigns are reproducible from
    the seed alone.  ``fired`` records ``(stage, rank, superstep)``.

    Rules may target a serving-fabric *replica* instead of a rank (the
    ``@R<N>`` spelling of the ``--inject`` grammar,
    :attr:`~repro.serve.faults.FaultRule.replica`).  Replica ``i`` is
    rank ``i``, which is exactly how :class:`~repro.fabric.ServingFabric`
    lays its replicas onto its own SimComm.
    """

    def __init__(self, rules, *, seed: int | None = None) -> None:
        self.rules = list(rules)
        for r in self.rules:
            if r.kind != "rankfail":
                raise ValueError(
                    f"FaultPlan rules must have kind='rankfail', got {r.kind!r}"
                )
        self._rng = random.Random(seed)
        self.at_hits = [
            r.at_hit if r.at_hit is not None else self._rng.randint(1, r.max_hit)
            for r in self.rules
        ]
        self.hits = [0] * len(self.rules)
        self.fired: list[tuple[str, int, int]] = []

    @classmethod
    def from_specs(cls, specs, *, seed: int | None = None) -> "FaultPlan":
        """Build a plan from ``STAGE:rankfail[:AT_HIT][@RANK]`` strings."""
        from repro.serve.faults import parse_fault_spec

        return cls([parse_fault_spec(s) for s in specs], seed=seed)

    def poll(self, stage: str, num_ranks: int, superstep: int) -> list[int]:
        """Ranks killed at this collective (usually empty)."""
        victims: list[int] = []
        for i, rule in enumerate(self.rules):
            if not rule.matches(stage):
                continue
            self.hits[i] += 1
            first = self.at_hits[i]
            if first <= self.hits[i] < first + rule.times:
                rank = self._victim(rule, num_ranks)
                if rank is None:
                    continue  # rule targets a rank this job doesn't have
                victims.append(rank)
                self.fired.append((stage, rank, superstep))
        return victims

    def _victim(self, rule, num_ranks: int) -> int | None:
        """Resolve a firing rule to a rank (None = out of range, skip)."""
        if rule.rank is not None:
            rank = rule.rank
        elif getattr(rule, "replica", None) is not None:
            rank = rule.replica  # identity: replica i lives on rank i
        else:
            rank = self._rng.randrange(num_ranks)
        return rank if rank < num_ranks else None


class SimComm:
    """All ranks of one simulated MPI job.

    Collectives take and return lists of length ``num_ranks``.  The caller
    (the distributed algorithm) is the SPMD program: it loops over ranks to
    produce per-rank send data, calls a collective, then loops over ranks to
    consume the received data — the same structure an mpi4py program has,
    minus the process boundary.
    """

    def __init__(
        self,
        num_ranks: int,
        model: CommModel | None = None,
        *,
        race_detector=None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if num_ranks < 1:
            raise CommError("need at least one rank")
        self.num_ranks = num_ranks
        self.model = model or CommModel()
        self.report = DistReport(num_ranks=num_ranks)
        # optional repro.analysis.race.RaceDetector (duck-typed): every
        # collective is a barrier; ranks declare footprints in between
        if race_detector is not None and race_detector.num_tasks != num_ranks:
            raise CommError(
                f"race detector tracks {race_detector.num_tasks} tasks "
                f"but the communicator has {num_ranks} ranks"
            )
        self.race_detector = race_detector
        self.fault_plan = fault_plan
        #: ranks currently dead (killed by the plan or :meth:`kill`)
        self.dead: set[int] = set()
        #: cumulative inner-scaled compute per rank (recompute-recovery cost)
        self.per_rank_compute = [0.0] * num_ranks

    # ------------------------------------------------------------------
    # compute + superstep accounting
    # ------------------------------------------------------------------
    def compute(self, per_rank_work) -> None:
        """Charge one compute region: ranks work concurrently → max cost.

        ``per_rank_work`` is a length-``num_ranks`` sequence of work units.
        Intra-node parallelism (``cores_per_node``) is applied here with a
        simple 60%-efficiency inner model, matching the paper's mapping of
        the inner Δ-stepping level onto the cores of one node.
        """
        work = list(per_rank_work)
        if len(work) != self.num_ranks:
            raise CommError("per_rank_work must have one entry per rank")
        cores = self.model.cores_per_node
        # data-parallel within a node: mild sublinearity (memory bandwidth)
        inner = cores / (1.0 + 0.05 * (cores - 1)) if cores > 1 else 1.0
        self.report.compute_units += max(work) / inner if work else 0.0
        self.report.serial_work += float(sum(work))
        for r, w in enumerate(work):
            self.per_rank_compute[r] += w / inner

    def record_reads(self, rank: int, resources) -> None:
        """Declare resources ``rank`` reads in the current superstep."""
        if self.race_detector is not None:
            if not 0 <= rank < self.num_ranks:
                raise CommError(f"bad rank {rank}")
            self.race_detector.record_reads(rank, resources)

    def record_writes(self, rank: int, resources) -> None:
        """Declare resources ``rank`` writes in the current superstep."""
        if self.race_detector is not None:
            if not 0 <= rank < self.num_ranks:
                raise CommError(f"bad rank {rank}")
            self.race_detector.record_writes(rank, resources)

    def _charge(
        self, bytes_per_rank: list[int], msgs: int, stage: str = "dist.comm"
    ) -> None:
        self.report.supersteps += 1
        if self.race_detector is not None:
            # every collective synchronises all ranks — a happens-before join
            self.race_detector.barrier()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("comm.supersteps")
        if self.num_ranks > 1:
            h = max(bytes_per_rank) if bytes_per_rank else 0
            self.report.comm_units += self.model.step_cost(h, msgs)
            self.report.total_bytes += int(sum(bytes_per_rank))
            self.report.total_messages += msgs
            if tracer.enabled:
                tracer.add("comm.messages", msgs)
                tracer.add("comm.bytes", int(sum(bytes_per_rank)))
        # the collective's cost is charged before the failure surfaces: a
        # superstep that dies still burned the time (rolled into wasted
        # units when a supervisor rolls the job back)
        if self.fault_plan is not None:
            for victim in self.fault_plan.poll(
                stage, self.num_ranks, self.report.supersteps
            ):
                self.dead.add(victim)
        if self.dead:
            raise RankFailure(
                min(self.dead),
                stage=stage,
                superstep=self.report.supersteps,
            )

    # ------------------------------------------------------------------
    # fault-tolerance hooks (used by repro.distributed.supervisor)
    # ------------------------------------------------------------------
    def kill(self, rank: int) -> None:
        """Mark ``rank`` dead: its next collective raises RankFailure."""
        if not 0 <= rank < self.num_ranks:
            raise CommError(f"bad rank {rank}")
        self.dead.add(rank)

    def revive(self, rank: int) -> None:
        """Bring a replacement for ``rank`` online (recovery complete)."""
        self.dead.discard(rank)

    def marker(self) -> dict:
        """Snapshot the rollback-able accounting state (a restore point)."""
        return {
            "report": replace(self.report),
            "per_rank_compute": list(self.per_rank_compute),
        }

    def rollback(self, marker: dict) -> float:
        """Discard charges since ``marker``; returns the wasted units.

        Base compute/comm accounting (and the byte/message/superstep
        counters) rewind to the marker so the replay re-charges them;
        the discarded compute+comm moves into ``wasted_units``.  The
        fault-tolerance fields themselves are never rolled back.
        """
        snap: DistReport = marker["report"]
        rep = self.report
        wasted = (rep.compute_units - snap.compute_units) + (
            rep.comm_units - snap.comm_units
        )
        rep.compute_units = snap.compute_units
        rep.comm_units = snap.comm_units
        rep.supersteps = snap.supersteps
        rep.total_bytes = snap.total_bytes
        rep.total_messages = snap.total_messages
        rep.serial_work = snap.serial_work
        rep.wasted_units += wasted
        self.per_rank_compute = list(marker["per_rank_compute"])
        return wasted

    def charge_checkpoint(self, bytes_per_rank: list[int]) -> float:
        """Charge one coordinated checkpoint write through the BSP model.

        All ranks write their snapshot concurrently to (simulated) stable
        storage: one latency plus the largest per-rank payload at the
        per-byte rate, the same Hockney form as a collective.
        """
        h = max(bytes_per_rank) if bytes_per_rank else 0
        cost = self.model.latency + self.model.per_byte * h
        self.report.checkpoint_units += cost
        self.report.checkpoint_bytes += int(sum(bytes_per_rank))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("dist.checkpoint.writes")
            tracer.add("dist.checkpoint.bytes", int(sum(bytes_per_rank)))
        return cost

    def charge_recovery(self, units: float) -> None:
        """Charge recovery time (restore read or lost-rank recompute)."""
        self.report.recovery_units += float(units)

    @staticmethod
    def _nbytes(obj) -> int:
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if isinstance(obj, (list, tuple)):
            return sum(SimComm._nbytes(o) for o in obj)
        return 8  # scalar

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def alltoallv(
        self, send: list[list], *, stage: str = "dist.comm.alltoallv"
    ) -> list[list]:
        """``send[i][j]`` goes from rank i to rank j; returns ``recv[j][i]``.

        The workhorse of distributed Δ-stepping: relaxation requests routed
        to owner ranks.  Charged as one superstep with up to R·(R−1) point
        messages (empty payloads send nothing).
        """
        r = self.num_ranks
        if len(send) != r or any(len(row) != r for row in send):
            raise CommError("alltoallv needs an RxR send matrix")
        recv: list[list] = [[send[i][j] for i in range(r)] for j in range(r)]
        out_bytes = [
            sum(self._nbytes(send[i][j]) for j in range(r) if j != i)
            for i in range(r)
        ]
        in_bytes = [
            sum(self._nbytes(send[i][j]) for i in range(r) if i != j)
            for j in range(r)
        ]
        msgs = sum(
            1
            for i in range(r)
            for j in range(r)
            if i != j and self._nbytes(send[i][j]) > 0
        )
        self._charge(
            [max(o, i_) for o, i_ in zip(out_bytes, in_bytes)], msgs, stage
        )
        return recv

    def allgather(
        self, contributions: list, *, stage: str = "dist.comm.allgather"
    ) -> list:
        """Every rank receives every rank's contribution (returned once)."""
        if len(contributions) != self.num_ranks:
            raise CommError("allgather needs one contribution per rank")
        total = sum(self._nbytes(c) for c in contributions)
        # butterfly allgather: each rank eventually holds `total` bytes
        self._charge([total] * self.num_ranks, 2 * (self.num_ranks - 1), stage)
        return list(contributions)

    def allreduce(self, values: list, op=min, *, stage: str = "dist.comm.allreduce"):
        """Reduce scalars from every rank; all ranks get the result."""
        if len(values) != self.num_ranks:
            raise CommError("allreduce needs one value per rank")
        self._charge([8] * self.num_ranks, 2 * (self.num_ranks - 1), stage)
        return op(values)

    def bcast(self, value, root: int = 0, *, stage: str = "dist.comm.bcast"):
        """Rank ``root`` sends ``value`` to everyone."""
        if not 0 <= root < self.num_ranks:
            raise CommError(f"bad root {root}")
        nb = self._nbytes(value)
        self._charge([nb] * self.num_ranks, self.num_ranks - 1, stage)
        return value

    def barrier(self, *, stage: str = "dist.comm.barrier") -> None:
        """Pure synchronisation superstep."""
        self._charge([0] * self.num_ranks, self.num_ranks - 1, stage)

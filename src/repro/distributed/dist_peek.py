"""Distributed PeeK (paper §6.2, evaluated in Figure 10).

The pipeline maps each PeeK stage onto the cluster exactly as the paper
describes:

1. both SSSPs run as distributed Δ-stepping over a row-wise 1-D partition
   (:mod:`repro.distributed.dist_sssp`);
2. the K-upper-bound identification sorts the spSum array with a
   distributed sample sort, gathers a small candidate window to rank 0 for
   the validity scan, and broadcasts the bound;
3. each rank compacts its own rows (embarrassingly parallel); because the
   pruned graph is tiny, it is then allgathered so every node holds the
   remaining graph — which is what makes step 4 cheap;
4. the KSP stage maps the *outer* level (independent SSSPs per deviation)
   onto computing nodes and the *inner* level (Δ-stepping) onto the cores
   of a node.

The prune decision and the remnant solve go through the same
:func:`~repro.core.pruning.bound_and_masks` and
:func:`~repro.core.batch.prepare_remnant` as serial PeeK, fed with the
distributed SSSP trees, so bound, masks and paths are bitwise-identical
to serial PeeK (tested property); the
returned :class:`~repro.distributed.comm.DistReport` carries the BSP time
model that Figure 10's scaling/GTEPS curves are computed from.

Fault tolerance: construct with ``fault_plan=`` (a
:class:`~repro.distributed.comm.FaultPlan` of seeded rank kills) and
``recovery=`` (a :class:`~repro.distributed.supervisor.RecoveryConfig`)
and the run survives rank loss — each stage is a supervised recovery
unit, the SSSPs checkpoint at bucket granularity, and the recovered
result is bitwise-identical to the failure-free run while the report
decomposes simulated time into compute + comm + checkpoint + recovery +
wasted units.  ``run(k, deadline=...)`` additionally threads the
cooperative-cancellation deadline through every stage (labels
``dist.peek.{sssp,bound,compact,ksp}``), raising
:class:`~repro.errors.KSPTimeout` exactly like ``repro.solve`` does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.cancel import cancellation_active, checkpoint
from repro.core.batch import PeeKResult, prepare_remnant
from repro.core.pruning import PruneResult, PruneStats, bound_and_masks
from repro.distributed.comm import CommModel, DistReport, FaultPlan, SimComm
from repro.distributed.dist_sssp import distributed_delta_stepping
from repro.distributed.partition import RowPartition
from repro.distributed.sample_sort import distributed_sample_sort
from repro.distributed.supervisor import RecoveryConfig
from repro.errors import RankFailure, UnreachableTargetError

__all__ = ["DistributedPeeK", "distributed_peek"]


@dataclass
class DistributedPeeKReport:
    """Everything a scaling experiment needs from one distributed run."""

    result: PeeKResult
    comm: DistReport
    ksp_units: float
    edges_traversed: int

    @property
    def time_units(self) -> float:
        return self.comm.time_units + self.ksp_units

    # fault-tolerance accounting, mirrored from the communicator's report
    @property
    def failures(self) -> int:
        return self.comm.failures

    @property
    def checkpoint_units(self) -> float:
        return self.comm.checkpoint_units

    @property
    def recovery_units(self) -> float:
        return self.comm.recovery_units

    @property
    def wasted_units(self) -> float:
        return self.comm.wasted_units


class DistributedPeeK:
    """PeeK across ``num_nodes`` simulated computing nodes.

    Parameters
    ----------
    graph, source, target:
        The query, as for :class:`~repro.core.peek.PeeK`.
    num_nodes:
        Computing nodes (the paper scales 1 → 64, 16 cores each).
    model:
        BSP cost parameters, including ``cores_per_node``.
    fault_plan:
        Optional seeded rank-kill schedule injected into the communicator.
    recovery:
        Optional :class:`~repro.distributed.supervisor.RecoveryConfig`;
        without one, an injected rank failure propagates to the caller as
        :class:`~repro.errors.RankFailure`.
    """

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        num_nodes: int,
        *,
        model: CommModel | None = None,
        alpha: float = 0.1,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        self.graph = graph
        self.source = source
        self.target = target
        self.num_nodes = num_nodes
        self.model = model or CommModel()
        self.alpha = alpha
        self.fault_plan = fault_plan
        self.recovery = recovery

    def run(self, k: int, *, deadline: float | None = None) -> DistributedPeeKReport:
        if k < 1:
            raise ValueError("k must be >= 1")
        comm = SimComm(self.num_nodes, self.model, fault_plan=self.fault_plan)
        supervisor = (
            self.recovery.supervisor(comm) if self.recovery is not None else None
        )
        check_cancel = cancellation_active(deadline)
        graph = self.graph
        n = graph.num_vertices
        r = self.num_nodes

        def recovering(stage_fn):
            """Run one pure stage, re-running it after a recovered failure.

            Stages past the SSSPs compute from immutable inputs, so the
            restore point (the forced stage-entry checkpoint) only needs
            to rewind the accounting; the replay is the stage itself.
            """
            while True:
                try:
                    return stage_fn()
                except RankFailure as failure:
                    if supervisor is None:
                        raise
                    supervisor.recover(failure)

        # ---- stage 1: the two distributed SSSPs --------------------------
        if check_cancel:
            checkpoint(deadline, "dist.peek.sssp")
        fwd_part = RowPartition.build(graph, r)
        fwd = distributed_delta_stepping(
            fwd_part, self.source, comm, deadline=deadline, supervisor=supervisor
        )
        if not np.isfinite(fwd.dist[self.target]):
            raise UnreachableTargetError(
                f"target {self.target} unreachable from {self.source}"
            )
        if check_cancel:
            checkpoint(deadline, "dist.peek.sssp")
        rev_part = RowPartition.build(graph.reverse(), r)
        rev = distributed_delta_stepping(
            rev_part, self.target, comm, deadline=deadline, supervisor=supervisor
        )

        def stage_boundary(name: str) -> None:
            """Commit a completed stage: the SSSP arrays are now immutable
            inputs of everything downstream, so they are the state worth
            checkpointing (forced — a restore never crosses a stage)."""
            if supervisor is None:
                return
            supervisor.bind_partition(fwd_part)
            supervisor.boundary(
                {
                    "fwd_dist": fwd.dist,
                    "fwd_parent": fwd.parent,
                    "rev_dist": rev.dist,
                    "rev_parent": rev.parent,
                },
                meta={"stage": name},
                force=True,
            )

        stage_boundary("bound")

        # ---- stage 2: bound identification -------------------------------
        if check_cancel:
            checkpoint(deadline, "dist.peek.bound")

        def bound_stage() -> PruneResult:
            # spSum is computed rank-local (each rank owns a vertex slice)
            comm.compute([math.ceil(n / r)] * r)
            sp_sum = fwd.dist + rev.dist
            finite = sp_sum[np.isfinite(sp_sum)]
            if finite.size >= r:
                distributed_sample_sort(finite, comm)
            # candidate window (a few K entries) to rank 0, scan, broadcast
            # b — the scan is serial PeeK's, over the distributed trees;
            # charge the gather
            comm.allgather(
                [np.empty(min(4 * k, max(finite.size, 1)))] * r,
                stage="dist.bound.gather",
            )
            pr = bound_and_masks(
                fwd,
                rev,
                self.source,
                self.target,
                k,
                graph=graph,
                stats=PruneStats.from_sssp(fwd, rev),
                deadline=deadline,
            )
            comm.bcast(float(pr.bound), stage="dist.bound.bcast")
            return pr

        prune = recovering(bound_stage)
        stage_boundary("compact")

        # ---- stage 3: per-rank compaction + allgather of the remnant -----
        if check_cancel:
            checkpoint(deadline, "dist.peek.compact")
        prepared = prepare_remnant(
            graph,
            self.source,
            self.target,
            k,
            prune,
            alpha=self.alpha,
            deadline=deadline,
        )

        def compact_stage() -> None:
            # Run the *real* distributed compaction kernels so the charged
            # communication is actual traffic, and cross-check the remnant
            # against the serial pipeline's.
            from repro.distributed.dist_compact import (
                distributed_edge_swap_ends,
                distributed_regenerate,
            )

            comp = prepared.compaction
            if comp.is_regenerated:
                regen = distributed_regenerate(
                    fwd_part, prune.keep_vertices, prune.keep_edges, comm
                )
                assert regen.graph.num_edges == comp.remaining_edges
            else:
                distributed_edge_swap_ends(
                    fwd_part, prune.keep_vertices, prune.keep_edges, comm
                )

        recovering(compact_stage)
        stage_boundary("ksp")

        # ---- stage 4: two-level KSP over nodes × cores --------------------
        if check_cancel:
            checkpoint(deadline, "dist.peek.ksp")
        result = prepared.run()
        ksp_units = self._schedule_ksp(result)

        comm.report.serial_work += float(result.stats.total_work)
        return DistributedPeeKReport(
            result=result,
            comm=comm.report,
            ksp_units=ksp_units,
            # the two distributed SSSPs (in the prune stats) plus the
            # remnant solver's traversals
            edges_traversed=prune.stats.edges_relaxed + result.stats.edges_relaxed,
        )

    def _schedule_ksp(self, result: PeeKResult) -> float:
        """Outer tasks → nodes (LPT), inner SSSP → a node's cores."""
        cores = self.model.cores_per_node
        inner = cores / (1.0 + 0.35 * (cores - 1)) if cores > 1 else 1.0
        total = float(result.stats.init_work) / inner
        for tasks in result.stats.iteration_tasks:
            if not tasks:
                continue
            slots = [0.0] * min(self.num_nodes, len(tasks))
            heapq.heapify(slots)
            for w in sorted(tasks, reverse=True):
                earliest = heapq.heappop(slots)
                heapq.heappush(slots, earliest + w / inner)
            total += max(slots) + self.model.per_message  # iteration barrier
        for serial in result.stats.iteration_serial:
            total += serial
        return total


def distributed_peek(
    graph,
    source: int,
    target: int,
    k: int,
    num_nodes: int,
    *,
    deadline: float | None = None,
    **kwargs,
) -> DistributedPeeKReport:
    """Convenience wrapper: ``DistributedPeeK(...).run(k, deadline=...)``.

    Validates the query up front with the library-wide taxonomy, so the
    distributed entry rejects bad requests exactly like :func:`repro.solve`.
    """
    from repro.serve.query import Query, validate_query

    validate_query(graph, Query(source=source, target=target, k=k))
    return DistributedPeeK(graph, source, target, num_nodes, **kwargs).run(
        k, deadline=deadline
    )

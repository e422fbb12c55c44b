"""Versioned live graph: a Terrace spine exporting immutable snapshots.

:class:`LiveGraph` is the seam between the mutable world and the serving
stack.  The Terrace container absorbs mutation batches; every applied
batch produces a :class:`Snapshot` — an immutable
:class:`~repro.graph.csr.CSRGraph` extraction stamped with a monotone
version id plus the :class:`~repro.dyn.stream.MutationSummary` that
classifies what the batch *effectively* did against the pre-mutation
state.  Everything downstream (SSSP caches, prepared queries, serve
results) records the version it was computed against, so staleness is a
comparison of two integers.

Two properties the serving layer relies on:

* **stable vertex space** — tombstoned vertices become isolated in the
  snapshot rather than being renumbered, so vertex ids (and therefore
  cached distance arrays) remain meaningful across versions;
* **deterministic extraction** — :meth:`TerraceGraph.to_csr` emits live
  edges in stored target-sorted order, so the same mutation history
  always yields bitwise-identical snapshots (the CI ``dyn-serving`` job
  asserts exactly this with ``cmp``).

Effectiveness classification matters for the reuse certificate: a delete
of an edge that was not live, an insert toward a tombstoned target, or a
reweight to the same value must not defeat prune-bound reuse, so
:meth:`LiveGraph.apply` consults the pre-mutation state (old weights,
liveness) and records only *effective* inserts/decreases/up-edges in the
summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dyn.stream import MutationBatch, MutationSummary
from repro.dyn.terrace import TerraceGraph
from repro.errors import VertexError
from repro.graph.csr import CSRGraph

__all__ = ["LiveGraph", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One immutable version of the live graph.

    ``summary`` is ``None`` only for version 0 (the initial load — there
    is no batch to summarise).
    """

    version: int
    graph: CSRGraph
    summary: MutationSummary | None = None


class LiveGraph:
    """Mutable graph spine with immutable snapshots of monotone version."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        alive: np.ndarray | None = None,
        version: int = 0,
    ) -> None:
        if version < 0:
            raise ValueError("start version must be >= 0")
        self._terrace = TerraceGraph.from_csr(graph)
        # ``alive`` and a non-zero start version rebuild a spine from a
        # checkpoint: the tombstoned vertices die again, and the restored
        # replica resumes the version sequence it left off at, so replayed
        # batches line up with the survivors' version numbers
        if alive is not None:
            dead = np.flatnonzero(~alive)
            if dead.size:
                self._terrace.delete_vertices(dead)
        self._version = int(version)
        self._snapshot = Snapshot(
            version=self._version, graph=self._terrace.to_csr()
        )

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The current (latest) snapshot version."""
        return self._version

    @property
    def graph(self) -> CSRGraph:
        """The current immutable snapshot's CSR graph."""
        return self._snapshot.graph

    @property
    def alive(self) -> np.ndarray:
        """Copy of the vertex liveness mask at the current version."""
        return self._terrace.alive_mask()

    @property
    def terrace(self) -> TerraceGraph:
        """The mutable spine (mutate it only through :meth:`apply`)."""
        return self._terrace

    @property
    def num_vertices(self) -> int:
        return self._terrace.num_vertices

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot` (cheap: extractions are cached)."""
        return self._snapshot

    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> Snapshot:
        """Apply one mutation batch atomically; returns the new snapshot.

        Application order is deletes → reweights → inserts → tombstones
        (see :class:`~repro.dyn.stream.MutationBatch`).  All sub-batches
        are validated against the *pre*-mutation state before anything is
        applied, so an invalid batch leaves the graph (and the version)
        untouched.
        """
        t = self._terrace
        ins_s = np.asarray(batch.insert_src, dtype=np.int64)
        ins_d = np.asarray(batch.insert_dst, dtype=np.int64)
        ins_w = np.asarray(batch.insert_w, dtype=np.float64)
        del_s = np.asarray(batch.delete_src, dtype=np.int64)
        del_d = np.asarray(batch.delete_dst, dtype=np.int64)
        rw_s = np.asarray(batch.reweight_src, dtype=np.int64)
        rw_d = np.asarray(batch.reweight_dst, dtype=np.int64)
        rw_w = np.asarray(batch.reweight_w, dtype=np.float64)
        tomb = np.asarray(batch.tombstone, dtype=np.int64)

        # all-or-nothing: validate every sub-batch against the pre-state
        # (tombstones apply last, so pre-state liveness is the right
        # check for all three edge operations)
        t._check_batch(del_s, del_d, None)
        t._check_batch(rw_s, rw_d, rw_w)
        t._check_batch(ins_s, ins_d, ins_w)
        if tomb.size and (int(tomb.min()) < 0 or int(tomb.max()) >= t.num_vertices):
            raise VertexError("tombstone vertex id out of range")

        alive_before = t.alive_mask()
        up_s: list[int] = []
        up_d: list[int] = []
        up_w: list[float] = []
        has_insert = False
        has_decrease = False

        # deletes — effective iff the edge was live before
        for u, v in zip(del_s.tolist(), del_d.tolist()):
            w_old = t.edge_weight(u, v)
            if w_old is not None:
                up_s.append(u)
                up_d.append(v)
                up_w.append(w_old)
        t.delete_edges(del_s, del_d)

        # reweights — classify by old live weight (NaN = missing = no-op;
        # a stored-but-dead-target hit does not change the snapshot)
        old_w = t.reweight_edges(rw_s, rw_d, rw_w)
        for i in range(rw_s.size):
            if not np.isfinite(old_w[i]) or not alive_before[rw_d[i]]:
                continue
            if rw_w[i] > old_w[i]:
                up_s.append(int(rw_s[i]))
                up_d.append(int(rw_d[i]))
                up_w.append(float(old_w[i]))
            elif rw_w[i] < old_w[i]:
                has_decrease = True

        # inserts — dedup keeps the lighter weight, so inserting over an
        # existing lighter edge is a no-op and over a heavier one is a
        # decrease; toward a dead target it is stored but not live
        for i in range(ins_s.size):
            u, v = int(ins_s[i]), int(ins_d[i])
            if u == v or not alive_before[v]:
                continue  # self-loops are dropped, dead targets stored-dead
            cur = t.edge_weight(u, v)
            if cur is None:
                has_insert = True
            elif float(ins_w[i]) < cur:
                has_decrease = True
        t.insert_edges(ins_s, ins_d, ins_w)

        # tombstones — only newly-killed vertices count
        newly_dead = tomb[alive_before[tomb]] if tomb.size else tomb
        t.delete_vertices(tomb)

        self._version += 1
        summary = MutationSummary(
            version=self._version,
            touched=batch.touched_vertices(),
            has_insert=has_insert,
            has_decrease=has_decrease,
            up_src=np.asarray(up_s, dtype=np.int64),
            up_dst=np.asarray(up_d, dtype=np.int64),
            up_old_w=np.asarray(up_w, dtype=np.float64),
            tombstoned=np.unique(newly_dead),
        )
        self._snapshot = Snapshot(
            version=self._version, graph=t.to_csr(), summary=summary
        )
        return self._snapshot

"""Versioned live graph: one CSR snapshot plus a vertex liveness mask.

:class:`LiveGraph` is the seam between the mutable world and the serving
stack.  Its state is the current :class:`Snapshot` — an immutable
:class:`~repro.graph.csr.CSRGraph` stamped with a monotone version id
plus the :class:`~repro.dyn.stream.MutationSummary` of the batch that
made it — and the vertex liveness mask.  Each batch splices the
snapshot's edge arrays into the next one: CSR regeneration, which the
paper's Fig. 12 shows beating a Terrace-style container for update +
SSSP.  Everything downstream (SSSP caches, prepared queries, serve
results) records the version it was computed against, so staleness is
a comparison of two integers.

Properties the serving layer relies on:

* **stable vertex space** — tombstoned vertices become isolated in the
  snapshot rather than being renumbered, so vertex ids (and therefore
  cached distance arrays) remain meaningful across versions;
* **deterministic snapshots** — every vertex's out-edges stay sorted by
  target (parallel edges of a loaded graph keep their load order), so
  the same mutation history always yields bitwise-identical snapshots
  (the CI ``dyn-serving`` job asserts exactly this with ``cmp``);
* **Terrace semantics** — updates mean what they mean on
  :class:`~repro.dyn.terrace.TerraceGraph`: the lighter of two inserts
  wins (merging the source's parallel edges), self-loop inserts are
  dropped, an edge toward a tombstoned target is never live, and a
  reweight sets the first of parallel edges.

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

from repro.dyn.stream import MutationBatch, MutationSummary, check_batch
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


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-open range each ``query`` key spans in sorted ``keys``."""
    return np.searchsorted(keys, query), np.searchsorted(keys, query, side="right")


def _spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every position of the half-open ranges ``[lo[i], hi[i])``."""
    lens = hi - lo
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _csr(keys: np.ndarray, weights: np.ndarray, n: int) -> CSRGraph:
    """The CSR graph of sorted ``src * n + dst`` edge keys."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    # the keys came from a validated graph and validated batches, so the
    # CSR invariants hold by construction (SAN-CSR audits this)
    return CSRGraph(indptr, keys % n, weights, check=False)


class LiveGraph:
    """A graph under mutation batches, read as immutable versioned
    snapshots."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        alive: np.ndarray | None = None,
        version: int = 0,
    ) -> None:
        if version < 0:
            raise ValueError("start version must be >= 0")
        n = graph.num_vertices
        self._alive = np.ones(n, dtype=bool)
        # ``alive`` and a non-zero start version rebuild a graph from a
        # checkpoint: the tombstoned vertices die again, and the restored
        # replica resumes the version sequence it left off at, so replayed
        # batches line up with the survivors' version numbers
        if alive is not None:
            self._alive[np.flatnonzero(~alive)] = False
        keys = graph.edge_sources() * n + graph.indices
        weights = graph.weights
        if np.any(keys[1:] < keys[:-1]):
            # sort each row by target; parallel edges keep their order
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], weights[order]
        if not self._alive.all():
            keys, weights = self._live_edges(keys, weights)
        self._snapshot = Snapshot(version=int(version), graph=_csr(keys, weights, n))
        #: the snapshot's edges as sorted ``src * n + dst`` keys
        self._keys = keys
        self._terrace: tuple | None = None  # (snapshot, view)

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The current (latest) snapshot version."""
        return self._snapshot.version

    @property
    def graph(self) -> CSRGraph:
        """The current immutable snapshot's CSR graph."""
        return self._snapshot.graph

    @property
    def alive(self) -> np.ndarray:
        """Copy of the vertex liveness mask at the current version."""
        return self._alive.copy()

    @property
    def terrace(self):
        """A :class:`~repro.dyn.terrace.TerraceGraph` of the current
        snapshot, built on first read and cached per version.

        Nothing in the serving path reads it.  It remains for perfbench's
        traced ``serve-live`` run, which wraps ``live.terrace.to_csr`` as
        its ``dyn.snapshot_ms`` layer; since no separate extraction step
        exists any more, that layer reads 0.  Retire this view together
        with that wrap.
        """
        if self._terrace is None or self._terrace[0] is not self._snapshot:
            from repro.dyn.terrace import TerraceGraph

            view = TerraceGraph.from_csr(self.graph)
            view.delete_vertices(np.flatnonzero(~self._alive))
            self._terrace = (self._snapshot, view)
        return self._terrace[1]

    @property
    def num_vertices(self) -> int:
        return int(self._alive.size)

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot`."""
        return self._snapshot

    def _live_edges(self, keys: np.ndarray, weights: np.ndarray):
        """The edges whose source and target are both alive."""
        src, dst = np.divmod(keys, self._alive.size)
        live = self._alive[src] & self._alive[dst]
        return keys[live], weights[live]

    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> Snapshot:
        """Apply one mutation batch atomically; returns the new snapshot.

        Application order is deletes → reweights → inserts → tombstones
        (see :class:`~repro.dyn.stream.MutationBatch`).  All sub-batches
        are validated against the *pre*-mutation state before anything is
        applied, so an invalid batch leaves the graph (and the version)
        untouched.  Each step is a few array operations over the
        snapshot's edges, held as sorted ``src * n + dst`` keys: one
        ``searchsorted`` finds every edge a sub-batch names.
        """
        alive = self._alive
        n = alive.size
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
        check_batch(alive, del_s, del_d, None)
        check_batch(alive, rw_s, rw_d, rw_w)
        check_batch(alive, ins_s, ins_d, ins_w)
        if tomb.size and (int(tomb.min()) < 0 or int(tomb.max()) >= n):
            raise VertexError("tombstone vertex id out of range")

        prev = self._snapshot.graph
        keys = first_keys = self._keys
        weights = prev.weights.copy()

        # deletes — effective iff the edge was live before (snapshot edges
        # are exactly the live ones); every parallel copy goes, so the old
        # weight is the lightest copy's
        lo, hi = _find(keys, del_s * n + del_d)
        hit = hi > lo
        lightest = weights[:0]
        if hit.any():
            gone, lens = _spans(lo[hit], hi[hit]), hi[hit] - lo[hit]
            lightest = np.minimum.reduceat(weights[gone], np.cumsum(lens) - lens)
            keys, weights = np.delete(keys, gone), np.delete(weights, gone)
        up = [(del_s[hit], del_d[hit], lightest)]

        # reweights — classify by old live weight (a missing edge is a
        # no-op); every request reads the weight before the batch, and
        # the last request for an edge wins
        lo, hi = _find(keys, rw_s * n + rw_d)
        hit = hi > lo
        old_w, new_w = weights[lo[hit]], rw_w[hit]
        raised, lowered = new_w > old_w, new_w < old_w
        up.append((rw_s[hit][raised], rw_d[hit][raised], old_w[raised]))
        down = [(rw_s[hit][lowered], rw_d[hit][lowered], new_w[lowered])]
        has_decrease = bool(lowered.any())
        weights[lo[hit]] = new_w
        # the positions a weights-only batch changes (meaningful only while
        # ``keys`` is still ``first_keys``)
        changed = [lo[hit]]

        # inserts — dedup keeps the lighter weight, so inserting over an
        # existing lighter edge is a no-op and over a heavier one is a
        # decrease; self-loops are dropped and an edge toward a dead
        # target never becomes live
        proper = ins_s != ins_d
        ins_k = ins_s * n + ins_d
        live = proper & alive[ins_d]
        lo, hi = _find(keys, ins_k)
        new_edge = live & (hi == lo)
        has_insert = bool(new_edge.any())
        lighter = live & (hi > lo)
        lighter[lighter] = ins_w[lighter] < weights[lo[lighter]]
        has_decrease |= bool(lighter.any())
        down.append((ins_s[new_edge | lighter], ins_d[new_edge | lighter],
                     ins_w[new_edge | lighter]))
        order = np.lexsort((ins_w[live], ins_k[live]))
        add_k, add_w = ins_k[live][order], ins_w[live][order]
        first = np.diff(add_k, prepend=-1) != 0
        add_k, add_w = add_k[first], add_w[first]
        lo, hi = _find(keys, add_k)
        found = hi > lo
        weights[lo[found]] = np.minimum(weights[lo[found]], add_w[found])
        changed.append(lo[found])
        if not found.all():
            keys = np.insert(keys, lo[~found], add_k[~found])
            weights = np.insert(weights, lo[~found], add_w[~found])
        if proper.any():  # an insert merges its source's parallel edges
            extra = np.flatnonzero(keys[1:] == keys[:-1]) + 1
            extra = extra[np.isin(keys[extra] // n, ins_s[proper])]
            if extra.size:  # keep each run's lightest, in its first slot
                starts = np.delete(np.arange(keys.size), extra)
                keys, weights = keys[starts], np.minimum.reduceat(weights, starts)

        # tombstones — only newly-killed vertices count; their in- and
        # out-edges leave the snapshot
        newly_dead = np.unique(tomb[alive[tomb]])
        if newly_dead.size:
            alive[newly_dead] = False
            keys, weights = self._live_edges(keys, weights)

        version = self._snapshot.version + 1
        up_s, up_d, up_w = (np.concatenate(column) for column in zip(*up))
        down_s, down_d, down_w = (np.concatenate(column) for column in zip(*down))
        # a lowered or inserted edge at a vertex killed by this batch is gone
        kept = alive[down_s] & alive[down_d]
        summary = MutationSummary(
            version=version,
            has_insert=has_insert,
            has_decrease=has_decrease,
            up_src=up_s,
            up_dst=up_d,
            up_old_w=up_w,
            tombstoned=newly_dead,
            down_src=down_s[kept],
            down_dst=down_d[kept],
            down_w=down_w[kept],
        )
        if keys is first_keys:
            # no edge came or went: reuse the structure (and a built
            # transpose), new weights only
            graph = prev.with_weights(weights, np.concatenate(changed))
        else:
            graph = _csr(keys, weights, n)
        self._snapshot = Snapshot(version=version, graph=graph, summary=summary)
        self._keys = keys
        return self._snapshot

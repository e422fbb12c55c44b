"""Mutation batches and seeded mutation streams for the live-graph path.

The paper's Figure 12 workload is *dynamic* — batched deletions raced
against PeeK's adaptive compaction — and the serving scenario it implies
(navigation under incidents: road closures, link failures, congestion)
needs a first-class value for "what changed": :class:`MutationBatch`, a
frozen batch of edge inserts / deletes / reweights and vertex tombstones
stamped with a simulated-clock instant, applied atomically by
:class:`~repro.dyn.live.LiveGraph` to produce the next snapshot
version.

:class:`IncidentStream` generates seeded batches against the *current*
graph state: closures delete existing edges, congestion multiplies
weights up, clears restore congested edges to their original weight
(a weight *decrease* — the case the prune-bound reuse certificate must
refuse), reopenings re-insert previously closed edges, and outages
tombstone whole vertices.  Batch instants ride the ``repro.load``
virtual clock (exponential inter-arrivals over a horizon), so a load
run's mutation schedule is as reproducible as its query schedule: both
are pure functions of the seeds.

Everything here is deliberately independent of the serving stack —
:mod:`repro.serve` consumes these values, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidWeightError, VertexError

__all__ = [
    "MutationBatch",
    "MutationSummary",
    "IncidentStream",
    "check_batch",
]

_I64 = np.int64
_F64 = np.float64


def _ids(values) -> np.ndarray:
    return np.asarray(values, dtype=_I64)


def _ws(values) -> np.ndarray:
    return np.asarray(values, dtype=_F64)


_EMPTY_I = np.empty(0, dtype=_I64)
_EMPTY_F = np.empty(0, dtype=_F64)


def check_batch(
    alive: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
) -> None:
    """Validate one edge-update batch against the liveness mask ``alive``.

    :class:`~repro.dyn.live.LiveGraph` and
    :class:`~repro.dyn.terrace.TerraceGraph` call this before changing
    anything, so every update is all-or-nothing and both raise the same
    errors: ``src``/``dst`` in range (:class:`~repro.errors.VertexError`),
    sources alive (updating a tombstoned vertex's hidden adjacency would
    drift the edge accounting), weights finite and strictly positive
    (:class:`~repro.errors.InvalidWeightError`, paper Definition 1).
    """
    n = alive.size
    if src.shape != dst.shape:
        raise ValueError("src/dst must be parallel arrays")
    for name, ids in (("src", src), ("dst", dst)):
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n):
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise VertexError(f"{name} vertex {int(bad)} out of range [0, {n})")
    if src.size:
        dead = ~alive[src]
        if dead.any():
            raise VertexError(
                f"source vertex {int(src[dead][0])} is tombstoned; "
                "updates on a dead source are rejected"
            )
    if weights is not None:
        if weights.shape != src.shape:
            raise ValueError("weights must parallel src/dst")
        bad = ~np.isfinite(weights) | (weights <= 0.0)
        if bad.any():
            raise InvalidWeightError(
                f"edge weight {float(weights[bad][0])} is not finite and "
                "strictly positive (paper Definition 1)"
            )


@dataclass(frozen=True)
class MutationBatch:
    """One atomic graph mutation: the unit of versioning.

    Application order within a batch is fixed and documented: deletes,
    then reweights, then inserts, then tombstones.  A reweight of an
    edge deleted earlier in the same batch is therefore a no-op, and an
    insert toward a vertex tombstoned in the same batch is stored dead.

    ``at`` is the simulated instant the batch takes effect (the serving
    loop applies it before dispatching any query issued at or after
    ``at``); it is descriptive for direct :meth:`QueryServer.apply_mutations
    <repro.serve.QueryServer.apply_mutations>` calls.
    """

    insert_src: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    insert_dst: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    insert_w: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    delete_src: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    delete_dst: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    reweight_src: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    reweight_dst: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    reweight_w: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    tombstone: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    #: simulated-clock instant the batch takes effect
    at: float = 0.0

    @classmethod
    def build(
        cls,
        *,
        inserts=(),
        deletes=(),
        reweights=(),
        tombstones=(),
        at: float = 0.0,
    ) -> "MutationBatch":
        """Convenience constructor from edge-tuple lists.

        ``inserts``/``reweights`` are ``(src, dst, weight)`` triples,
        ``deletes`` are ``(src, dst)`` pairs, ``tombstones`` vertex ids.
        """
        ins = list(inserts)
        dels = list(deletes)
        rws = list(reweights)
        return cls(
            insert_src=_ids([e[0] for e in ins]),
            insert_dst=_ids([e[1] for e in ins]),
            insert_w=_ws([e[2] for e in ins]),
            delete_src=_ids([e[0] for e in dels]),
            delete_dst=_ids([e[1] for e in dels]),
            reweight_src=_ids([e[0] for e in rws]),
            reweight_dst=_ids([e[1] for e in rws]),
            reweight_w=_ws([e[2] for e in rws]),
            tombstone=_ids(list(tombstones)),
            at=float(at),
        )

    @property
    def size(self) -> int:
        """Total mutation count across all four kinds."""
        return int(
            self.insert_src.size
            + self.delete_src.size
            + self.reweight_src.size
            + self.tombstone.size
        )

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique vertex ids whose region this batch touches.

        Every endpoint of every mutated edge plus every tombstoned
        vertex — the key a sharded fabric routes the batch by.
        """
        return np.unique(
            np.concatenate(
                [
                    self.insert_src,
                    self.insert_dst,
                    self.delete_src,
                    self.delete_dst,
                    self.reweight_src,
                    self.reweight_dst,
                    self.tombstone,
                ]
            )
        )


@dataclass(frozen=True)
class MutationSummary:
    """What one applied batch *did* — the certificate inputs.

    Produced by :meth:`repro.dyn.live.LiveGraph.apply` after consulting
    the pre-mutation state (old weights, liveness), which is exactly the
    information the prune-bound reuse certificate
    (:func:`repro.core.pruning.prune_reuse_certificate`) and the SSSP tree
    repair (:func:`repro.sssp.repair.carry_trees`) need and the raw batch
    cannot carry.
    """

    #: the version the graph has *after* this batch
    version: int
    #: batch contained at least one effective edge insert
    has_insert: bool
    #: batch contained at least one effective weight decrease
    has_decrease: bool
    #: edges removed or weight-increased, with their OLD weights — the
    #: set the certificate must prove lies outside the pruned subgraph (a
    #: removed edge's is its lightest parallel copy's)
    up_src: np.ndarray
    up_dst: np.ndarray
    up_old_w: np.ndarray
    #: vertices tombstoned by this batch (previously alive)
    tombstoned: np.ndarray
    #: edges inserted or weight-decreased, with their NEW weights, minus
    #: those at a vertex this batch tombstoned — where a cached SSSP tree
    #: can shorten (:meth:`repro.core.batch.BatchPeeK.rebind`)
    down_src: np.ndarray
    down_dst: np.ndarray
    down_w: np.ndarray

    @property
    def increase_only(self) -> bool:
        """True when every effective mutation can only lengthen paths."""
        return not (self.has_insert or self.has_decrease)


class IncidentStream:
    """Seeded incident generator over a live graph.

    Parameters
    ----------
    seed:
        Master seed; the batch schedule and contents are pure functions
        of ``(seed, graph history)``.
    rate:
        Mean batches per simulated second (exponential inter-arrivals).
    batch_size:
        Mutations per batch (before effect filtering).
    p_close, p_congest, p_clear, p_reopen, p_tombstone:
        Mixture weights of the five incident kinds (normalised
        internally).  ``clear`` restores a previously congested edge to
        its original weight (a decrease); ``reopen`` re-inserts a
        previously closed edge — both are the mutations that defeat the
        reuse certificate, so a stream with them exercises cold
        re-solves and one without (``p_clear=p_reopen=0``) exercises
        reuse.
    congestion:
        ``(lo, hi)`` multiplicative weight-increase factor range
        (both > 1).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rate: float = 50.0,
        batch_size: int = 4,
        p_close: float = 0.35,
        p_congest: float = 0.35,
        p_clear: float = 0.15,
        p_reopen: float = 0.1,
        p_tombstone: float = 0.05,
        congestion: tuple[float, float] = (1.5, 4.0),
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if congestion[0] <= 1.0 or congestion[1] < congestion[0]:
            raise ValueError("congestion factors must satisfy 1 < lo <= hi")
        weights = np.array(
            [p_close, p_congest, p_clear, p_reopen, p_tombstone], dtype=_F64
        )
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("incident probabilities must be non-negative, sum > 0")
        self._p = weights / weights.sum()
        self.seed = seed
        self.rate = float(rate)
        self.batch_size = int(batch_size)
        self.congestion = (float(congestion[0]), float(congestion[1]))
        self._rng = np.random.default_rng(seed)
        #: closed edges available for reopening: (src, dst, original w)
        self._closed: list[tuple[int, int, float]] = []
        #: congested edges available for clearing: (src, dst, original w)
        self._congested: dict[tuple[int, int], float] = {}
        #: vertices this stream tombstoned in earlier batches; a consumer
        #: that draws batch N+1 before applying batch N still sees them
        #: alive, and an update on a dead source would fail the whole batch
        self._tombstoned: set[int] = set()

    # ------------------------------------------------------------------
    def batches(self, live, horizon: float):
        """Yield timed :class:`MutationBatch` instants over ``horizon``.

        ``live`` is the :class:`~repro.dyn.live.LiveGraph` the batches
        will be applied to; each batch is generated against the graph
        state *as of the previous batch* (the stream assumes its batches
        are applied in order, which the serving loop guarantees).
        """
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / self.rate))
            if t >= horizon:
                return
            batch = self.next_batch(live, at=t)
            if not batch.is_empty:
                yield batch

    def next_batch(self, live, *, at: float = 0.0) -> MutationBatch:
        """Generate one batch against ``live``'s current snapshot."""
        graph = live.graph
        alive = live.alive
        rng = self._rng
        deletes: list[tuple[int, int]] = []
        reweights: list[tuple[int, int, float]] = []
        inserts: list[tuple[int, int, float]] = []
        tombstones: list[int] = []
        # edges already chosen by this batch, to keep mutations disjoint
        chosen: set[tuple[int, int]] = set()
        src_all = graph.edge_sources()
        m = graph.num_edges
        for kind in rng.choice(5, size=self.batch_size, p=self._p).tolist():
            if kind in (0, 1) and m > 0:  # close / congest an existing edge
                for _ in range(8):  # rejection-sample a live, unchosen edge
                    e = int(rng.integers(0, m))
                    u, v = int(src_all[e]), int(graph.indices[e])
                    w = float(graph.weights[e])
                    if (
                        (u, v) in chosen
                        or not (alive[u] and alive[v])
                        or u in self._tombstoned
                    ):
                        continue
                    chosen.add((u, v))
                    if kind == 0:
                        deletes.append((u, v))
                        self._closed.append((u, v, w))
                        self._congested.pop((u, v), None)
                    else:
                        # compound on the *current* weight so repeated
                        # congestion is always an increase (factor > 1);
                        # remember the first-seen weight for clearing
                        factor = float(
                            rng.uniform(self.congestion[0], self.congestion[1])
                        )
                        self._congested.setdefault((u, v), w)
                        reweights.append((u, v, w * factor))
                    break
            elif kind == 2 and self._congested:  # clear congestion (decrease)
                i = int(rng.integers(0, len(self._congested)))
                (u, v) = list(self._congested.keys())[i]
                if not (alive[u] and alive[v]) or u in self._tombstoned:
                    # an endpoint was tombstoned since: never clearable
                    del self._congested[(u, v)]
                    continue
                if (u, v) in chosen:
                    continue
                chosen.add((u, v))
                reweights.append((u, v, self._congested.pop((u, v))))
            elif kind == 3 and self._closed:  # reopen a closed edge
                i = int(rng.integers(0, len(self._closed)))
                u, v, w = self._closed.pop(i)
                if not (alive[u] and alive[v]) or u in self._tombstoned:
                    continue  # dropped: the road no longer has endpoints
                if (u, v) in chosen:
                    self._closed.append((u, v, w))  # try again another batch
                    continue
                chosen.add((u, v))
                inserts.append((u, v, w))
            elif kind == 4:  # vertex outage
                candidates = np.flatnonzero(alive)
                if candidates.size <= 2:
                    continue
                x = int(candidates[int(rng.integers(0, candidates.size))])
                tombstones.append(x)
        self._tombstoned.update(tombstones)
        return MutationBatch.build(
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            tombstones=tombstones,
            at=at,
        )

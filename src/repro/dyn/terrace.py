"""A Terrace-like hierarchical dynamic-graph container (paper §7.7).

Terrace (Pandey et al., SIGMOD 2021) stores a vertex's neighbours in one of
several data structures *chosen by degree*: a small in-place buffer for
low-degree vertices, a packed-memory-array level for medium degrees, and a
B-tree for the heaviest vertices.  Point updates are cheap (amortised
polylog), but the structure pays per-edge costs on updates, whereas CSR
regeneration pays a flat cost proportional to what *remains*.

Figure 12 compares exactly that trade-off against PeeK's adaptive
compaction, so this reproduction implements the same three-level shape:

* level 0 — plain Python list of ``(target, weight)`` pairs (≤ 8);
* level 1 — a pair of sorted NumPy arrays (≤ 512);
* level 2 — a list of bounded sorted chunks (a flattened B-tree).

The container supports batched edge insertion/deletion/reweighting and
lazy vertex tombstoning (what the Fig 12 workload and the live-graph
serving path need), neighbour iteration for SSSP, and CSR snapshot
extraction (:meth:`TerraceGraph.to_csr`) for the live serving layer
(:mod:`repro.dyn.live`).

Update semantics (fixed and now locked down by regression tests):

* every batched update validates its inputs up front — ``src``/``dst``
  in range (:class:`~repro.errors.VertexError`) and weights finite and
  strictly positive (:class:`~repro.errors.InvalidWeightError`, the
  paper's Definition 1) — so a bad target can never be stored and later
  crash ``neighbors()``;
* updates on a **tombstoned source raise** :class:`~repro.errors.VertexError`
  — silently mutating hidden adjacency used to drift ``num_edges``
  (inserts on a dead source inflated the count while ``neighbors()``
  stayed empty);
* inserting an edge *to* a tombstoned target is allowed (it is stored,
  like any edge that later loses its target) but it is never *live*:
  ``neighbors()`` filters it and :meth:`num_live_edges` does not count
  it; ``num_edges`` remains the stored upper bound;
* cost counters charge **actual work**: ``stats.point_deletes`` counts
  edges that really existed, and ``stats.elements_moved`` is only
  charged for vertices whose structure was actually rebuilt.

:meth:`check_invariants` audits the accounting; the property tests in
``tests/dyn`` run it after every mutation batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidWeightError, VertexError
from repro.graph.csr import CSRGraph
from repro.paths import INF
from repro.sssp.result import SSSPResult, SSSPStats

__all__ = ["TerraceGraph"]

_SMALL_CAP = 8
_MEDIUM_CAP = 512
_CHUNK = 256

#: shared one-element prefix for duplicate-run masks (hoisted so the
#: per-vertex rebuild loop allocates nothing O(n); see RPR003)
_TRUE1 = np.ones(1, dtype=bool)


@dataclass
class _Small:
    pairs: list  # [(target, weight)]


@dataclass
class _Medium:
    targets: np.ndarray
    weights: np.ndarray


@dataclass
class _Large:
    chunks: list  # list[_Medium-like chunks, sorted by first target]


@dataclass
class TerraceStats:
    """Update-cost counters (the Fig 12 'compact' cost of Terrace)."""

    point_deletes: int = 0
    point_inserts: int = 0
    point_reweights: int = 0
    level_migrations: int = 0
    elements_moved: int = 0


class TerraceGraph:
    """Hierarchical per-vertex adjacency with degree-adaptive levels."""

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise VertexError("num_vertices must be non-negative")
        self._n = num_vertices
        self._adj: list = [_Small(pairs=[]) for _ in range(num_vertices)]
        self._alive = np.ones(num_vertices, dtype=bool)
        self._m = 0
        self.stats = TerraceStats()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "TerraceGraph":
        """Bulk-load from a CSR graph (choosing each vertex's level once)."""
        tg = cls(graph.num_vertices)
        for v in range(graph.num_vertices):  # contracts: disable=CTR201 (bounded)
            targets, weights = graph.neighbors(v)
            deg = targets.size
            if deg == 0:
                continue
            order = np.argsort(targets, kind="stable")
            t, w = targets[order], weights[order]
            tg._adj[v] = tg._make_level(t, w)
            tg._m += deg
        return tg

    @staticmethod
    def _make_level(targets: np.ndarray, weights: np.ndarray):
        deg = targets.size
        if deg <= _SMALL_CAP:
            return _Small(pairs=list(zip(targets.tolist(), weights.tolist())))
        if deg <= _MEDIUM_CAP:
            return _Medium(targets=targets.copy(), weights=weights.copy())
        chunks = []
        for i in range(0, deg, _CHUNK):
            chunks.append(
                _Medium(
                    targets=targets[i : i + _CHUNK].copy(),
                    weights=weights[i : i + _CHUNK].copy(),
                )
            )
        return _Large(chunks=chunks)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Stored out-edge count of live vertices.

        After lazy vertex deletion this is an upper bound on the *live*
        edge count: edges pointing at tombstoned vertices remain stored
        (and are filtered at query time), exactly as in Terrace.
        """
        return self._m

    def is_alive(self, v: int) -> bool:
        self._check(v)
        return bool(self._alive[v])

    def alive_mask(self) -> np.ndarray:
        """A copy of the vertex liveness mask (True = not tombstoned)."""
        return self._alive.copy()

    def degree(self, v: int) -> int:
        self._check(v)
        level = self._adj[v]
        if isinstance(level, _Small):
            return len(level.pairs)
        if isinstance(level, _Medium):
            return int(level.targets.size)
        return sum(int(c.targets.size) for c in level.chunks)

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of ``v``'s live out-edges."""
        self._check(v)
        if not self._alive[v]:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        level = self._adj[v]
        if isinstance(level, _Small):
            if not level.pairs:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            t = np.fromiter((p[0] for p in level.pairs), dtype=np.int64)
            w = np.fromiter((p[1] for p in level.pairs), dtype=np.float64)
        elif isinstance(level, _Medium):
            t, w = level.targets, level.weights
        else:
            t = np.concatenate([c.targets for c in level.chunks])
            w = np.concatenate([c.weights for c in level.chunks])
        live = self._alive[t]
        if live.all():
            return t, w
        return t[live], w[live]

    def has_edge(self, u: int, v: int) -> bool:
        t, _ = self.neighbors(u)
        return bool(np.any(t == v))

    def edge_weight(self, u: int, v: int) -> float | None:
        """The live weight of edge ``u → v``, or ``None`` when absent."""
        t, w = self.neighbors(u)
        mask = t == v
        if not np.any(mask):
            return None
        return float(w[mask][0])

    def num_live_edges(self) -> int:
        """Exact count of live edges (live source *and* live target).

        O(m): this is the per-edge liveness scan ``num_edges`` avoids —
        the stored count stays the cheap upper bound, this is the truth.
        """
        return sum(
            int(self.neighbors(v)[0].size)
            for v in range(self._n)
            if self._alive[v]
        )

    def level_name(self, v: int) -> str:
        """Which level stores ``v``'s adjacency ("small"/"medium"/"large")."""
        level = self._adj[v]
        if isinstance(level, _Small):
            return "small"
        if isinstance(level, _Medium):
            return "medium"
        return "large"

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _check_batch(
        self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None
    ) -> None:
        """Validate one update batch up front, before any state changes.

        Batches are applied per-source-vertex as a sequence of rebuilds,
        so a mid-batch failure would leave the container half-mutated;
        validating everything first keeps every update all-or-nothing.
        Sources must additionally be *alive* — updating a tombstoned
        vertex's hidden adjacency would silently drift the edge
        accounting (the regression this check pins down).
        """
        if src.shape != dst.shape:
            raise ValueError("src/dst must be parallel arrays")
        for name, ids in (("src", src), ("dst", dst)):
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self._n):
                bad = ids[(ids < 0) | (ids >= self._n)][0]
                raise VertexError(
                    f"{name} vertex {int(bad)} out of range [0, {self._n})"
                )
        if src.size:
            dead = ~self._alive[src]
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

    def insert_edges(self, src, dst, weights) -> None:
        """Insert a batch of edges (duplicates allowed, kept lighter one).

        ``dst`` is range-checked and weights must be finite and strictly
        positive *before* anything is stored; the source vertices must be
        alive (:class:`~repro.errors.VertexError` otherwise).  Inserting
        an edge toward a tombstoned target is legal — the edge is stored
        (and counted in the stored upper bound ``num_edges``) but stays
        invisible to ``neighbors()`` until the target is resurrected by a
        future snapshot reload.  Self-loops are dropped (and not charged):
        the CSR substrate drops them too (a positive-weight loop can never
        lie on a simple shortest path), and the two conventions must
        agree for snapshot extraction to round-trip.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        self._check_batch(src, dst, weights)
        proper = src != dst
        if not proper.all():
            src, dst, weights = src[proper], dst[proper], weights[proper]
        order = np.argsort(src, kind="stable")
        src, dst, weights = src[order], dst[order], weights[order]
        bounds = np.searchsorted(src, np.arange(self._n + 1))
        for v in np.unique(src).tolist():
            lo, hi = bounds[v], bounds[v + 1]
            old_t, old_w = self._raw(v)
            add_t, add_w = dst[lo:hi], weights[lo:hi]
            merged_t = np.concatenate([old_t, add_t])
            merged_w = np.concatenate([old_w, add_w])
            o = np.lexsort((merged_w, merged_t))
            merged_t, merged_w = merged_t[o], merged_w[o]
            first = np.concatenate((_TRUE1, merged_t[1:] != merged_t[:-1]))
            self._m += int(first.sum()) - old_t.size
            self._replace(v, merged_t[first], merged_w[first])
            self.stats.point_inserts += int(add_t.size)

    def delete_edges(self, src, dst) -> int:
        """Delete a batch of ``(src, dst)`` edges; returns how many existed.

        Deletions are grouped per source vertex and applied as one rebuild
        of that vertex's structure — the amortised-batch behaviour of a
        PMA/B-tree level.  The per-edge accounting charges **actual**
        work: ``stats.point_deletes`` counts edges that really existed
        (requesting a missing edge is free) and ``stats.elements_moved``
        is charged only for vertices whose structure was rebuilt — the
        Figure 12 cost comparison depends on this honesty.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_batch(src, dst, None)
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        removed = 0
        bounds = np.searchsorted(src, np.arange(self._n + 1))
        for v in np.unique(src).tolist():
            lo, hi = bounds[v], bounds[v + 1]
            kill = np.unique(dst[lo:hi])
            old_t, old_w = self._raw(v)
            if old_t.size == 0:
                continue
            keep = ~np.isin(old_t, kill)
            gone = int(old_t.size - keep.sum())
            if gone:
                self._replace(v, old_t[keep], old_w[keep])
                removed += gone
                self._m -= gone
                self.stats.point_deletes += gone
                self.stats.elements_moved += int(old_t.size)
        return removed

    def reweight_edges(self, src, dst, weights) -> np.ndarray:
        """Set the weight of existing edges; returns the *old* weights.

        The returned ``float64`` array parallels the inputs: position
        ``i`` holds the previous weight of edge ``(src[i], dst[i])``, or
        ``NaN`` when that edge does not exist (missing edges are left
        untouched — a reweight is never an insert).  The old weights are
        what the live-graph layer needs to classify a mutation batch as
        weight-increase-only for the prune-bound reuse certificate
        (:func:`repro.core.pruning.prune_reuse_certificate`).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        self._check_batch(src, dst, weights)
        old = np.full(src.size, np.nan, dtype=np.float64)
        order = np.argsort(src, kind="stable")
        bounds = np.searchsorted(src[order], np.arange(self._n + 1))
        for v in np.unique(src).tolist():
            pos = order[bounds[v] : bounds[v + 1]]
            old_t, old_w = self._raw(v)
            if old_t.size == 0:
                continue
            idx = np.searchsorted(old_t, dst[pos])
            found = (idx < old_t.size) & (old_t[np.minimum(idx, old_t.size - 1)] == dst[pos])
            if not found.any():
                continue
            hit_pos = pos[found]
            hit_idx = idx[found]
            old[hit_pos] = old_w[hit_idx]
            new_w = old_w.copy()
            new_w[hit_idx] = weights[hit_pos]
            self._replace(v, old_t, new_w)
            self.stats.point_reweights += int(hit_pos.size)
            self.stats.elements_moved += int(old_t.size)
        return old

    def delete_vertices(self, vertices) -> None:
        """Mark vertices dead; their in/out edges disappear from queries.

        Terrace-style lazy vertex deletion: the tombstone costs O(1), the
        per-edge cost is paid by later traversals (mirrored by the
        ``neighbors`` liveness filter).  Already-dead vertices are a
        no-op and are not charged to ``stats.point_deletes``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self._n
        ):
            raise VertexError("vertex id out of range")
        killed = 0
        for v in vertices.tolist():
            if self._alive[v]:
                self._m -= self.degree(v)
                self._adj[v] = _Small(pairs=[])
                killed += 1
        self._alive[vertices] = False
        self.stats.point_deletes += killed

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def sssp(self, source: int) -> SSSPResult:
        """Dijkstra over the hierarchical structure.

        Deliberately implemented against :meth:`neighbors` (not a flat edge
        array): traversing a pointer-rich container is exactly the constant-
        factor cost Terrace pays on scans, which Figure 12's "SSSP" series
        reflects.
        """
        import heapq

        self._check(source)
        if not self._alive[source]:
            raise VertexError(f"source {source} is deleted")
        dist = np.full(self._n, INF, dtype=np.float64)
        parent = np.full(self._n, -1, dtype=np.int64)
        settled = np.zeros(self._n, dtype=bool)
        stats = SSSPStats()
        dist[source] = 0.0
        parent[source] = source
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            stats.vertices_settled += 1
            targets, weights = self.neighbors(u)
            for v, w in zip(targets.tolist(), weights.tolist()):
                if settled[v]:
                    continue
                stats.edges_relaxed += 1
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        stats.phases = stats.vertices_settled
        return SSSPResult(source=source, dist=dist, parent=parent, stats=stats)

    def to_csr(self) -> CSRGraph:
        """Extract an immutable CSR snapshot of the *live* graph.

        The snapshot has the same vertex space (tombstoned vertices
        become isolated — ids stay stable across versions, which is what
        lets cached SSSP results survive snapshots) and contains exactly
        the live edges in stored (target-sorted) order, so two extractions
        of the same state are bitwise identical.  The serving layer stamps
        each snapshot with a monotone version id
        (:class:`repro.dyn.live.LiveGraph`).
        """
        degrees = np.zeros(self._n, dtype=np.int64)
        parts_t: list[np.ndarray] = []
        parts_w: list[np.ndarray] = []
        for v in range(self._n):
            if not self._alive[v]:
                continue
            t, w = self.neighbors(v)
            if t.size:
                degrees[v] = t.size
                parts_t.append(t)
                parts_w.append(w)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        if parts_t:
            indices = np.concatenate(parts_t)
            weights = np.concatenate(parts_w)
        else:
            indices = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.float64)
        # weights were validated positive-finite on the way in and
        # targets range-checked, so the CSR invariants hold by
        # construction (SAN-CSR audits this under sanitizers)
        return CSRGraph(indptr, indices, weights, check=False)

    def check_invariants(self) -> None:
        """Audit the container's accounting; raises ``AssertionError``.

        Checks, in order: ``num_edges`` equals the stored out-degree sum
        over live vertices; tombstoned vertices store nothing; all stored
        targets are in range with finite positive weights and no
        duplicate targets; ``neighbors()`` is exactly the stored list
        filtered by target liveness.  The dyn property tests call this
        after every mutation batch.
        """
        stored = 0
        for v in range(self._n):
            t, w = self._raw(v)
            if not self._alive[v]:
                assert t.size == 0, f"tombstoned vertex {v} stores {t.size} edges"
                continue
            stored += t.size
            if t.size:
                assert 0 <= int(t.min()) and int(t.max()) < self._n, (
                    f"vertex {v} stores an out-of-range target"
                )
                assert np.all(t[1:] >= t[:-1]), (
                    f"vertex {v}'s stored targets are not sorted"
                )
                assert np.all(np.isfinite(w)) and float(w.min()) > 0.0, (
                    f"vertex {v} stores a non-positive or non-finite weight"
                )
            live_t, live_w = self.neighbors(v)
            keep = self._alive[t] if t.size else np.empty(0, dtype=bool)
            assert np.array_equal(live_t, t[keep]) and np.array_equal(
                live_w, w[keep]
            ), f"vertex {v}: neighbors() disagrees with stored liveness filter"
        assert stored == self._m, (
            f"num_edges drifted: stored {stored}, counted {self._m}"
        )

    def memory_bytes(self) -> int:
        """Approximate container footprint."""
        total = self._alive.nbytes
        for level in self._adj:
            if isinstance(level, _Small):
                total += 48 * len(level.pairs)
            elif isinstance(level, _Medium):
                total += level.targets.nbytes + level.weights.nbytes
            else:
                total += sum(
                    c.targets.nbytes + c.weights.nbytes for c in level.chunks
                )
        return int(total)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(f"vertex {v} out of range [0, {self._n})")

    def _raw(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored adjacency of ``v``, ignoring target liveness."""
        level = self._adj[v]
        if isinstance(level, _Small):
            if not level.pairs:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            return (
                np.fromiter((p[0] for p in level.pairs), dtype=np.int64),
                np.fromiter((p[1] for p in level.pairs), dtype=np.float64),
            )
        if isinstance(level, _Medium):
            return level.targets, level.weights
        return (
            np.concatenate([c.targets for c in level.chunks]),
            np.concatenate([c.weights for c in level.chunks]),
        )

    def _replace(self, v: int, targets: np.ndarray, weights: np.ndarray) -> None:
        old = self._adj[v]
        new = self._make_level(targets, weights)
        if type(old) is not type(new):
            self.stats.level_migrations += 1
        self._adj[v] = new

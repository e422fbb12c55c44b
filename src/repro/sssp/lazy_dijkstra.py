"""Pausable, resumable Dijkstra — the SSSP-reuse engine behind SB*.

The SB* algorithm (Al Zoobi, Coudert, Nisse) avoids recomputing reverse
shortest-path trees from scratch: when a deviation search needs the distance
of one more vertex, it *resumes* a previously paused Dijkstra instead of
starting over.  :class:`LazyDijkstra` is that primitive: construction does no
work; :meth:`distance_to` settles vertices only until the queried vertex is
final, and subsequent queries continue from the paused heap state.
"""

from __future__ import annotations

import heapq
from typing import Collection

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.paths import INF
from repro.sssp.result import SSSPResult, SSSPStats
from repro.sssp.workspace import BOOL_BANS

__all__ = ["LazyDijkstra"]


class LazyDijkstra:
    """Incremental Dijkstra from a fixed source on a fixed graph.

    Parameters
    ----------
    graph:
        The graph to search.  Pass ``graph.reverse()`` with the KSP target
        as ``source`` to get an incrementally-computed reverse SP tree.
    source:
        Root vertex.
    banned_vertices:
        Ids of the vertices excluded from the search, fixed for the lifetime of this
        instance (a new removal set needs a new instance — SB* shares
        instances between deviations with the same removal set).  An id
        outside ``[0, n)`` raises :class:`~repro.errors.VertexError`; a
        ``bool`` mask raises ``TypeError``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        source: int,
        *,
        banned_vertices: Collection[int] | None = None,
    ) -> None:
        n = graph.num_vertices
        if not 0 <= source < n:
            raise VertexError(f"source {source} out of range [0, {n})")
        self.graph = graph
        self.source = source
        self.dist = np.full(n, INF, dtype=np.float64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.settled = np.zeros(n, dtype=bool)
        self.stats = SSSPStats()
        if banned_vertices is None:
            self._banned = None
        else:
            ids = np.asarray(list(banned_vertices))
            if ids.dtype == np.bool_:
                raise TypeError(BOOL_BANS)
            ids = ids.astype(np.int64)
            self._banned = np.zeros(n, dtype=bool)
            if not ((ids >= 0) & (ids < n)).all():
                raise VertexError(f"banned vertex out of range [0, {n})")
            self._banned[ids] = True
            if self._banned[source]:
                raise VertexError(f"source {source} is banned")
        self.dist[source] = 0.0
        self.parent[source] = source
        self._heap: list[tuple[float, int]] = [(0.0, source)]

    @property
    def exhausted(self) -> bool:
        """True when every reachable vertex has been settled."""
        return not self._heap

    def distance_to(self, v: int) -> float:
        """Settle vertices until ``v`` is final; return its distance.

        Returns ``inf`` when ``v`` is unreachable (or banned).  Each call
        resumes from where the previous one paused — this is the "resume the
        previously computed SSSP" behaviour the paper attributes to SB*.
        """
        if not 0 <= v < self.graph.num_vertices:
            raise VertexError(f"vertex {v} out of range")
        if self.settled[v]:
            return float(self.dist[v])
        if self._banned is not None and self._banned[v]:
            return INF

        heap = self._heap
        dist = self.dist
        parent = self.parent
        settled = self.settled
        banned = self._banned
        begins, ends, indices, weights, edge_mask = self.graph.adjacency_arrays()
        stats = self.stats
        push = heapq.heappush
        pop = heapq.heappop

        while heap:
            d, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = True
            stats.vertices_settled += 1
            lo, hi = begins[u], ends[u]
            for e in range(lo, hi):
                if edge_mask is not None and not edge_mask[e]:
                    continue
                t = indices[e]
                if settled[t]:
                    continue
                if banned is not None and banned[t]:
                    continue
                stats.edges_relaxed += 1
                nd = d + weights[e]
                if nd < dist[t]:
                    dist[t] = nd
                    parent[t] = u
                    push(heap, (nd, t))
                    stats.heap_pushes += 1
            if u == v:
                return float(d)
        return float(dist[v]) if settled[v] else INF

    def run_to_completion(self) -> SSSPResult:
        """Settle everything reachable and return a full :class:`SSSPResult`."""
        heap = self._heap
        while heap:
            head = heap[0][1]
            if self.settled[head]:
                heapq.heappop(heap)  # stale entry: lazy deletion
                continue
            self.distance_to(head)
        self.stats.phases = self.stats.vertices_settled
        return SSSPResult(
            source=self.source,
            dist=self.dist,
            parent=self.parent,
            stats=self.stats,
        )

    def snapshot(self) -> "LazyDijkstra":
        """Deep-copy the paused state (SB stores one per prefix tree)."""
        clone = object.__new__(LazyDijkstra)
        clone.graph = self.graph
        clone.source = self.source
        clone.dist = self.dist.copy()
        clone.parent = self.parent.copy()
        clone.settled = self.settled.copy()
        clone.stats = SSSPStats(
            edges_relaxed=self.stats.edges_relaxed,
            vertices_settled=self.stats.vertices_settled,
            heap_pushes=self.stats.heap_pushes,
            phases=self.stats.phases,
            phase_work=list(self.stats.phase_work),
        )
        clone._banned = None if self._banned is None else self._banned.copy()
        clone._heap = list(self._heap)
        return clone

    def memory_bytes(self) -> int:
        """Approximate state size — SB's space/time trade-off is about this."""
        base = self.dist.nbytes + self.parent.nbytes + self.settled.nbytes
        if self._banned is not None:
            base += self._banned.nbytes
        return int(base + 16 * len(self._heap))

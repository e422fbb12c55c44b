"""Binary-heap Dijkstra with the deviation-search hooks Yen-style KSP needs.

This kernel is deliberately a tight scalar loop: inside a KSP run it is
called thousands of times on small remaining graphs, where the fixed cost of
vectorised machinery would dominate.  It runs over the Python-list mirror of
the CSR that an :class:`~repro.sssp.workspace.SSSPWorkspace` keeps (~2x
faster than per-element NumPy indexing), with epoch-stamped labels and lazy
deletion keeping the heap simple.

There is one relaxation loop and two ways to call it:

* **with** ``workspace=SSSPWorkspace(graph)`` — the KSP spur-search hot
  path: per-query setup is O(1) via epoch stamps, the banned-vertex mask is
  maintained incrementally, and the result is a
  :class:`~repro.sssp.workspace.WorkspaceResult` read through its epoch;
* **without** — the loop runs on a throwaway workspace and the result is an
  :class:`~repro.sssp.result.SSSPResult` that owns its arrays.

A target-stopped search may also be *goal-directed*: given ``potential=``,
a per-vertex lower bound on the distance to ``target``, the loop is A*
(heap key ``dist + potential[v]``).  Without one it keys on a cached
all-zero potential — ``nd + 0.0 == nd`` — so plain Dijkstra is the same
loop, bitwise.  A ``limit=`` ends the search once a popped key passes it,
for callers that have no use for a farther target.

A full tree with no bans, no target and no potential — the two SSSPs of
PeeK's pruning stage — has a compiled twin, :func:`dijkstra_tree`: SciPy's
Dijkstra, returning this loop's parents, work counters and checkpoint visits
exactly.  What costs a pass over every edge is paid only when read: a
:class:`CompiledTree` resolves the loop's parent of one vertex at a time
(:meth:`CompiledTree.parent_of`) until more than ``n //
PARENT_FALLBACK_SHARE`` are resolved, and builds the whole array
(:func:`loop_parents`) when ``.parent`` is read or past that share;
``edges_relaxed`` is counted on its first read, or at once under an
enabled tracer.  ``vertices_settled``, ``phases`` and the checkpoint visits
stay eager.
"""

from __future__ import annotations

import heapq
from typing import Collection, Sequence

import numpy as np

from repro.cancel import SETTLE_CHECK_INTERVAL, cancellation_active, checkpoint
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.paths import INF
from repro.sssp.result import SSSPResult, SSSPStats
from repro.sssp.workspace import SSSPWorkspace, WorkspaceResult

__all__ = ["CompiledTree", "compiled_tree", "dijkstra", "dijkstra_tree", "loop_parents"]


def dijkstra(
    graph: CSRGraph,
    source: int,
    *,
    target: int | None = None,
    banned_vertices: Collection[int] | None = None,
    banned_edges: Collection[tuple[int, int]] | None = None,
    workspace: SSSPWorkspace | None = None,
    potential: Sequence[float] | np.ndarray | None = None,
    limit: float = INF,
    deadline: float | None = None,
) -> SSSPResult | WorkspaceResult:
    """Single-source shortest paths from ``source``.

    Parameters
    ----------
    graph:
        The CSR graph.  For a reverse SSSP pass ``graph.reverse()`` and the
        target as ``source``.
    target:
        Stop as soon as this vertex is settled (Yen's suffix searches only
        need the one distance).  The returned ``dist`` is still valid for
        every vertex settled before the stop.
    banned_vertices:
        Ids of vertices to treat as deleted (Yen's prefix/"red" vertices);
        an id outside ``[0, n)`` raises :class:`~repro.errors.VertexError`
        and a ``bool`` mask raises ``TypeError``.  The source itself must
        not be banned.
    banned_edges:
        Set of ``(u, v)`` pairs to skip (Yen's removed deviation edges).
    workspace:
        A :class:`~repro.sssp.workspace.SSSPWorkspace` bound to ``graph``.
        When given, the query reuses the workspace's epoch-stamped state
        (O(1) setup, incremental ban mask) and returns a
        :class:`~repro.sssp.workspace.WorkspaceResult` — same values, valid
        until the workspace's next query unless materialised, and
        ``banned_vertices`` are folded into the workspace's incremental
        mask.  Without a workspace the query runs on a throwaway one and returns an
        :class:`~repro.sssp.result.SSSPResult` owning its arrays.
    potential:
        A* mode: ``potential[v]`` is a lower bound on the ``v → target``
        distance that is *consistent* (``potential[u] <= w(u, v) +
        potential[v]`` on every edge), e.g. exact distances to ``target``
        in a supergraph of the searched one.  The heap key becomes
        ``dist + potential[v]`` (ties still break on the smallest vertex
        id), vertices whose potential is ``inf`` are never pushed, and
        ``target`` is required.  Every settled vertex's ``dist`` is still
        exact; fewer vertices are settled.  A list is read in place; an
        array is converted per call, so repeat callers pass a list.  A
        potential of length other than ``n``, or one without ``target``,
        raises :class:`ValueError`.
    limit:
        Stop once a popped heap key exceeds ``limit``: no vertex left on
        the heap is settled.  With a consistent potential the key is a
        lower bound on any ``source → target`` distance through that
        vertex, so a target at distance ``<= limit`` is found exactly as
        without the limit, and a farther one is left unreached (even when
        it was labelled before the stop) — what a
        spur search needs when any suffix above ``limit`` is useless to
        the caller (OptYen under PeeK's prune bound).  The default
        ``inf`` never stops.
    deadline:
        Absolute time, on the clock :mod:`repro.cancel` has installed
        (wall time by default, virtual time under a ``SimClock``), after
        which the kernel cooperatively raises
        :class:`~repro.errors.KSPTimeout`, checked at entry and once per
        settle batch (:data:`repro.cancel.SETTLE_CHECK_INTERVAL` vertices).

    Returns
    -------
    SSSPResult | WorkspaceResult
        ``dist``/``parent`` arrays plus work counters.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise VertexError(f"source {source} out of range [0, {n})")
    if target is not None and not 0 <= target < n:
        raise VertexError(f"target {target} out of range [0, {n})")

    if workspace is not None and workspace.graph is not graph:
        raise ValueError(
            "workspace is bound to a different graph; create one "
            "SSSPWorkspace per graph"
        )
    if potential is not None:
        if target is None:
            raise ValueError("an A* potential needs a target")
        if len(potential) != n:
            raise ValueError(
                f"potential has length {len(potential)}, expected {n}"
            )
    ws = SSSPWorkspace(graph) if workspace is None else workspace
    if potential is None:
        pot = ws.zero_potential()
    elif isinstance(potential, np.ndarray):
        pot = potential.tolist()
    else:
        pot = potential

    # Banned ids fold into the workspace's incremental mask, so repeat
    # callers pay only the delta between consecutive ban sets instead of an
    # O(n) rebuild.
    ban: bytearray | None
    if banned_vertices is None:
        ws.apply_bans(())
        ban = None
    else:
        ws.apply_bans(banned_vertices)
        ban = ws.ban_bytes
        if ban[source]:
            raise VertexError(f"source {source} is banned")

    stats = SSSPStats()
    ep = ws.next_epoch()
    dist, parent, dstamp, sstamp = ws.scalar_state()
    begins, ends, indices, weights, edge_mask = ws.adjacency_lists()

    src = int(source)
    tgt = -1 if target is None else int(target)
    check_edges = bool(banned_edges)
    check_ban = ban is not None
    check_cancel = cancellation_active(deadline)
    if check_cancel:
        checkpoint(deadline, "sssp.dijkstra")

    dist[src] = 0.0
    parent[src] = src
    dstamp[src] = ep
    # heap entries are (dist + potential, vertex): with the zero potential
    # the key is the distance itself, and ties break on the smaller id
    heap: list[tuple[float, int]] = [(0.0 + pot[src], src)]
    push = heapq.heappush
    pop = heapq.heappop

    settled_ct = 0
    relaxed = 0
    pushes = 0

    while heap:
        key, u = pop(heap)
        if key > limit:
            # every key left is larger: nothing within the limit, and a
            # tentative label on the target is no answer
            if tgt >= 0:
                dstamp[tgt] = 0
            break
        if sstamp[u] == ep:
            continue  # stale heap entry (lazy deletion)
        sstamp[u] = ep
        # the first pop of u carries its smallest key, i.e. its final dist
        d = dist[u]
        settled_ct += 1
        if check_cancel and settled_ct & (SETTLE_CHECK_INTERVAL - 1) == 0:
            checkpoint(deadline, "sssp.dijkstra")
        if u == tgt:
            break
        lo, hi = begins[u], ends[u]
        for e in range(lo, hi):
            if edge_mask is not None and not edge_mask[e]:
                continue
            v = indices[e]
            if sstamp[v] == ep:
                continue
            if check_ban and ban[v]:
                continue
            if check_edges and (u, v) in banned_edges:  # type: ignore[operator]
                continue
            relaxed += 1
            nd = d + weights[e]
            if dstamp[v] != ep or nd < dist[v]:
                key = nd + pot[v]
                if key == INF:
                    continue  # the potential says v cannot reach the target
                dist[v] = nd
                parent[v] = u
                dstamp[v] = ep
                push(heap, (key, v))
                pushes += 1

    stats.vertices_settled = settled_ct
    stats.edges_relaxed = relaxed
    stats.heap_pushes = pushes
    # A serial Dijkstra settles one vertex per step, which is exactly its
    # parallel-phase structure: report it so the simulator can model the
    # non-scalable inner loop.
    stats.phases = settled_ct
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add("sssp.calls")
        tracer.add("sssp.edges_relaxed", relaxed)
        tracer.add("sssp.vertices_settled", settled_ct)
        tracer.add("sssp.heap_pushes", pushes)
        if workspace is not None:
            tracer.add("workspace.queries")
            if ep > 1:
                tracer.add("workspace.epoch_reuses")
    res = WorkspaceResult(ws, src, ep, stats)
    if workspace is not None:
        return res
    return SSSPResult(source=source, dist=res.dist, parent=res.parent, stats=stats)




#: A :class:`CompiledTree` resolves parents one vertex at a time until it
#: has resolved more than ``n // PARENT_FALLBACK_SHARE`` of them; past that
#: share a scan is walking most of the tree, and one vectorised pass over
#: every edge is cheaper than per-vertex slices.
PARENT_FALLBACK_SHARE = 64


def _edge_dists(graph: CSRGraph, dist: np.ndarray):
    """Each edge's endpoints and endpoint distances, NaN where unreached
    (every comparison against NaN is False)."""
    src, dst = graph.edge_sources(), graph.indices
    dn = np.where(np.isfinite(dist), dist, np.nan)
    return src, dst, dn[src], dn[dst]


def loop_parents(
    graph: CSRGraph, root: int, dist: np.ndarray, pred: np.ndarray
) -> np.ndarray:
    """The Python loop's parent array, from SciPy's predecessors ``pred``.

    The loop settles in ``(dist, id)`` order and relaxes with a strict
    ``<``, so its parent of ``v`` is the tight in-neighbour ``u``
    (``dist[u] + w == dist[v]``) with the smallest ``(dist[u], u)``.  SciPy's
    predecessor is *some* tight in-neighbour: when no vertex has two tight
    in-edges it is that one; otherwise two scatter-min passes over the
    tight edges pick the loop's.  One vectorised pass over all m edges —
    what reading :attr:`CompiledTree.parent` costs.
    """
    n = graph.num_vertices
    reached = np.isfinite(dist)
    parent = pred.astype(np.int64)
    parent[~reached] = -1
    parent[root] = root
    src, dst, du, dv = _edge_dists(graph, dist)
    tight = np.flatnonzero(du + graph.weights == dv)
    if tight.size != int(np.count_nonzero(reached)) - 1:
        # some vertex has two tight in-edges: per target, the smallest
        # dist[u] among them, then the smallest u among those
        u, v, d = src[tight], dst[tight], du[tight]
        best_d = np.full(n, INF)
        np.minimum.at(best_d, v, d)
        on = np.flatnonzero(d == best_d[v])
        best_u = np.full(n, n, dtype=np.int64)
        np.minimum.at(best_u, v[on], u[on])
        fix = np.flatnonzero(best_u < n)
        parent[fix] = best_u[fix]
    return parent


def _relaxed_count(graph: CSRGraph, dist: np.ndarray) -> int:
    """The loop's ``edges_relaxed``: it scans edge ``(u, v)`` of a reached
    ``u`` toward an unsettled ``v`` exactly when ``(dist[v], v) > (dist[u],
    u)``."""
    src, dst, du, dv = _edge_dists(graph, dist)
    tied = np.flatnonzero(dv == du)
    return int(np.count_nonzero(dv > du)) + int(
        np.count_nonzero(dst[tied] > src[tied])
    )


class _TreeStats(SSSPStats):
    """:class:`SSSPStats` whose ``edges_relaxed`` is counted on first read
    (assigning it pins a value and skips the count)."""

    def __init__(self, settled: int, count) -> None:
        super().__init__(vertices_settled=settled, phases=settled)
        self._count = count

    @property
    def edges_relaxed(self) -> int:
        if self._count is not None:
            self._relaxed = self._count()
            self._count = None
        return self._relaxed

    @edges_relaxed.setter
    def edges_relaxed(self, value: int) -> None:
        self._relaxed = value
        self._count = None


def _tree_stats(graph: CSRGraph, dist: np.ndarray, settled: int) -> _TreeStats:
    """The loop's counters for a tree with distances ``dist`` on ``graph``
    that reaches ``settled`` vertices."""
    return _TreeStats(settled, lambda: _relaxed_count(graph, dist))


class CompiledTree(SSSPResult):
    """:func:`dijkstra_tree`'s result: the loop's parents, resolved on demand.

    ``dist`` is SciPy's.  :meth:`parent_of` applies the loop's tie rule to
    one vertex — the smallest ``(dist[u], u)`` among its tight in-edges, a
    slice of ``graph.reverse()`` — and memoises the answer on the tree, so
    a cached tree keeps what earlier scans resolved.  Reading
    :attr:`parent` builds the whole array with :func:`loop_parents`, and so
    does :meth:`parent_of` once more than ``n // PARENT_FALLBACK_SHARE``
    vertices are resolved; after that every read indexes the array.

    A tree carried across a live-graph write
    (:func:`repro.sssp.repair.carry_tree`) starts with the memo
    (``resolved``) and any built ``parent`` array of the tree it was
    carried from, patched where the write moved a parent.
    """

    def __init__(
        self,
        graph: CSRGraph,
        root: int,
        dist: np.ndarray,
        pred: np.ndarray,
        stats: SSSPStats,
        *,
        resolved: dict[int, int] | None = None,
        parent: np.ndarray | None = None,
    ) -> None:
        # SSSPResult's fields, except ``parent``: a property here
        self.source = root
        self.dist = dist
        self.stats = stats
        self._graph = graph
        self._pred = pred
        self._parent: np.ndarray | None = parent
        self._resolved: dict[int, int] = {} if resolved is None else resolved
        if parent is not None:
            self.parent_of = parent.item

    @property
    def parent(self) -> np.ndarray:
        if self._parent is None:
            self._parent = loop_parents(self._graph, self.source, self.dist, self._pred)
            # from now on a parent read is an array read
            self.parent_of = self._parent.item
        return self._parent

    def parent_of(self, v: int) -> int:
        p = self._resolved.get(v)
        if p is None:
            if len(self._resolved) > self.dist.size // PARENT_FALLBACK_SHARE:
                return self.parent.item(v)
            p = self._resolved[v] = self._resolve(v)
        return p

    def _resolve(self, v: int) -> int:
        """:func:`loop_parents`' answer for one vertex."""
        d = self.dist[v]
        if d == INF:
            return -1
        rev = self._graph.reverse()
        lo, hi = rev.indptr[v], rev.indptr[v + 1]
        u = rev.indices[lo:hi]
        du = self.dist[u]
        tight = np.flatnonzero(du + rev.weights[lo:hi] == d)
        if tight.size == 1:
            return int(u[tight[0]])
        if tight.size == 0:  # only the root: every other reached vertex has one
            return v if v == self.source else int(self._pred[v])
        u, du = u[tight], du[tight]
        return int(u[du == du.min()].min())


def dijkstra_tree(
    graph: CSRGraph, root: int, *, deadline: float | None = None
) -> CompiledTree:
    """The full shortest-path tree from ``root``, on SciPy's Dijkstra.

    Returns what ``dijkstra(graph, root, deadline=deadline)`` returns,
    bitwise: ``dist``, ``parent``, ``vertices_settled``, ``edges_relaxed``
    and ``phases``, and the same checkpoint visits.  Only ``heap_pushes``
    stays 0 (and the ``sssp.heap_pushes`` tracer counter is not emitted):
    a compiled call does not expose its heap.

    The call itself pays only for SciPy and what it reads off ``dist``;
    what needs a pass over all m edges is computed when it is read.

    * **Parents** (:class:`CompiledTree`).  :meth:`~CompiledTree.parent_of`
      resolves the loop's parent of one vertex from its in-edges and
      memoises it; reading ``.parent``, or resolving more than ``n //
      PARENT_FALLBACK_SHARE`` vertices one by one, builds the whole array
      (:func:`loop_parents`).
    * **Counters.**  ``vertices_settled = phases = #reached`` are set
      eagerly.  ``edges_relaxed`` is counted on its first read (the edges
      the loop scans toward unsettled vertices); under an enabled tracer it
      is counted at once and emitted as ``sssp.edges_relaxed``.
    * **Checkpoints.**  ``"sssp.dijkstra"`` is visited once at entry and
      then ``settled // SETTLE_CHECK_INTERVAL`` times after the compiled
      call: the loop's sequence, so virtual clocks and fault hooks see the
      same stream.  A deadline that passes mid-call is therefore noticed
      after the call, one compiled SSSP late (see :mod:`repro.cancel`).

    Raises :class:`~repro.errors.VertexError` for a root outside
    ``[0, n)`` (SciPy itself would wrap a negative one).
    """
    n = graph.num_vertices
    if not 0 <= root < n:
        raise VertexError(f"source {root} out of range [0, {n})")
    check_cancel = cancellation_active(deadline)
    if check_cancel:
        checkpoint(deadline, "sssp.dijkstra")
    from scipy.sparse import csgraph  # deferred: keeps `import repro` light

    dist, pred = csgraph.dijkstra(
        graph.sparse_matrix(),
        directed=True,
        indices=int(root),
        return_predecessors=True,
    )
    if check_cancel:
        settled = int(np.count_nonzero(np.isfinite(dist)))
        for _ in range(settled // SETTLE_CHECK_INTERVAL):
            checkpoint(deadline, "sssp.dijkstra")
    return compiled_tree(graph, root, dist, pred)


def compiled_tree(
    graph: CSRGraph, root: int, dist: np.ndarray, pred: np.ndarray
) -> CompiledTree:
    """The :class:`CompiledTree` of SciPy's ``dist``/``pred`` from ``root``
    on ``graph``, with its counters and the tracer's: what
    :func:`dijkstra_tree` returns after its SciPy call, wherever that call
    ran (:func:`repro.sssp.pair.prune_trees` runs one in a helper
    process)."""
    settled = int(np.count_nonzero(np.isfinite(dist)))
    stats = _tree_stats(graph, dist, settled)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add("sssp.calls")
        tracer.add("sssp.edges_relaxed", stats.edges_relaxed)
        tracer.add("sssp.vertices_settled", settled)
    return CompiledTree(graph, int(root), dist, pred, stats)

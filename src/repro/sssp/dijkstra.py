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
Dijkstra plus a vectorised pass that reproduces this loop's parents, work
counters and checkpoint visits exactly.
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

__all__ = ["dijkstra", "dijkstra_tree"]


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


def dijkstra_tree(
    graph: CSRGraph, root: int, *, deadline: float | None = None
) -> SSSPResult:
    """The full shortest-path tree from ``root``, on SciPy's Dijkstra.

    Returns what ``dijkstra(graph, root, deadline=deadline)`` returns,
    bitwise: ``dist``, ``parent``, ``vertices_settled``, ``edges_relaxed``
    and ``phases``, and the same checkpoint visits.  Only ``heap_pushes``
    stays 0 (and the ``sssp.heap_pushes`` tracer counter is not emitted):
    a compiled call does not expose its heap.

    * **Parents.**  SciPy's predecessor is *some* tight in-neighbour.  The
      loop settles in ``(dist, id)`` order and relaxes with a strict
      ``<``, so its parent is the tight in-neighbour with the smallest
      ``(dist[u], u)``.  When no vertex has two tight in-edges SciPy's
      answer is that one; otherwise two scatter-min passes over the tight
      edges pick it.
    * **Counters.**  Every reached vertex is settled once.  The loop scans
      edge ``(u, v)`` of a reached ``u`` toward an unsettled ``v`` exactly
      when ``(dist[v], v) > (dist[u], u)``; those edges are
      ``edges_relaxed``.
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
    reached = np.isfinite(dist)
    settled = int(np.count_nonzero(reached))
    if check_cancel:
        for _ in range(settled // SETTLE_CHECK_INTERVAL):
            checkpoint(deadline, "sssp.dijkstra")

    parent = pred.astype(np.int64)
    parent[~reached] = -1
    parent[root] = root
    src, dst = graph.edge_sources(), graph.indices
    # NaN for unreached vertices: every comparison against it is False
    dn = np.where(reached, dist, np.nan)
    du, dv = dn[src], dn[dst]
    tight = np.flatnonzero(du + graph.weights == dv)
    if tight.size != settled - 1:
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
    tied = np.flatnonzero(dv == du)
    relaxed = int(np.count_nonzero(dv > du)) + int(
        np.count_nonzero(dst[tied] > src[tied])
    )

    stats = SSSPStats(
        edges_relaxed=relaxed, vertices_settled=settled, phases=settled
    )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add("sssp.calls")
        tracer.add("sssp.edges_relaxed", relaxed)
        tracer.add("sssp.vertices_settled", settled)
    return SSSPResult(source=int(root), dist=dist, parent=parent, stats=stats)

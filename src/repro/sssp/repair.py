"""Carry a compiled shortest-path tree across one live-graph mutation batch.

A write to a live graph (:meth:`repro.dyn.live.LiveGraph.apply`) changes a
few edges, and most of a cached :class:`~repro.sssp.dijkstra.CompiledTree`
cannot feel them.  :func:`carry_tree` moves a tree onto the new snapshot
and recomputes only what the batch can change (Ramalingam–Reps-style
subtree repair):

* **Raised or removed edges.**  An edge ``(u, v)`` matters only if it was
  tight, ``dist[u] + w_old == dist[v]``.  If ``u`` is also ``v``'s loop
  parent, ``v``'s subtree in the loop-parent tree loses its distances:
  they are reset to ``inf`` and relabelled by a small heap Dijkstra on the
  new graph, seeded from the in-edges that enter the subtree from outside.
  Otherwise ``v`` keeps its distance and parent, and only its SciPy
  predecessor may have to move.
* **Lowered or inserted edges.**  ``dist[u] + w_new < dist[v]`` relabels
  from ``v`` (the same Dijkstra, which runs only while labels drop);
  ``dist[u] + w_new == dist[v]`` leaves distances alone but makes a tie
  that can move ``v``'s parent.
* **Tombstones** keep the region rule: a tree that reaches a tombstoned
  vertex is dropped.

Then every reset or relabelled vertex, the head of every tight raised edge
and of every tying lowered one, and each out-neighbour that a vertex with
a changed distance now reaches tightly or was the SciPy predecessor of,
has its loop parent re-resolved on the new graph.  The SciPy predecessor
of each is set to that parent: what
:func:`~repro.sssp.dijkstra.loop_parents` trusts whenever each reached
vertex has exactly one tight in-edge must stay *a* tight in-neighbour, so a
stale one would come back as a wrong parent.

The result is a new tree on the new graph (the old one keeps its own
distances and parents: prepared pruning decisions still hold it),
bitwise-equal in ``dist``,
``parent`` and every ``parent_of(v)`` to a cold
:func:`~repro.sssp.dijkstra.dijkstra_tree` there.  Its memo of resolved
parents and a built parent array are carried over, patched at the
re-resolved vertices.  A repair that would reset or relabel more than
:func:`repair_limit` vertices gives up: a cold SciPy tree is cheaper.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.paths import INF
from repro.sssp.dijkstra import CompiledTree, _tree_stats

__all__ = ["REPAIR_FLOOR", "REPAIR_SHARE", "carry_tree", "repair_limit"]

#: A repair may reset or relabel at most ``n // REPAIR_SHARE`` vertices
#: (a heap Dijkstra in Python over that many costs about one SciPy tree)...
REPAIR_SHARE = 64
#: ...but never fewer than this many, so small graphs repair too.
REPAIR_FLOOR = 32

#: SciPy's predecessor of the root and of unreached vertices
_NO_PRED = -9999


def repair_limit(n: int) -> int:
    """The most vertices a repair may reset or relabel on ``n`` vertices."""
    return max(n // REPAIR_SHARE, REPAIR_FLOOR)


def carry_tree(
    tree: CompiledTree,
    graph: CSRGraph,
    raised: tuple[np.ndarray, np.ndarray, np.ndarray],
    lowered: tuple[np.ndarray, np.ndarray, np.ndarray],
    tombstoned: np.ndarray,
) -> tuple[CompiledTree, bool] | None:
    """``tree`` on ``graph``, the snapshot after one batch; ``None`` to evict.

    ``raised`` are the batch's removed or weight-increased edges as
    ``(src, dst, old_w)`` and ``lowered`` its inserted or weight-decreased
    ones as ``(src, dst, new_w)``, both in the direction of ``graph`` (a
    reverse tree's edges are mirrored).  Returns the carried tree and
    whether anything in it had to be recomputed.
    """
    old, root = tree.dist, tree.source
    limit = repair_limit(graph.num_vertices)
    if tombstoned.size and np.isfinite(old[tombstoned]).any():
        return None
    a, b, w = raised
    ob = old[b]
    hit = (old[a] + w == ob) & (ob < INF) & (b != root)
    heads, region = b[hit], set()
    if heads.size:
        # a raised loop-parent edge cuts its head's subtree off the tree
        cut = [v for u, v in zip(a[hit].tolist(), heads.tolist()) if tree.parent_of(v) == u]
        region = _subtree(tree, cut, limit)
        if region is None:
            return None
    c, d, w = lowered
    du, od = old[c] + w, old[d]
    near = (du < INF) & (d != root)
    gains, ties = d[near & (du < od)], d[near & (du == od)]
    if not (heads.size or gains.size or ties.size):
        stats = _tree_stats(graph, old, tree.stats.vertices_settled)
        carried = CompiledTree(
            graph, root, old, tree._pred, stats,
            resolved=dict(tree._resolved), parent=tree._parent,
        )
        return carried, False

    new = old.copy()
    members = sorted(region)
    new[members] = INF
    relabelled = _relabel(graph, new, members + gains.tolist(), limit)
    if relabelled is None:
        return None
    touched = np.unique(np.asarray(members + relabelled, dtype=np.int64))
    changed = touched[new[touched] != old[touched]]
    redo = np.unique(np.concatenate([touched, heads, ties, *_moved(tree, graph, new, changed)]))
    redo = redo[redo != root]

    reached = np.isfinite(new[changed])
    settled = tree.stats.vertices_settled + int(reached.sum()) - int(
        np.isfinite(old[changed]).sum()
    )
    resolved = dict(tree._resolved)
    parent = None if tree._parent is None else tree._parent.copy()
    carried = CompiledTree(
        graph, root, new, tree._pred.copy(), _tree_stats(graph, new, settled),
        resolved=resolved, parent=parent,
    )
    pred = carried._pred
    for v in redo.tolist():
        p = carried._resolve(v)
        pred[v] = _NO_PRED if p < 0 else p
        if v in resolved:
            resolved[v] = p
        if parent is not None:
            parent[v] = p
    return carried, True


def _moved(tree: CompiledTree, graph: CSRGraph, new: np.ndarray, changed: np.ndarray):
    """Per vertex ``x`` whose distance changed, the out-neighbours whose
    parent or predecessor it can move: those it now reaches tightly (a tie
    can move the parent) and those whose SciPy predecessor it was."""
    for x in changed.tolist():
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        ys = graph.indices[lo:hi]
        yield ys[(tree._pred[ys] == x) | (new[x] + graph.weights[lo:hi] == new[ys])]


def _subtree(tree: CompiledTree, roots: list[int], limit: int) -> set[int] | None:
    """Every vertex under ``roots`` in ``tree``'s loop-parent tree (on the
    graph it was computed on); ``None`` past ``limit`` vertices."""
    graph, label = tree._graph, tree.dist
    members = set(roots)
    stack = list(members)
    while stack and len(members) <= limit:
        x = stack.pop()
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        ys = graph.indices[lo:hi]
        for y in ys[label[x] + graph.weights[lo:hi] == label[ys]].tolist():
            if y not in members and tree.parent_of(y) == x:
                members.add(y)
                stack.append(y)
    return members if len(members) <= limit else None


def _relabel(
    graph: CSRGraph, label: np.ndarray, seeds: list[int], limit: int
) -> list[int] | None:
    """Lower ``label`` to the shortest distances on ``graph``, in place.

    ``label`` must bound every distance from above, and be consistent on
    every edge not into a seed.  Each seed takes its best in-edge, then a
    heap Dijkstra runs while labels drop.  Returns the settled vertices,
    or ``None`` once more than ``limit`` have settled.
    """
    rev = graph.reverse()
    heap = []
    for x in set(seeds):
        lo, hi = rev.indptr[x], rev.indptr[x + 1]
        if lo < hi:
            best = float((label[rev.indices[lo:hi]] + rev.weights[lo:hi]).min())
            if best < label[x]:
                label[x] = best
                heap.append((best, x))
    heapq.heapify(heap)
    settled: list[int] = []
    while heap:
        d, x = heapq.heappop(heap)
        if d != label[x]:
            continue  # a label that dropped again after this push
        settled.append(x)
        if len(settled) > limit:
            return None
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        ys = graph.indices[lo:hi]
        nd = d + graph.weights[lo:hi]
        drop = nd < label[ys]
        for y, dy in zip(ys[drop].tolist(), nd[drop].tolist()):
            if dy < label[y]:  # parallel edges: the lightest wins
                label[y] = dy
                heapq.heappush(heap, (dy, y))
    return settled

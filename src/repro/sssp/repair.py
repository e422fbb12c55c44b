"""Carry compiled shortest-path trees across one live-graph mutation batch.

A write to a live graph (:meth:`repro.dyn.live.LiveGraph.apply`) changes a
few edges, and most cached trees
(:class:`~repro.sssp.dijkstra.CompiledTree`) cannot feel them.
:func:`carry_trees` moves every cached tree of one direction onto the new
snapshot at once, and a write costs what it changes:

* **Touch test.**  One (trees x endpoints) matrix of every tree's ``dist``
  at the batch's raised, lowered and tombstoned endpoints, and the three
  conditions below on all of it in one vectorised pass.  A tree no
  condition touches has no changed distance and no reached vertex with a
  changed set of tight in-edges: it is *re-homed*, sharing its
  :class:`~repro.sssp.dijkstra.TreeArrays`, parent array and parent memo
  with the old tree.
* **Repair** (Ramalingam–Reps-style) of the other trees, priced by their
  region: Python sets and scalar reads, and no copy of the n-wide arrays
  (the repaired tree takes them over and patches them in place; the old
  one keeps an undo log, :meth:`~repro.sssp.dijkstra.TreeArrays.hand_over`).

The conditions, and what the repair does for each:

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

The result is a new tree on the new graph (the old one still reads its own
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
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.paths import INF
from repro.sssp.dijkstra import CompiledTree, _tree_stats

__all__ = ["REPAIR_FLOOR", "REPAIR_SHARE", "carry_trees", "repair_limit"]

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


def carry_trees(
    trees: Sequence[CompiledTree],
    graph: CSRGraph,
    raised: tuple[np.ndarray, np.ndarray, np.ndarray],
    lowered: tuple[np.ndarray, np.ndarray, np.ndarray],
    tombstoned: np.ndarray,
) -> list[tuple[CompiledTree, bool] | None]:
    """Every tree in ``trees`` on ``graph``, the snapshot after one batch.

    ``raised`` are the batch's removed or weight-increased edges as
    ``(src, dst, old_w)`` and ``lowered`` its inserted or weight-decreased
    ones as ``(src, dst, new_w)``, both in the direction of ``graph`` (a
    reverse tree's edges are mirrored).  Per tree, in order: ``None`` to
    evict it, else the carried tree and whether anything in it had to be
    recomputed.

    The touch test reads every tree's ``dist`` at the batch's endpoints
    into one (trees x endpoints) matrix and applies the three conditions
    to all trees at once.  A tree that no condition touches is re-homed
    (:func:`_rehome`); only the others run the repair.
    """
    if not trees:
        return []
    a, b, up_w = raised
    c, d, down_w = lowered
    cuts = np.cumsum([a.size, b.size, c.size, d.size])
    ends = np.concatenate([a, b, c, d, tombstoned])
    at = np.array([tree.dist[ends] for tree in trees]).reshape(len(trees), ends.size)
    da, db, dc, dd, dead = np.split(at, cuts, axis=1)
    roots = np.array([tree.source for tree in trees])[:, None]
    evict = np.isfinite(dead).any(axis=1)
    hit = (da + up_w == db) & (db < INF) & (b != roots)
    du = dc + down_w
    near = (du < INF) & (d != roots)
    gain, tie = near & (du < dd), near & (du == dd)
    touched = hit.any(axis=1) | gain.any(axis=1) | tie.any(axis=1)

    hits = _by_tree(hit, list(zip(a.tolist(), b.tolist())))
    heads = d.tolist()
    gains, ties = _by_tree(gain, heads), _by_tree(tie, heads)
    limit = repair_limit(graph.num_vertices)
    out: list[tuple[CompiledTree, bool] | None] = []
    for i, tree in enumerate(trees):
        if evict[i]:
            out.append(None)
        elif not touched[i]:
            out.append((_rehome(tree, graph), False))
        else:
            carried = _repair(
                tree, graph, hits.get(i, []), gains.get(i, []), ties.get(i, []), limit
            )
            out.append(None if carried is None else (carried, True))
    return out


def _by_tree(mask: np.ndarray, edges: list) -> dict[int, list]:
    """Per row of a (trees x edges) ``mask``, the ``edges`` entries of its
    set columns."""
    rows, cols = np.nonzero(mask)
    out: dict[int, list] = {}
    for i, j in zip(rows.tolist(), cols.tolist()):
        out.setdefault(i, []).append(edges[j])
    return out


def _rehome(tree: CompiledTree, graph: CSRGraph) -> CompiledTree:
    """``tree`` on ``graph``, for a batch that touches none of it.

    Such a batch changes no distance and no reached vertex's set of tight
    in-edges, so every parent either graph resolves is the same: the new
    tree shares the :class:`~repro.sssp.dijkstra.TreeArrays`, any built
    parent array and the memo of resolved parents with the old one.
    """
    arrays = tree._arrays
    stats = _tree_stats(graph, arrays, tree.stats.vertices_settled)
    return CompiledTree(
        graph, tree.source, arrays, stats, resolved=tree._resolved, parent=tree._parent
    )


def _repair(
    tree: CompiledTree,
    graph: CSRGraph,
    hits: list[tuple[int, int]],
    gains: list[int],
    ties: list[int],
    limit: int,
) -> CompiledTree | None:
    """``tree`` repaired onto ``graph``; ``None`` past ``limit``.

    ``hits`` are the batch's tight raised edges ``(u, v)``, ``gains`` and
    ``ties`` the heads of its lowered edges that shorten or tie a
    distance.  The region is a handful of vertices, so it is kept in
    Python sets and read one scalar at a time.  The repaired tree takes
    ``tree``'s distance and predecessor arrays over and patches them in
    place; ``tree`` keeps what the patch overwrote
    (:meth:`~repro.sssp.dijkstra.TreeArrays.hand_over`).
    """
    root = tree.source
    # a raised loop-parent edge cuts its head's subtree off the tree
    cut = [v for u, v in hits if tree.parent_of(v) == u]
    region = _subtree(tree, cut, limit) if cut else set()
    if region is None:
        return None
    dist, pred = tree.dist, tree._pred
    # every distance the repair overwrites, at its old value
    saved = {v: dist.item(v) for v in region}
    for v in region:
        dist[v] = INF
    if not _relabel(graph, dist, list(region) + gains, limit, saved):
        for v, d in saved.items():
            dist[v] = d
        return None
    changed = [v for v, d in saved.items() if dist.item(v) != d]
    redo = set(saved).union([v for _, v in hits], ties, _moved(graph, pred, dist, changed))
    redo.discard(root)

    settled = tree.stats.vertices_settled + sum(
        (dist.item(v) < INF) - (d < INF) for v, d in saved.items()
    )
    saved_pred: dict[int, int] = {}
    arrays = tree._arrays.hand_over(saved, saved_pred)
    parent = None if tree._parent is None else tree._parent.copy()
    # a built parent array answers every parent_of: the memo is not read
    resolved = {} if parent is not None else dict(tree._resolved)
    carried = CompiledTree(
        graph, root, arrays, _tree_stats(graph, arrays, settled),
        resolved=resolved, parent=parent,
    )
    for v in sorted(redo):
        p = carried._resolve(v)
        saved_pred[v] = pred.item(v)
        pred[v] = _NO_PRED if p < 0 else p
        if v in resolved:
            resolved[v] = p
        if parent is not None:
            parent[v] = p
    return carried


def _moved(graph: CSRGraph, pred: np.ndarray, new: np.ndarray, changed: list[int]):
    """The out-neighbours whose parent or predecessor a vertex ``x`` whose
    distance changed can move: those it now reaches tightly (a tie can move
    the parent) and those whose SciPy predecessor (``pred``, before the
    batch) it was."""
    moved: set[int] = set()
    for x in changed:
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        ys = graph.indices[lo:hi]
        hit = (pred[ys] == x) | (new[x] + graph.weights[lo:hi] == new[ys])
        moved.update(ys[hit].tolist())
    return moved


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
    graph: CSRGraph,
    label: np.ndarray,
    seeds: list[int],
    limit: int,
    saved: dict[int, float],
) -> bool:
    """Lower ``label`` to the shortest distances on ``graph``, in place.

    ``label`` must bound every distance from above, and be consistent on
    every edge not into a seed.  Each seed takes its best in-edge, then a
    heap Dijkstra runs while labels drop.  Every lowered label's first
    value goes into ``saved`` (unless it is there already).  Returns
    ``False`` once more than ``limit`` vertices have settled.
    """
    rev = graph.reverse()
    heap = []
    for x in set(seeds):
        lo, hi = rev.indptr[x], rev.indptr[x + 1]
        if lo < hi:
            best = float((label[rev.indices[lo:hi]] + rev.weights[lo:hi]).min())
            if best < label[x]:
                saved.setdefault(x, label.item(x))
                label[x] = best
                heap.append((best, x))
    heapq.heapify(heap)
    settled = 0
    while heap:
        d, x = heapq.heappop(heap)
        if d != label[x]:
            continue  # a label that dropped again after this push
        settled += 1
        if settled > limit:
            return False
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        ys = graph.indices[lo:hi]
        nd = d + graph.weights[lo:hi]
        drop = nd < label[ys]
        for y, dy in zip(ys[drop].tolist(), nd[drop].tolist()):
            if dy < label[y]:  # parallel edges: the lightest wins
                saved.setdefault(y, label.item(y))
                label[y] = dy
                heapq.heappush(heap, (dy, y))
    return True

"""Combined-path validity check (paper §4.1, Figure 3(e)).

A vertex ``v``'s *combined path* is its forward-tree path s→v glued to its
reverse-tree path v→t.  The two subpaths are individually shortest but may
intersect (the paper's example: vertex ``i`` whose source path is s→f→j→i
and target path i→j→t — ``j`` repeats).  The K-upper-bound scan must count
only valid (simple) combined paths, so this check runs for every inspected
vertex; the paper makes it O(length) with a hash table, which is exactly a
Python ``set`` here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["combined_path", "validate_combined_path"]


def combined_path(
    parent_src,
    parent_tgt,
    source: int,
    target: int,
    v: int,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (source-subpath, target-subpath) through ``v``; None if detached.

    ``parent_src`` is the forward SSSP (``parent[source] == source``) and
    ``parent_tgt`` the reverse one, whose parents point at the *next hop
    toward the target*.  Each is a parent array or a tree: the walk reads
    a tree's ``parent_of(v)`` when it has one — the compiled prune kernel
    resolves parents one vertex at a time (see
    :class:`~repro.sssp.dijkstra.CompiledTree`) — and indexes its
    ``parent`` array otherwise.  Both subpaths include ``v`` itself.
    """
    src_path = _walk(parent_src, v, source)
    if src_path is None:
        return None
    src_path.reverse()
    tgt_path = _walk(parent_tgt, v, target)
    if tgt_path is None:
        return None
    return tuple(src_path), tuple(tgt_path)


def _walk(tree, v: int, root: int) -> list[int] | None:
    """``[v, parent(v), ..., root]``; None at a ``-1`` or on a cycle."""
    if isinstance(tree, np.ndarray):
        step, n = tree.item, tree.size
    else:
        step = getattr(tree, "parent_of", None) or tree.parent.item
        n = tree.dist.size
    path = [int(v)]
    while path[-1] != root:
        nxt = step(path[-1])
        if nxt < 0 or len(path) > n:
            return None
        path.append(nxt)
    return path


def validate_combined_path(
    src_path: tuple[int, ...], tgt_path: tuple[int, ...]
) -> tuple[bool, tuple[int, ...]]:
    """Is the glued path simple?  Returns ``(valid, full_path)``.

    ``v`` (the shared endpoint) appears once in the result.  The membership
    test is the paper's hash-table strategy: build a set from the source
    subpath, probe every target-subpath vertex in O(1).
    """
    seen = set(src_path)
    for u in tgt_path[1:]:
        if u in seen:
            return False, src_path + tgt_path[1:]
    return True, src_path + tgt_path[1:]

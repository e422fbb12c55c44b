"""Sidetrack-based KSP (SB — Kurz & Mutzel 2016).

SB eliminates most of Yen's SSSP calls by caching one **reverse shortest-path
tree per removal set** (the prefix vertices a deviation must avoid).  The
shortest suffix from a deviation vertex ``v`` is then

    min over allowed first hops w  of   w(v, w) + dist_{G∖R}(w → t),

read directly from the cached tree for ``R``, plus that tree's path — an
exact answer by construction, because the tree lives on exactly the graph
the suffix must live in (unlike OptYen's full-graph tree, which only gives a
lower bound).  Deviations along the same accepted path share prefixes, so
consecutive deviations hit the cache.

The cost is memory: one ``O(n)`` tree per distinct removal set — the
"obvious memory issue" the paper describes (§1.1).  ``stats.peak_tree_bytes``
tracks it; the SB-vs-SB* benchmark shows the time/space trade-off.

The cached trees must live simultaneously, so they own their arrays and do
*not* share the solver's SSSP workspace; only the rare forward-Dijkstra
repair (a tree path looping through the deviation vertex) runs on the
shared epoch-stamped state via :meth:`DeviationKSP._dijkstra_suffix`.
"""

from __future__ import annotations

from repro.errors import UnreachableTargetError
from repro.ksp.base import DeviationKSP, KSPResult
from repro.paths import INF
from repro.sssp.lazy_dijkstra import LazyDijkstra

__all__ = ["SidetrackKSP", "sb_ksp"]


class SidetrackKSP(DeviationKSP):
    """SB: per-removal-set reverse SP trees, computed eagerly in full."""

    name = "SB"
    lawler_default = True

    #: SB materialises each tree completely when first needed; SB*
    #: (:class:`~repro.ksp.sidetrack_star.SidetrackStarKSP`) overrides this
    #: to resume lazily instead.
    eager_trees = True

    def _prepare(self) -> None:
        self._rev_graph = self.graph.reverse()
        self._trees: dict[frozenset[int], LazyDijkstra] = {}
        #: work units of each tree already folded into ``self.stats``
        self._tree_charged: dict[frozenset[int], int] = {}
        root = self._tree_for(frozenset())
        self.stats.init_work += self._charge(frozenset(), root)
        if root.distance_to(self.source) == INF:
            raise UnreachableTargetError(
                f"target {self.target} unreachable from {self.source}"
            )

    # ------------------------------------------------------------------
    # tree cache
    # ------------------------------------------------------------------
    def _tree_for(self, removal_set: frozenset[int]) -> LazyDijkstra:
        """Fetch or build the reverse tree avoiding ``removal_set``."""
        tree = self._trees.get(removal_set)
        if tree is None:
            tree = LazyDijkstra(
                self._rev_graph,
                self.target,
                banned_vertices=removal_set or None,
            )
            if self.eager_trees:
                tree.run_to_completion()
            self._trees[removal_set] = tree
            self._tree_charged[removal_set] = 0
            self.stats.sssp_calls += 1
            total = sum(t.memory_bytes() for t in self._trees.values())
            if total > self.stats.peak_tree_bytes:
                self.stats.peak_tree_bytes = total
        return tree

    def _charge(self, removal_set: frozenset[int], tree: LazyDijkstra) -> int:
        """Fold the tree's work into stats since the last charge; return delta."""
        now = tree.stats.total_work
        before = self._tree_charged[removal_set]
        delta = now - before
        if delta:
            self._tree_charged[removal_set] = now
            # split roughly as the underlying counters did
            self.stats.edges_relaxed += delta  # dominated by relaxations
        return delta

    # ------------------------------------------------------------------
    def _first_path(self):
        from repro.paths import Path

        tree = self._tree_for(frozenset())
        dist = tree.distance_to(self.source)
        self.stats.init_work += self._charge(frozenset(), tree)
        verts = self._tree_walk(tree, self.source)
        assert verts is not None
        return Path(distance=float(dist), vertices=tuple(verts))

    def _tree_walk(self, tree: LazyDijkstra, start: int) -> list[int] | None:
        """Follow the reverse tree's parents from ``start`` to the target."""
        if not tree.settled[start]:
            return None
        out = [int(start)]
        while out[-1] != self.target:
            nxt = int(tree.parent[out[-1]])
            if nxt < 0:
                return None
            out.append(nxt)
        return out

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        tree = self._tree_for(banned_vertices)
        targets, weights = self.graph.neighbors(dev_vertex)
        best_w, best_val = -1, INF
        for w, wt in zip(targets.tolist(), weights.tolist()):
            if w in banned_vertices or (dev_vertex, w) in banned_edges:
                continue
            val = wt + tree.distance_to(w)
            if val < best_val or (val == best_val and w < best_w):
                best_w, best_val = w, val
        work = self._charge(banned_vertices, tree) + int(targets.size)
        if best_w < 0 or best_val == INF:
            self._log_task(max(work, 1))
            return None
        suffix = self._tree_walk(tree, best_w)
        if suffix is None or dev_vertex in suffix:
            # tree path loops back through the deviation vertex: repair with
            # a fresh forward Dijkstra (rare)
            self.stats.repairs += 1
            return self._dijkstra_suffix(dev_vertex, banned_vertices, banned_edges)
        self.stats.express_hits += 1
        self._log_task(max(work, len(suffix)))
        return float(best_val), [dev_vertex, *suffix], True


def sb_ksp(graph, source: int, target: int, k: int, **kwargs) -> KSPResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="SB"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="SB", **kwargs)

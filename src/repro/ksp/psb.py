"""Parsimonious Sidetrack-Based KSP — PSB, PSB-v2, PSB-v3 (paper §8).

SB's weakness is memory: one cached reverse SP tree per removal set.  The
PSB family (Al Zoobi, Coudert, Nisse) keeps SB's deviation logic but is
*parsimonious* about which trees it retains:

* **PSB** — "only store a computed reverse SSSP tree after finding a
  useful subpath in that tree": a tree is cached only once it has produced
  an express candidate; trees that immediately fail (forcing a repair) are
  discarded and recomputed if ever needed again.
* **PSB-v2** — "defines a static threshold with the hope of predicting
  whether a reverse SSSP tree will lead to a path that can become one of
  the extracted candidates": the tree is kept only when its candidate's
  distance is within ``threshold ×`` the best pool candidate — trees
  producing hopeless (far-from-extraction) candidates aren't worth their
  memory.
* **PSB-v3** — "goes further by dynamically changing the threshold during
  KSP computation": the threshold tightens while the cache is over budget
  and relaxes while it is under.

All three return exactly the same paths as SB/Yen (caching policy cannot
affect correctness — a discarded tree is simply recomputed); the tests
assert both the agreement and the intended memory ordering
``peak(PSB*) ≤ peak(SB)``.
"""

from __future__ import annotations

from repro.ksp.base import KSPResult
from repro.ksp.sidetrack import SidetrackKSP
from repro.sssp.lazy_dijkstra import LazyDijkstra

__all__ = ["PSBKSP", "PSBv2KSP", "PSBv3KSP", "psb_ksp"]


class PSBKSP(SidetrackKSP):
    """PSB: cache a reverse tree only after it proves useful."""

    name = "PSB"
    eager_trees = True

    def _prepare(self) -> None:
        #: trees built but not yet proven useful (kept only for the
        #: duration of the current deviation search).  Must exist before
        #: the parent's _prepare builds the root tree through _tree_for.
        self._probation: dict[frozenset[int], LazyDijkstra] = {}
        super()._prepare()

    # -- caching policy hooks ------------------------------------------
    def _should_cache(self, removal_set, suffix_dist: float) -> bool:
        """PSB keeps any tree that produced an express candidate."""
        return True

    def _tree_for(self, removal_set):
        tree = self._trees.get(removal_set)
        if tree is not None:
            return tree
        tree = self._probation.get(removal_set)
        if tree is not None:
            return tree
        tree = LazyDijkstra(
            self._rev_graph,
            self.target,
            banned_vertices=removal_set or None,
        )
        if self.eager_trees:
            tree.run_to_completion()
        self.stats.sssp_calls += 1
        # enters on probation; promotion happens on express success
        self._probation = {removal_set: tree}  # at most one probationer
        # a discarded tree may be rebuilt: its work ledger must restart,
        # or the next _charge() delta would go negative
        self._tree_charged[removal_set] = 0
        return tree

    def _promote(self, removal_set, tree, suffix_dist: float) -> None:
        if removal_set in self._trees:
            return
        if self._should_cache(removal_set, suffix_dist):
            self._trees[removal_set] = tree
            total = sum(t.memory_bytes() for t in self._trees.values())
            if total > self.stats.peak_tree_bytes:
                self.stats.peak_tree_bytes = total
        self._probation.pop(removal_set, None)

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        found = super()._find_suffix(
            dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
        )
        tree = self._probation.get(banned_vertices) or self._trees.get(
            banned_vertices
        )
        if found is not None and tree is not None:
            suffix_dist = found[0]
            self._promote(banned_vertices, tree, suffix_dist)
        return found


class PSBv2KSP(PSBKSP):
    """PSB-v2: static usefulness threshold on the candidate's distance.

    A tree is only worth keeping when the candidate it produced is close
    enough to the current extraction frontier to plausibly be extracted:
    ``suffix candidate distance ≤ threshold × best pool distance``.
    """

    name = "PSB-v2"

    def __init__(self, *args, threshold: float = 1.5, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if threshold < 1.0:
            raise ValueError("threshold must be >= 1.0")
        self.threshold = threshold

    def _frontier_distance(self) -> float:
        if self._pool:
            return self._pool[0].distance
        return float("inf")

    def _should_cache(self, removal_set, suffix_dist: float) -> bool:
        frontier = self._frontier_distance()
        if frontier == float("inf"):
            return True
        return suffix_dist <= self.threshold * frontier


class PSBv3KSP(PSBv2KSP):
    """PSB-v3: the threshold adapts to a memory budget during the run.

    While the cached trees exceed ``memory_budget_bytes`` the threshold
    tightens (×0.9 per decision); while under budget it relaxes (×1.05,
    capped).  This bounds memory without a hard eviction pass.
    """

    name = "PSB-v3"

    def __init__(
        self, *args, memory_budget_bytes: int = 8 << 20, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if memory_budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.memory_budget_bytes = memory_budget_bytes
        self._threshold_cap = self.threshold

    def _should_cache(self, removal_set, suffix_dist: float) -> bool:
        current = sum(t.memory_bytes() for t in self._trees.values())
        if current > self.memory_budget_bytes:
            self.threshold = max(1.0, self.threshold * 0.9)
        else:
            self.threshold = min(self._threshold_cap, self.threshold * 1.05)
        return super()._should_cache(removal_set, suffix_dist)


def psb_ksp(
    graph, source: int, target: int, k: int, *, variant: str = "v1", **kwargs
) -> KSPResult:
    """Thin alias for :func:`repro.solve`; ``variant`` ∈ {"v1", "v2", "v3"}."""
    from repro.api import solve

    name = {"v1": "PSB", "v2": "PSB-v2", "v3": "PSB-v3"}[variant]
    return solve(graph, source, target, k, algorithm=name, **kwargs)

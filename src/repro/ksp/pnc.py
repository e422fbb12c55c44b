"""Postponed Node Classification (PNC) — the paper's §8 extension.

PNC observes that most candidates produced by expensive suffix searches are
never extracted from the pool, so it *postpones* the expensive part: every
deviation immediately inserts the cheap express candidate read off the
static reverse tree, **even when that candidate is not simple**, recording
only its (lower-bound) distance.  Only when a non-simple candidate is
actually popped as the pool minimum is it "repaired" with a real SSSP and
re-inserted at its exact distance.

Correctness: the express value ``w(v,w*) + distTgt[w*]`` never exceeds the
true shortest allowed suffix (distTgt is the unconstrained distance), so a
postponed entry sorts at or before the position its repaired version will
occupy — the pool minimum is therefore never wrongly accepted.

Repair searches are OptYen's A* fallback, steered by the same reverse-tree
distances, and run through the solver-shared epoch-stamped workspace
(:mod:`repro.sssp.workspace`).  Unlike the in-order deviation searches,
repairs jump to an *older* banned-vertex set, which the workspace's
incremental mask handles by flipping the symmetric difference — still far
cheaper than an O(n) mask rebuild.
"""

from __future__ import annotations

from repro.ksp.base import Candidate, KSPResult
from repro.ksp.optyen import OptYenKSP

__all__ = ["PostponedNCKSP", "pnc_ksp"]


class PostponedNCKSP(OptYenKSP):
    """PNC: insert express lower bounds eagerly, repair lazily on extraction."""

    name = "PNC"

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        *,
        lawler: bool | None = None,
        deadline: float | None = None,
    ) -> None:
        # no ``bound=``: neither the postponed entries nor their repairs
        # would read it, so it is refused rather than silently ignored
        super().__init__(graph, source, target, lawler=lawler, deadline=deadline)

    def _prepare(self) -> None:
        super()._prepare()
        #: deviation context needed to repair a postponed candidate later:
        #: vertices-tuple -> (dev_vertex, banned_vertices, banned_edges)
        self._postponed: dict[tuple[int, ...], tuple] = {}
        #: serial for placeholder uniqueness: two deviations can share a
        #: prefix and a dirty tree walk while differing in banned edges —
        #: their placeholders must not collide in the pool's dedup set
        self._postpone_serial = 0

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        hop = self._best_first_hop(dev_vertex, banned_vertices, banned_edges)
        if hop is None:
            self._log_task(1)
            return None
        w_star, bound = hop
        suffix = self._tree_suffix(dev_vertex, w_star, banned_vertices)
        if suffix is not None:
            self.stats.express_hits += 1
            self._log_task(len(suffix))
            return bound, suffix, True
        self.stats.express_misses += 1
        # Non-simple express path: postpone.  Use the raw (dirty) tree walk
        # as the placeholder vertex tuple; it is unique per deviation and
        # never collides with a real simple path because it repeats a vertex.
        self._postpone_serial += 1
        # The trailing negative sentinel makes every placeholder unique:
        # it can never equal a real path (vertex ids are non-negative) nor
        # another placeholder generated under a different deviation context.
        placeholder = self._dirty_tree_tuple(dev_vertex, w_star) + (
            -self._postpone_serial,
        )
        self._postponed[prefix[:-1] + placeholder] = (
            dev_vertex,
            banned_vertices,
            banned_edges,
        )
        self._log_task(len(placeholder))
        return bound, placeholder, False

    def _dirty_tree_tuple(self, dev_vertex, first_hop) -> tuple[int, ...]:
        """The tree walk including any banned/duplicate vertices, bounded."""
        path = [dev_vertex, first_hop]
        u = first_hop
        seen = {first_hop}
        n = self.graph.num_vertices
        while u != self.target and len(path) <= n + 1:
            u = int(self.next_hop[u])
            if u < 0:
                break
            path.append(u)
            if u in seen:
                break  # cycle through repeated vertex; placeholder is enough
            seen.add(u)
        return tuple(path)

    def _repair(self, cand: Candidate) -> Candidate | None:
        """Run the postponed SSSP and return the exact candidate."""
        # Recover the deviation context from the placeholder tuple.
        dev_index = cand.deviation_index
        prefix = cand.vertices[: dev_index + 1]
        dev_vertex = prefix[-1]
        ctx = self._postponed.pop(cand.vertices, None)
        if ctx is None:  # pragma: no cover - defensive
            return None
        _, banned_vertices, banned_edges = ctx
        found = self._dijkstra_suffix(dev_vertex, banned_vertices, banned_edges)
        if found is None:
            return None
        dist, suffix, _ = found
        return Candidate(
            distance=cand.prefix_dist + dist,
            vertices=prefix[:-1] + suffix,
            deviation_index=dev_index,
            exact=True,
            prefix_dist=cand.prefix_dist,
        )


def pnc_ksp(graph, source: int, target: int, k: int, **kwargs) -> KSPResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="PNC"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="PNC", **kwargs)

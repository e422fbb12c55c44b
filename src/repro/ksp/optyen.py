"""OptYen (Ajwani, Duriakova, Hurley, Meyer, Schickedanz — ICPP 2018).

The state-of-the-art *parallel* baseline of the paper.  OptYen keeps exactly
one **static** reverse shortest-path tree rooted at the target (computed once
up front) and uses it for an *express* candidate at each deviation vertex:

1. among the deviation vertex's allowed out-neighbours ``w``, pick
   ``w* = argmin  w(v,w) + distTgt[w]`` — a lower bound on any allowed
   suffix, because ``distTgt`` is the unconstrained shortest distance;
2. if ``w*``'s tree path to the target is *clean* (touches no banned vertex,
   does not revisit the deviation vertex or prefix), it achieves the lower
   bound and is therefore the optimal suffix — no SSSP needed;
3. otherwise fall back to a target-stopped suffix search.  Ajwani et al.
   run a plain Dijkstra there, like Yen; here it is an A* search steered by
   the same ``distTgt``, which is a consistent potential on the graph and
   stays a lower bound under any bans.  The suffix distance is the same;
   the search settles far fewer vertices.

Given ``bound`` — a cost no wanted path exceeds, such as PeeK's prune
bound on the K-th shortest path — a deviation is dropped before any
search when the prefix cost plus the step-1 lower bound already exceeds
it, and the fallback search stops once its A* key passes ``bound -
prefix cost`` (Kurz and Mutzel's candidate bounding).  Every candidate
within the bound is still generated, so the paths up to the bound are
unchanged.

Unlike NC, nothing is ever updated: the tree is computed once, which is what
makes OptYen parallel-friendly (the paper's §1.1 observation).
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnreachableTargetError
from repro.ksp.base import DeviationKSP, KSPResult
from repro.paths import INF
from repro.sssp.dijkstra import dijkstra

__all__ = ["OptYenKSP", "optyen_ksp"]


class OptYenKSP(DeviationKSP):
    """OptYen: static reverse SP tree, express-or-A* suffix search."""

    name = "OptYen"
    lawler_default = True

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        *,
        bound: float = INF,
        lawler: bool | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__(graph, source, target, lawler=lawler, deadline=deadline)
        #: no candidate costing more than this is generated (``inf``: all are)
        self.bound = bound

    def _prepare(self) -> None:
        rev = dijkstra(self.graph.reverse(), self.target, deadline=self.deadline)
        self.stats.init_work += self.stats.add_sssp(rev.stats)
        #: dist_tgt[v] = shortest v→target distance in the *full* graph
        self.dist_tgt = rev.dist
        #: next_hop[v] = next vertex on v's tree path toward the target
        self.next_hop = rev.parent
        if not np.isfinite(self.dist_tgt[self.source]):
            raise UnreachableTargetError(
                f"target {self.target} unreachable from {self.source}"
            )
        # the fallback spur searches are A* on the same distances
        self._potential = self.dist_tgt.tolist()

    def _first_path(self):
        # The reverse tree already encodes the shortest path — walk it
        # instead of running another SSSP.
        from repro.paths import Path, reconstruct_reverse_path

        verts = reconstruct_reverse_path(self.next_hop, self.source, self.target)
        assert verts is not None
        return Path(
            distance=float(self.dist_tgt[self.source]), vertices=tuple(verts)
        )

    # ------------------------------------------------------------------
    #: below this out-degree the scalar scan beats NumPy's fixed call cost
    _VECTOR_MIN_DEGREE = 24

    def _best_first_hop(
        self, dev_vertex, banned_vertices, banned_edges
    ) -> tuple[int, float] | None:
        """``(w*, bound)`` minimising ``w(v,w) + distTgt[w]`` over allowed w.

        High-degree vertices use one masked vectorised argmin over the
        adjacency slice, reading bans from the workspace's incremental
        mask (the spur search that may follow applies the same set);
        low-degree ones keep the scalar scan (NumPy's per-call overhead
        dominates below ~two dozen neighbours).  Ties on the bound break
        toward the smallest vertex id in both paths.
        """
        targets, weights = self.graph.neighbors(dev_vertex)
        dist_tgt = self.dist_tgt
        if targets.size >= self._VECTOR_MIN_DEGREE:
            vals = weights + dist_tgt[targets]
            if banned_vertices:
                ws = self._get_workspace()
                ws.apply_bans(banned_vertices)
                vals[ws.ban[targets]] = INF
            if banned_edges:
                for u, w in banned_edges:
                    if u == dev_vertex:
                        vals[targets == w] = INF
            best_val = vals.min()
            if not np.isfinite(best_val):
                return None
            best_w = int(targets[vals == best_val].min())
            return best_w, float(best_val)
        best_w, best_val = -1, INF
        for w, wt in zip(targets.tolist(), weights.tolist()):
            if w in banned_vertices:
                continue
            if (dev_vertex, w) in banned_edges:
                continue
            val = wt + dist_tgt[w]
            if val < best_val or (val == best_val and w < best_w):
                best_w, best_val = w, val
        if best_w < 0 or not np.isfinite(best_val):
            return None
        return best_w, float(best_val)

    def _tree_suffix(
        self, dev_vertex, first_hop, banned_vertices
    ) -> tuple[int, ...] | None:
        """Walk the static tree from ``first_hop``; None when dirty.

        Dirty means: a banned (prefix) vertex, the deviation vertex itself,
        or ``first_hop`` again appears on the tree path — the concatenated
        candidate would not be simple.
        """
        path = [dev_vertex, first_hop]
        u = first_hop
        next_hop = self.next_hop
        while u != self.target:
            u = int(next_hop[u])
            if u < 0:
                return None  # detached from tree (possible on masked views)
            if u in banned_vertices or u == dev_vertex or u == first_hop:
                return None
            path.append(u)
        return tuple(path)

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        hop = self._best_first_hop(dev_vertex, banned_vertices, banned_edges)
        if hop is None:
            # No allowed first hop can reach the target even in the full
            # graph — no suffix exists, skip the SSSP entirely.
            self._log_task(1)
            return None
        w_star, hop_bound = hop
        if prefix_dist + hop_bound > self.bound:
            # even the lower bound prices this deviation out
            self.stats.bound_skips += 1
            self._log_task(1)
            return None
        suffix = self._tree_suffix(dev_vertex, w_star, banned_vertices)
        if suffix is not None:
            self.stats.express_hits += 1
            self._log_task(len(suffix))
            return hop_bound, suffix, True
        self.stats.express_misses += 1
        return self._dijkstra_suffix(
            dev_vertex,
            banned_vertices,
            banned_edges,
            limit=self.bound - prefix_dist,
        )


def optyen_ksp(graph, source: int, target: int, k: int, **kwargs) -> KSPResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="OptYen"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="OptYen", **kwargs)

"""Node Classification KSP (Feng 2014) — the paper's "NC" baseline.

NC maintains a reverse shortest-path tree toward the target and classifies
vertices per deviation into three colours:

* **red** — on the current prefix (excluded from any suffix);
* **green** — the vertex's tree path to the target avoids every red vertex;
* **yellow** — everything else.

If the deviation vertex's best allowed first hop is green, the candidate is
read straight off the tree.  Otherwise an SSSP over the non-red subgraph is
needed.  The classification machinery is the point of the algorithm *and*
its weakness: the tree is refreshed every outer iteration and the colours
are recomputed for every deviation — Θ(n) work per deviation that the paper
blames for NC's poor showing on large graphs (§7.2 observation iii).  This
implementation reproduces both the savings and the overhead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnreachableTargetError
from repro.ksp.base import DeviationKSP, KSPResult
from repro.paths import INF
from repro.sssp.dijkstra import dijkstra

__all__ = ["NodeClassificationKSP", "nc_ksp"]


class NodeClassificationKSP(DeviationKSP):
    """NC: per-iteration reverse tree refresh + per-deviation colouring."""

    name = "NC"
    lawler_default = True

    def _prepare(self) -> None:
        self._refresh_tree()
        if not np.isfinite(self.dist_tgt[self.source]):
            raise UnreachableTargetError(
                f"target {self.target} unreachable from {self.source}"
            )
        # vertices ordered by distance-to-target; colour propagation must
        # process parents before children and this order guarantees it
        self._order = np.argsort(self.dist_tgt, kind="stable")

    def _refresh_tree(self) -> None:
        """(Re)compute the reverse SP tree — NC's dynamic-update overhead."""
        rev = dijkstra(self.graph.reverse(), self.target)
        work = self.stats.add_sssp(rev.stats)
        self.stats.init_work += work
        self.dist_tgt = rev.dist
        self.next_hop = rev.parent
        self._finite = np.isfinite(rev.dist)

    def _first_path(self):
        from repro.paths import Path, reconstruct_reverse_path

        verts = reconstruct_reverse_path(self.next_hop, self.source, self.target)
        assert verts is not None
        return Path(
            distance=float(self.dist_tgt[self.source]), vertices=tuple(verts)
        )

    def iter_paths(self):
        # Wrap the framework loop so the tree is refreshed once per accepted
        # path — the "updating the reverse SP tree" cost the paper describes.
        inner = super().iter_paths()
        first = True
        for path in inner:
            if not first:
                self._refresh_tree()
                self._log_refresh_to_last_iteration()
            first = False
            yield path

    def _log_refresh_to_last_iteration(self) -> None:
        # Refresh happens between iterations; attribute it to the serial
        # portion of the iteration that just completed.
        if self.stats.iteration_serial:
            self.stats.iteration_serial[-1] += self.graph.num_edges

    # ------------------------------------------------------------------
    def _green_mask(self, banned_vertices: frozenset[int]) -> np.ndarray:
        """Colour propagation: green = tree path avoids all red vertices.

        One pass over vertices in increasing distance-to-target order; a
        vertex inherits greenness from its tree next-hop.  Θ(n) per call —
        NC's per-deviation overhead, charged to the serial work log.
        """
        n = self.graph.num_vertices
        green = np.zeros(n, dtype=bool)
        finite = self._finite
        next_hop = self.next_hop
        target = self.target
        if target not in banned_vertices:
            green[target] = True
        for u in self._order.tolist():
            if u == target or not finite[u]:
                continue
            if u in banned_vertices:
                continue
            nh = int(next_hop[u])
            if nh >= 0 and green[nh]:
                green[u] = True
        self._log_serial(n)
        return green

    def _tree_suffix(self, dev_vertex, first_hop) -> tuple[int, ...] | None:
        path = [dev_vertex, first_hop]
        u = first_hop
        while u != self.target:
            u = int(self.next_hop[u])
            if u < 0 or u == dev_vertex:
                return None
            path.append(u)
        return tuple(path)

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        green = self._green_mask(banned_vertices)
        targets, weights = self.graph.neighbors(dev_vertex)
        best_w, best_val = -1, INF
        dist_tgt = self.dist_tgt
        for w, wt in zip(targets.tolist(), weights.tolist()):
            if w in banned_vertices or (dev_vertex, w) in banned_edges:
                continue
            val = wt + dist_tgt[w]
            if val < best_val or (val == best_val and w < best_w):
                best_w, best_val = w, val
        if best_w < 0 or not np.isfinite(best_val):
            self._log_task(1)
            return None
        if green[best_w]:
            suffix = self._tree_suffix(dev_vertex, best_w)
            if suffix is not None:
                self.stats.express_hits += 1
                self._log_task(len(suffix))
                return float(best_val), suffix, True
        # yellow case: SSSP over the yellow region with green exits
        status, found = self._yellow_sssp(
            dev_vertex, banned_vertices, banned_edges, green
        )
        if status == "found":
            return found
        if status == "exhausted":
            return None  # provably no red-free suffix exists
        # a rare dirty concatenation: Yen-style full fallback
        return self._dijkstra_suffix(dev_vertex, banned_vertices, banned_edges)

    def _yellow_sssp(self, dev_vertex, banned_vertices, banned_edges, green):
        """Feng's yellow-region search: Dijkstra from the deviation vertex
        over non-red vertices, where settling a *green* vertex ``u`` closes
        a candidate ``d(v,u) + distTgt[u]`` (its tree path to the target is
        red-free by definition).  The search stops as soon as no unsettled
        label can beat the best closed candidate — this early exit over the
        green frontier is NC's saving over Yen's full searches.

        Soundness: any red-free suffix must touch a green vertex (the
        target itself is green), and both of its segments are bounded below
        by the Dijkstra label and ``distTgt``; the minimum closed candidate
        whose concatenation is simple is therefore optimal.  A non-simple
        concatenation (tree path re-entering the Dijkstra prefix) returns
        None and the caller falls back.
        """
        import heapq

        from repro.paths import INF, reconstruct_path

        # Epoch-stamped reuse: O(1) setup, incremental ban mask, and the
        # scalar loop runs over the workspace's Python-list CSR mirror.
        ws = self._get_workspace()
        ep = ws.next_epoch()
        dist, parent, dstamp, sstamp = ws.scalar_state()
        begins, ends, indices, weights, edge_mask = ws.adjacency_lists()
        ws.apply_bans(banned_vertices)
        ban = ws.ban_bytes
        dev_vertex = int(dev_vertex)
        dist[dev_vertex] = 0.0
        parent[dev_vertex] = dev_vertex
        dstamp[dev_vertex] = ep
        heap = [(0.0, dev_vertex)]
        dist_tgt = self.dist_tgt
        best_u, best_total = -1, INF
        work = 0
        settled_count = 0
        check_edges = bool(banned_edges)
        while heap:
            d, u = heapq.heappop(heap)
            if sstamp[u] == ep:
                continue
            if d >= best_total:
                break  # no remaining label can improve the closed candidate
            sstamp[u] = ep
            settled_count += 1
            work += 1
            if green[u] and u != dev_vertex:
                total = d + float(dist_tgt[u])
                if total < best_total:
                    best_u, best_total = u, total
                continue  # green vertices are exits; no need to expand them
            lo, hi = begins[u], ends[u]
            for e in range(lo, hi):
                if edge_mask is not None and not edge_mask[e]:
                    continue
                v = indices[e]
                if sstamp[v] == ep or ban[v]:
                    continue
                if check_edges and u == dev_vertex and (u, v) in banned_edges:
                    continue
                work += 1
                nd = d + weights[e]
                if dstamp[v] != ep or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    dstamp[v] = ep
                    heapq.heappush(heap, (nd, v))
        self.stats.sssp_calls += 1
        self.stats.vertices_settled += settled_count
        self.stats.edges_relaxed += work
        self._log_task(work)
        if best_u < 0:
            # the search drained without touching any green vertex: every
            # red-free route to the target is cut — no suffix exists
            return "exhausted", None
        prefix_part = reconstruct_path(parent, dev_vertex, best_u)
        if prefix_part is None:  # pragma: no cover - settled implies a path
            return "dirty", None
        if best_u == self.target:
            full = prefix_part
        else:
            tree_part = self._tree_suffix(best_u, int(self.next_hop[best_u]))
            if tree_part is None:
                return "dirty", None
            # tree_part is [best_u, next, ..., t]; prefix ends at best_u
            full = prefix_part + list(tree_part[1:])
        seen: set[int] = set()
        for x in full:
            if x in seen:
                return "dirty", None  # concatenation not simple
            seen.add(x)
        return "found", (float(best_total), tuple(full), True)


def nc_ksp(graph, source: int, target: int, k: int, **kwargs) -> KSPResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="NC"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="NC", **kwargs)

"""Yen's algorithm (Yen 1971) — Algorithm 1 of the paper.

Every deviation runs a target-stopped Dijkstra on the graph with the
prefix vertices and the used deviation edges removed.  O(Kn(m + n log n));
this is the baseline everything else beats.

Being nothing *but* spur searches, Yen benefits the most from the shared
epoch-stamped SSSP workspace (:mod:`repro.sssp.workspace`): all of its
Dijkstras reuse one set of traversal arrays with O(1) per-search setup and
an incrementally-maintained banned-vertex mask.
"""

from __future__ import annotations

from repro.ksp.base import DeviationKSP, KSPResult

__all__ = ["YenKSP", "yen_ksp"]


class YenKSP(DeviationKSP):
    """Classic Yen: one SSSP per deviation vertex, no auxiliary structures.

    ``lawler=True`` enables Lawler's 1972 refinement (skip deviation indices
    before the parent's own deviation point); the paper's Yen baseline runs
    without it, so that is the default here.
    """

    name = "Yen"
    lawler_default = False

    def _find_suffix(
        self, dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
    ):
        return self._dijkstra_suffix(dev_vertex, banned_vertices, banned_edges)


def yen_ksp(graph, source: int, target: int, k: int, **kwargs) -> KSPResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="Yen"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="Yen", **kwargs)

"""Pruning as a preprocessing stage for *any* KSP algorithm (novelty iii).

The paper's third novelty claim: "PeeK can integrate with existing KSP
algorithms to boost their performance.  In particular, K upper bound
pruning can serve as a preprocessing step for existing algorithms."

:class:`PrunedKSP` is that claim as code: it is :class:`~repro.core.peek.PeeK`
with the remnant solver swapped for any algorithm from the registry (Yen,
NC, OptYen, SB, SB*, PNC...).  The prune, the adaptive compaction, the
mapping of vertex ids back and the deadline handling are PeeK's own
(:func:`~repro.core.batch.prepare_remnant`).  Theorem 4.3 guarantees the
result is unchanged; the ``bench_integration.py`` benchmark measures the
boost each baseline gets.
"""

from __future__ import annotations

from repro.core.batch import PeeKResult
from repro.core.peek import PeeK
from repro.errors import KSPError
from repro.ksp.registry import ALGORITHMS

__all__ = ["PrunedKSP", "pruned_ksp"]


class PrunedKSP(PeeK):
    """K-upper-bound pruning + compaction in front of a registry algorithm.

    Parameters
    ----------
    inner:
        Registry name of the algorithm to accelerate ("Yen", "NC", "SB*",
        ...).  Asking for "PeeK" is rejected — that would prune twice.
    alpha, strong_edge_prune, deadline:
        As in :class:`~repro.core.peek.PeeK`; the deadline covers the
        prune and compaction stages as well as the inner solver.
    """

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        *,
        inner: str = "SB*",
        alpha: float = 0.1,
        strong_edge_prune: bool = False,
        deadline: float | None = None,
    ) -> None:
        super().__init__(
            graph,
            source,
            target,
            alpha=alpha,
            strong_edge_prune=strong_edge_prune,
            deadline=deadline,
        )
        if inner == "PeeK":
            raise KSPError("PrunedKSP('PeeK') would prune twice; use PeeK")
        if inner not in ALGORITHMS:
            raise KeyError(
                f"unknown inner algorithm {inner!r}; "
                f"choose from {sorted(set(ALGORITHMS) - {'PeeK'})}"
            )
        self.inner_name = inner
        self.name = f"Pruned-{inner}"


def pruned_ksp(
    graph, source: int, target: int, k: int, *, inner: str = "SB*", **kwargs
) -> PeeKResult:
    """Convenience wrapper: ``PrunedKSP(graph, s, t, inner=...).run(k)``."""
    return PrunedKSP(graph, source, target, inner=inner, **kwargs).run(k)

"""PeeK — prune, compact, then compute KSP (the paper's full pipeline, §3).

The three stages map one-to-one onto the paper's Figure 2:

1. **K upper bound pruning** (:mod:`repro.core.pruning`) marks every vertex
   that cannot appear on any of the K shortest paths;
2. **adaptive graph compaction** (:mod:`repro.core.compaction`) turns that
   decision into a graph the downstream stage traverses cheaply;
3. **KSP computation** — the paper's customised OptYen: only the static
   reverse tree is used (no vertex colours); an express candidate that is
   simple needs no further work, otherwise one SSSP on the *remaining*
   graph repairs it.  Here that is exactly
   :class:`~repro.ksp.optyen.OptYenKSP` instantiated on the compacted graph.

:class:`PeeK` runs stage 1 itself and hands the decision to
:func:`~repro.core.batch.prepare_remnant`, which owns stages 2–3 and the
mapping of remnant paths back to original ids for every front end
(:class:`PeeK`, :class:`~repro.core.batch.BatchPeeK` and
:class:`~repro.core.integrate.PrunedKSP`).

Feature flags reproduce the paper's ablation (Figure 8): ``prune=False,
compact=False`` is the "Base" configuration (plain OptYen), ``prune=True,
compact=False`` is "Base + Pruning" (status-array masks, no compaction),
and the default is full PeeK.
"""

from __future__ import annotations

from repro.core.batch import PeeKResult, PreparedQuery, prepare_remnant, record_prune
from repro.core.compaction import CompactionResult
from repro.core.pruning import PruneResult, k_upper_bound_prune
from repro.errors import KSPError
from repro.ksp.base import KSPAlgorithm
from repro.obs.tracer import get_tracer

__all__ = ["PeeK", "PeeKResult", "peek_ksp"]


class PeeK(KSPAlgorithm):
    """The PeeK pipeline as a drop-in KSP algorithm.

    Parameters
    ----------
    graph, source, target:
        The query, on the *original* graph with original vertex ids.
    alpha:
        Adaptive-compaction threshold (§5.4); regeneration is chosen when
        the remaining edges are fewer than ``alpha * m``.
    prune, compact:
        Ablation switches (Figure 8).  ``compact=False`` with pruning on
        uses the paper's status-array fallback.
    kernel:
        SSSP kernel for the pruning stage: ``"dijkstra"`` (the default,
        SciPy's compiled Dijkstra) or ``"delta"`` (Δ-stepping, whose
        per-phase log the parallel simulator replays); both give the same
        distances, see :func:`~repro.core.pruning.prune_sssp`.
    strong_edge_prune:
        Enable the edge-level Lemma-4.2 extension (see
        :func:`~repro.core.pruning.k_upper_bound_prune`).
    compaction_force:
        Pin one compaction strategy regardless of the α rule (benchmarks).

    Notes
    -----
    Unlike the other algorithms, PeeK needs K *before* any path can be
    produced (the prune bound depends on it), so use :meth:`run`; calling
    :meth:`iter_paths` first requires :meth:`prepare`.
    """

    name = "PeeK"
    #: registry name of the remnant solver
    inner_name = "OptYen"

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        *,
        alpha: float = 0.1,
        prune: bool = True,
        compact: bool = True,
        kernel: str = "dijkstra",
        strong_edge_prune: bool = False,
        compaction_force: str | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__(graph, source, target, deadline=deadline)
        self.alpha = alpha
        self.enable_prune = prune
        self.enable_compact = compact
        self.kernel = kernel
        self.strong_edge_prune = strong_edge_prune
        self.compaction_force = compaction_force
        #: the prepared query of the last :meth:`prepare`
        self.prepared: PreparedQuery | None = None
        self.prune_result: PruneResult | None = None
        self.compaction_result: CompactionResult | None = None

    # ------------------------------------------------------------------
    def prepare(self, k: int) -> None:
        """Run stages 1–2 for a given K and build the inner KSP solver."""
        if k < 1:
            raise ValueError("k must be >= 1")
        self.prepared = None
        self.prune_result = None
        self.compaction_result = None
        if self.enable_prune:
            with get_tracer().span("prune", k=k, kernel=self.kernel) as span:
                self.prune_result = k_upper_bound_prune(
                    self.graph,
                    self.source,
                    self.target,
                    k,
                    kernel=self.kernel,
                    strong_edge_prune=self.strong_edge_prune,
                    deadline=self.deadline,
                )
                record_prune(span, self.prune_result)
        # prune=False is the "Base" configuration: plain OptYen on the
        # original graph; compact=False is "Base + Pruning": status arrays.
        self.prepared = prepare_remnant(
            self.graph,
            self.source,
            self.target,
            k,
            self.prune_result,
            alpha=self.alpha,
            force=self.compaction_force if self.enable_compact else "status-array",
            inner=self.inner_name,
            deadline=self.deadline,
        )
        self.compaction_result = self.prepared.compaction

    def iter_paths(self):
        """Yield paths from the prepared pipeline (original vertex ids).

        Only the first ``k`` paths of :meth:`prepare` are guaranteed
        correct, so iteration stops there.
        """
        if self.prepared is None:
            raise KSPError(f"{self.name}.iter_paths requires prepare(k) first")
        return self.prepared.iter_paths()

    def run(self, k: int) -> PeeKResult:
        """Full pipeline: prune for K, compact, compute the K paths.

        Under an enabled tracer this emits a ``peek`` span with the three
        nested stage spans — ``prune`` / ``compact`` / ``ksp`` — carrying
        the per-stage counters (see ``docs/observability.md``).
        """
        with get_tracer().span("peek", algorithm=self.name, k=k):
            self.prepare(k)
            result = self.prepared.run()
            self.stats = result.stats  # expose KSP-stage counters
        return result


def peek_ksp(graph, source: int, target: int, k: int, **kwargs) -> PeeKResult:
    """Thin alias for :func:`repro.solve` with ``algorithm="PeeK"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="PeeK", **kwargs)

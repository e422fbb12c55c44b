"""The prune → compact → remnant-solver pipeline, and batched PeeK.

:func:`prepare_remnant` is the one implementation of the pipeline after
the prune (the paper's Figure 2, stages 2–3): it compacts the graph to a
:class:`~repro.core.pruning.PruneResult`, builds the inner solver on the
regenerated graph or the view, and returns a :class:`PreparedQuery` that
maps the remnant's paths back to original ids.
:class:`~repro.core.peek.PeeK`, :class:`BatchPeeK` and
:class:`~repro.core.integrate.PrunedKSP` differ only in how they prune.

Batched PeeK: many KSP queries against one graph.

Real deployments (the paper's routing and graph-database scenarios) issue
*streams* of s→t queries against one mostly-static graph.  Two reuse
opportunities fall out of PeeK's structure:

* **shared targets** — the reverse SSSP of the pruning stage depends only
  on the target, so queries with a common target share it (a routing
  engine answering "everyone → this gateway" computes one reverse tree,
  SciPy's compiled Dijkstra, and reads it from the cache after that);
* **shared sources** — symmetrically for the forward SSSP.

:class:`BatchPeeK` memoises both against an LRU-bounded cache and exposes
the same result objects as :class:`~repro.core.peek.PeeK`.  The KSP stage
itself is per-query (each query's bound and remnant differ).

The pruning decision is computed by the shared
:func:`~repro.core.pruning.bound_and_masks` — the same Algorithm 2
steps 2–3 code path as :func:`~repro.core.pruning.k_upper_bound_prune` —
and the rest by :func:`prepare_remnant`, so batched results stay bitwise
identical to single-query PeeK (tested).
:class:`repro.serve.QueryServer` builds on :meth:`BatchPeeK.prepare` to
drive the KSP stage incrementally under a deadline.

:class:`BatchPeeK` also memoises each pruning decision per ``(source,
target, k)``: PeeK's decision depends only on the query and the graph, so
a repeat query on an unchanged graph skips both SSSPs, the spSum scan and
the compaction build.  The same memo serves *live* graphs
(:class:`repro.dyn.live.LiveGraph`): :meth:`BatchPeeK.rebind` moves the
solver to a new snapshot.  It carries every cached SSSP tree onto the new
snapshot, recomputing only the part the batch can change
(:func:`repro.sssp.repair.carry_tree`, Ramalingam–Reps-style subtree
repair), and drops only the prepared pruning decisions the
Yamane–Kitajima-style reuse certificate
(:func:`~repro.core.pruning.prune_reuse_certificate`) cannot carry
forward.  A certificate-carried query skips both SSSPs and the spSum
scan entirely — the incremental re-solve the paper's dynamic Figure 12
workload motivates — and stays bitwise-identical to a cold solve on the
same snapshot (tested; audited by SAN-DYN under sanitizers).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import islice

from repro.analysis.sanitize import (
    check_carried_tree,
    check_dyn_reuse,
    sanitize_enabled_from_env,
)
from repro.core.compaction import (
    CompactionResult,
    RegeneratedGraph,
    adaptive_compact,
)
from repro.core.pruning import (
    PruneResult,
    PruneStats,
    bound_and_masks,
    prune_reuse_certificate,
    prune_sssp,
)
from repro.ksp.base import KSPAlgorithm, KSPResult, KSPStats
from repro.ksp.registry import ALGORITHMS, make_algorithm
from repro.obs.tracer import get_tracer
from repro.paths import Path
from repro.serve.query import Query, validate_query
from repro.sssp.repair import carry_tree

__all__ = [
    "PREPARED_CACHE_SIZE",
    "SSSP_CACHE_SIZE",
    "BatchPeeK",
    "PeeKResult",
    "PreparedQuery",
    "prepare_remnant",
    "record_prune",
]

#: LRU bound on the SSSP results :class:`BatchPeeK` retains across its
#: forward *and* reverse caches combined (each result is O(n) memory, so
#: this is the memory bound); eviction is least-recently-used over the two
#: directions together.
SSSP_CACHE_SIZE = 64

#: LRU bound on the pruning decisions :class:`BatchPeeK` memoises per
#: ``(source, target, k)``.
PREPARED_CACHE_SIZE = 32


@dataclass
class PeeKResult(KSPResult):
    """A :class:`~repro.ksp.base.KSPResult` plus PeeK's stage artefacts."""

    prune: PruneResult | None = None
    compaction: CompactionResult | None = None
    ksp_stats: KSPStats | None = None

    @property
    def pruned_vertex_fraction(self) -> float:
        return self.prune.pruned_vertex_fraction if self.prune else 0.0


@dataclass
class PreparedQuery:
    """One query after the prune and compact stages, ready for the KSP stage.

    Produced by :func:`prepare_remnant`.  ``inner`` is the remnant solver
    over the compacted graph (or the original graph when nothing was
    pruned); drive :meth:`inner.iter_paths` (mapping each path through
    :meth:`map_paths`) for incremental consumption — the serving layer
    does this to salvage partial results on timeout — or call :meth:`run`
    for the classic all-at-once result.
    """

    source: int
    target: int
    k: int
    inner: KSPAlgorithm
    prune: PruneResult | None
    compaction: CompactionResult | None
    #: graph snapshot version the prune/compaction were computed against
    #: (0 for static graphs; stamped by :class:`BatchPeeK`)
    version: int = 0

    def map_paths(self, paths) -> list[Path]:
        """Inner-graph paths → original vertex ids."""
        regen = self.compaction.compacted if self.compaction else None
        if not isinstance(regen, RegeneratedGraph):
            return list(paths)
        return [
            Path(p.distance, regen.map_path_back(p.vertices)) for p in paths
        ]

    def iter_paths(self):
        """The inner solver's paths in original ids, stopping at K.

        Only the first K paths are guaranteed correct — beyond that the
        prune bound no longer covers the enumeration (Theorem 4.3 is a
        statement about the top K).
        """
        for path in islice(self.inner.iter_paths(), self.k):
            yield from self.map_paths([path])

    def run(self) -> PeeKResult:
        """Run the KSP stage to completion and assemble the PeeK result."""
        result = self.inner.run(self.k)  # opens its own "ksp" span
        return PeeKResult(
            paths=self.map_paths(result.paths),
            k_requested=self.k,
            stats=result.stats,
            prune=self.prune,
            compaction=self.compaction,
            ksp_stats=result.stats,
        )


def record_prune(span, prune: PruneResult) -> None:
    """Fold one pruning decision into its ``prune`` span's counters."""
    if span.enabled:
        span.add("prune.inspected_paths", prune.stats.inspected_paths)
        span.add("prune.inspected_invalid", prune.stats.inspected_invalid)
        span.set_gauge("prune.pruned_vertex_fraction", prune.pruned_vertex_fraction)
        span.set_gauge("prune.bound", prune.bound)


def prepare_remnant(
    graph,
    source: int,
    target: int,
    k: int,
    prune: PruneResult | None,
    *,
    alpha: float = 0.1,
    force: str | None = None,
    compaction: CompactionResult | None = None,
    inner: str = "OptYen",
    deadline: float | None = None,
    version: int = 0,
) -> PreparedQuery:
    """Stages 2–3 of the pipeline: compact, then build the remnant solver.

    This is the one implementation of the paper's Figure 2 after the
    prune: :class:`~repro.core.peek.PeeK`, :class:`BatchPeeK` and
    :class:`~repro.core.integrate.PrunedKSP` all call it.

    Parameters
    ----------
    graph, source, target, k:
        The query, on the original graph with original vertex ids.
    prune:
        The pruning decision for ``k``.  ``None`` skips compaction: the
        inner solver runs on ``graph`` itself (PeeK's "Base" ablation).
    alpha, force:
        Forwarded to :func:`~repro.core.compaction.adaptive_compact`
        (``force="status-array"`` is PeeK's "Base + Pruning" ablation),
        with the prune's :attr:`~repro.core.pruning.PruneResult.threshold`
        as its weight rule and its strong edge mask, if any.
    compaction:
        A compaction already built for ``prune`` (a memoised decision);
        the compact stage is then skipped.
    inner:
        Registry name of the remnant solver.  A solver whose
        :class:`~repro.ksp.registry.AlgorithmSpec` takes ``bound=`` gets
        the prune's slack-widened threshold
        (:attr:`~repro.core.pruning.PruneResult.threshold`): the K-th
        shortest path costs at most ``b``, so no candidate above it is
        needed.
    deadline:
        Absolute deadline, observed by the compaction build and by the
        returned inner solver.
    version:
        Graph snapshot version stamped on the result.
    """
    if prune is not None and compaction is None:
        tracer = get_tracer()
        with tracer.span("compact") as span:
            # the weight rule goes in as the threshold, so no m-wide edge
            # mask is built unless edge-swap or status-array is chosen
            compaction = adaptive_compact(
                graph,
                prune.keep_vertices,
                prune.strong_edges,
                threshold=prune.threshold,
                alpha=alpha,
                force=force,
                deadline=deadline,
            )
            if span.enabled:
                span.attrs["strategy"] = compaction.strategy
                span.add("compact.build_work", compaction.build_work)
                span.set_gauge("compact.remaining_edges", compaction.remaining_edges)
                span.set_gauge(
                    "compact.remaining_vertices", compaction.remaining_vertices
                )
    kwargs = {}
    if prune is not None and "bound" in ALGORITHMS[inner].valid_kwargs:
        kwargs["bound"] = prune.threshold
    remnant, src, tgt = graph, source, target
    if compaction is not None:
        remnant = compaction.compacted
        if isinstance(remnant, RegeneratedGraph):
            src, tgt = remnant.map_vertex(source), remnant.map_vertex(target)
            remnant = remnant.graph
    return PreparedQuery(
        source=source,
        target=target,
        k=k,
        inner=make_algorithm(
            inner, remnant, src, tgt, deadline=deadline, **kwargs
        ),
        prune=prune,
        compaction=compaction,
        version=version,
    )


def _mirror(edges):
    """Edge triples ``(src, dst, w)`` as edges of the transpose."""
    src, dst, w = edges
    return dst, src, w


class BatchPeeK:
    """A PeeK instance amortised over many queries on one graph.

    Parameters
    ----------
    graph:
        The graph every query runs against (a snapshot; :meth:`rebind`
        moves the solver to the next one).
    sanitize:
        Audit every memoised-decision reuse with SAN-DYN (a cold
        re-prune comparison).  ``RPR_SANITIZE=1`` enables it regardless.
    """

    def __init__(self, graph, *, sanitize: bool = False) -> None:
        self.graph = graph
        self.sanitize = sanitize
        #: one LRU over both directions, keyed ("fwd"|"rev", root)
        self._cache: OrderedDict[tuple[str, int], object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: current snapshot version (monotone; stays 0 for static graphs)
        self.version = 0
        #: memoised (prune, compaction) decisions, keyed (source, target, k)
        self._prepared: OrderedDict[
            tuple[int, int, int], tuple[PruneResult, CompactionResult]
        ] = OrderedDict()
        self.invalidated = 0
        self.retained = 0
        self.repaired = 0
        self.prune_reused = 0
        self.prune_cold = 0

    # ------------------------------------------------------------------
    def _sssp(self, direction: str, graph, root: int, deadline: float | None):
        key = (direction, root)
        res = self._cache.get(key)
        if res is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            get_tracer().add("batch.cache_hits")
            return res
        self.misses += 1
        get_tracer().add("batch.cache_misses")
        res = prune_sssp(graph, root, deadline=deadline)
        self._cache[key] = res
        if len(self._cache) > SSSP_CACHE_SIZE:
            self._cache.popitem(last=False)
        return res

    def forward_sssp(self, source: int, *, deadline: float | None = None):
        """Cached forward SSSP from ``source``."""
        return self._sssp("fwd", self.graph, source, deadline)

    def reverse_sssp(self, target: int, *, deadline: float | None = None):
        """Cached reverse SSSP toward ``target``."""
        return self._sssp("rev", self.graph.reverse(), target, deadline)

    # ------------------------------------------------------------------
    def rebind(self, graph, *, version: int, summary) -> None:
        """Move the solver to a new graph snapshot.

        Repair instead of :meth:`clear_cache`'s wholesale drop:

        * every SSSP cache entry is carried onto ``graph`` (or its
          transpose) by :func:`~repro.sssp.repair.carry_tree`: a new tree,
          bitwise-equal to a cold one there, with only the vertices the
          batch's raised, removed, lowered and inserted edges can reach
          recomputed.  An entry is evicted when it reaches a tombstoned
          vertex, or when its repair would reset or relabel more than
          :func:`~repro.sssp.repair.repair_limit` vertices (a cold SciPy
          tree is then cheaper).  The old tree is left as it was:
          prepared decisions still hold it.  Under sanitizers SAN-DYN
          compares every carried tree with a cold one;
        * a memoised pruning decision survives iff
          :func:`~repro.core.pruning.prune_reuse_certificate` accepts the
          batch, and is then answered at ``version`` (eager per-batch
          evaluation, so certificates compose across batches).

        ``summary`` is the :class:`~repro.dyn.stream.MutationSummary` of
        the batch that produced ``graph``; ``version`` the new snapshot's
        monotone id.
        """
        if version <= self.version:
            raise ValueError(
                f"rebind version {version} is not beyond {self.version}"
            )
        self.graph = graph
        self.version = version
        raised = (summary.up_src, summary.up_dst, summary.up_old_w)
        lowered = (summary.down_src, summary.down_dst, summary.down_w)
        audit = self.sanitize or sanitize_enabled_from_env()
        stale = repaired = 0
        for key, tree in list(self._cache.items()):
            if key[0] == "fwd":
                on, up, down = graph, raised, lowered
            else:  # the transpose's edges run the other way
                on, up, down = graph.reverse(), _mirror(raised), _mirror(lowered)
            carried = carry_tree(tree, on, up, down, summary.tombstoned)
            if carried is None:
                del self._cache[key]
                stale += 1
                continue
            self._cache[key] = carried[0]
            repaired += carried[1]
            if audit:
                check_carried_tree(on, carried[0])
        dead = [
            key
            for key, (prune, _) in self._prepared.items()
            if not prune_reuse_certificate(prune, summary)
        ]
        for key in dead:
            del self._prepared[key]
        self.invalidated += stale + len(dead)
        self.retained += len(self._cache) + len(self._prepared)
        self.repaired += repaired
        tracer = get_tracer()
        tracer.add("batch.invalidated", stale + len(dead))
        tracer.add("batch.retained", len(self._cache) + len(self._prepared))
        tracer.add("batch.repaired", repaired)

    # ------------------------------------------------------------------
    def prepare(
        self,
        source: int,
        target: int,
        k: int,
        *,
        deadline: float | None = None,
    ) -> PreparedQuery:
        """Run the prune and compact stages for one query.

        Rejects a bad request with
        :func:`~repro.serve.query.validate_query`.  Reuses any cached SSSP
        halves; ``deadline`` (absolute
        ``time.perf_counter()``) is threaded into every stage — a cache
        *miss* SSSP, the spSum scan, the compaction build, and the
        returned inner solver all observe it cooperatively and raise
        :class:`~repro.errors.KSPTimeout`.
        """
        validate_query(self.graph, Query(source, target, k))
        key = (source, target, k)
        tracer = get_tracer()
        memo = self._prepared.get(key)
        if memo is not None:
            # certificate-carried (or same-version) reuse: skip both
            # SSSPs, the spSum scan, and the compaction build
            self._prepared.move_to_end(key)
            self.prune_reused += 1
            tracer.add("batch.prune_reuse")
            prune, compaction = memo
            if self.sanitize or sanitize_enabled_from_env():
                check_dyn_reuse(self.graph, prune, source, target, k)
            return prepare_remnant(
                self.graph,
                source,
                target,
                k,
                # this query did no pruning work: its stats read zero
                replace(prune, stats=PruneStats()),
                compaction=compaction,
                deadline=deadline,
                version=self.version,
            )
        self.prune_cold += 1
        tracer.add("batch.prune_cold")
        with tracer.span("prune", k=k) as span:
            # only the halves this query computed count as its SSSP work
            misses = self.misses
            fwd = self.forward_sssp(source, deadline=deadline)
            ran = [fwd] if self.misses > misses else []
            misses = self.misses
            rev = self.reverse_sssp(target, deadline=deadline)
            if self.misses > misses:
                ran.append(rev)
            prune = bound_and_masks(
                fwd,
                rev,
                source,
                target,
                k,
                graph=self.graph,
                stats=PruneStats.from_sssp(*ran),
                deadline=deadline,
            )
            record_prune(span, prune)
        prep = prepare_remnant(
            self.graph,
            source,
            target,
            k,
            prune,
            deadline=deadline,
            version=self.version,
        )
        self._prepared[key] = (prune, prep.compaction)
        if len(self._prepared) > PREPARED_CACHE_SIZE:
            self._prepared.popitem(last=False)
        return prep

    def query(
        self,
        source: int,
        target: int,
        k: int,
        *,
        deadline: float | None = None,
    ) -> PeeKResult:
        """One PeeK query, reusing any cached SSSP halves.

        Identical results to ``PeeK(graph, s, t).run(k)`` (tested); only
        the pruning SSSPs and the memoised pruning decisions are shared
        across queries.
        """
        tracer = get_tracer()
        with tracer.span("batch.query", source=source, target=target, k=k):
            prep = self.prepare(source, target, k, deadline=deadline)
            return prep.run()

    # ------------------------------------------------------------------
    @property
    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters plus current cache occupancy per direction.

        Also the memoised pruning-decision occupancy, the reuse split
        (``prune_reused``/``prune_cold``) and the rebind accounting:
        cumulative entries ``invalidated``/``retained`` across all
        rebinds, and ``repaired``: the retained SSSP trees that had part
        of themselves recomputed.
        """
        fwd = sum(1 for d, _ in self._cache if d == "fwd")
        return {
            "hits": self.hits,
            "misses": self.misses,
            "forward_cached": fwd,
            "reverse_cached": len(self._cache) - fwd,
            "prepared_cached": len(self._prepared),
            "invalidated": self.invalidated,
            "retained": self.retained,
            "repaired": self.repaired,
            "prune_reused": self.prune_reused,
            "prune_cold": self.prune_cold,
        }

    def clear_cache(self) -> None:
        """Drop all cached SSSP results and memoised pruning decisions."""
        self._cache.clear()
        self._prepared.clear()

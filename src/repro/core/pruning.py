"""K upper bound pruning — Algorithm 2, the paper's key contribution.

Given (G, s, t, K):

1. run a forward SSSP from ``s`` and a reverse SSSP from ``t`` (the
   paper prescribes Δ-stepping for its parallelism; Theorem 4.3 holds for
   any exact shortest-path trees, and the default here is SciPy's compiled
   Dijkstra, see :func:`~repro.sssp.pair.prune_trees`, which runs the
   two concurrently when the host has two cores);
2. ``spSum[v] = spSrc[v] + spTgt[v]`` — the shortest s→t distance through
   ``v`` (Lemma 4.1: a lower bound when the combined path is not simple);
3. scan vertices in increasing ``spSum``, counting *valid, unique* combined
   paths until K are found; the K-th distance is the upper bound ``b``;
4. prune every vertex with ``spSum[v] > b`` (Lemma 4.2) and every edge with
   weight ``> b``.

Theorem 4.3 (tested property): the K shortest simple paths of the pruned
graph equal those of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cancel import SCAN_CHECK_INTERVAL, cancellation_active, checkpoint
from repro.core.validation import combined_path, validate_combined_path
from repro.errors import UnreachableTargetError
from repro.paths import INF
from repro.serve.query import Query, validate_query
from repro.sssp.pair import prune_sssp, prune_trees
from repro.sssp.result import SSSPStats

__all__ = [
    "PruneStats",
    "PruneResult",
    "bound_and_masks",
    "k_upper_bound_prune",
    "prune_reuse_certificate",
    "prune_sssp",
    "prune_threshold",
]


@dataclass
class PruneStats:
    """Work accounting for one pruning run, per parallel job class (Fig 7).

    ``sssp_phase_work`` concatenates the two Δ-stepping phase logs (data
    parallel; empty on the ``"dijkstra"`` kernel, which has no phases to
    log); ``sort_work``/``sum_work`` are the O(n log n)/O(n) bulk
    passes (data parallel); ``validation_work`` is the combined length of
    all inspected paths (embarrassingly parallel, per the paper's hash-table
    design); ``prune_scan_work`` (``n + m``) is the paper's full-width
    vertex and edge mask kernels — the parallel simulator and the paper
    tables read it, though this implementation builds the edge mask only
    when something reads it (see :attr:`PruneResult.keep_edges`);
    ``inspected_invalid`` is the paper's λ.  ``edges_relaxed`` is
    summed from ``sssp`` — the stats of the SSSPs that ran — when it is
    read: the compiled kernel counts its relaxations on demand.
    """

    sssp_phase_work: list[int] = field(default_factory=list)
    sum_work: int = 0
    sort_work: int = 0
    validation_work: int = 0
    prune_scan_work: int = 0
    inspected_paths: int = 0
    inspected_invalid: int = 0
    vertices_settled: int = 0
    sssp: tuple[SSSPStats, ...] = field(default=(), repr=False)

    @classmethod
    def from_sssp(cls, *ran) -> "PruneStats":
        """Fresh stats carrying the counters of the SSSPs that ran (step
        1's work); a tree reused from a cache is not passed, so it
        contributes none."""
        return cls(
            sssp_phase_work=[w for res in ran for w in res.stats.phase_work],
            vertices_settled=sum(res.stats.vertices_settled for res in ran),
            sssp=tuple(res.stats for res in ran),
        )

    @property
    def edges_relaxed(self) -> int:
        return sum(st.edges_relaxed for st in self.sssp)

    @property
    def total_work(self) -> int:
        return (
            self.edges_relaxed
            + self.vertices_settled
            + self.sum_work
            + self.sort_work
            + self.validation_work
            + self.prune_scan_work
        )


def prune_threshold(bound: float) -> float:
    """The cost the masks keep up to: ``bound`` plus a relative 1e-9 slack.

    Distances on both sides of a comparison against ``b`` are sums of the
    same weights in different orders, so they can disagree by a few ulp.
    Keeping a hair more than the exact bound is always sound (pruning less
    can never violate Theorem 4.3); pruning a vertex that is exactly *at*
    the bound would drop a K-th path.
    """
    return bound + bound * 1e-9 if np.isfinite(bound) else bound


@dataclass
class PruneResult:
    """Everything downstream stages need from a pruning run."""

    #: the estimated K upper bound ``b`` (``inf`` when fewer than K valid
    #: combined paths exist — pruning then only removes unreachable parts)
    bound: float
    #: ``bool[n]`` — vertices that survive (``spSum <= b``)
    keep_vertices: np.ndarray
    #: the forward SSSP from ``s`` and the reverse SSSP toward ``t`` (any
    #: objects with ``dist``/``parent`` arrays)
    tree_src: object
    tree_tgt: object
    #: spSum[v] = spSrc[v] + spTgt[v]
    sp_sum: np.ndarray
    stats: PruneStats = field(default_factory=PruneStats)
    #: the pruned graph's edge weights, which :attr:`keep_edges` reads
    weights: np.ndarray | None = field(default=None, repr=False)
    #: ``bool[m]`` — the edge mask ``strong_edge_prune`` builds eagerly
    #: (weight rule included); ``None`` under the weight rule alone
    strong_edges: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._keep_edges = self.strong_edges

    @property
    def keep_edges(self) -> np.ndarray:
        """``bool[m]`` — edges that survive the weight rule (``w <=``
        :attr:`threshold`), and the edge-level rule under
        ``strong_edge_prune``.  Built on first read and cached: no solve
        or serve path reads it, since compaction applies the weight rule
        to the kept vertices' slices only."""
        if self._keep_edges is None:
            self._keep_edges = self.weights <= self.threshold
        return self._keep_edges

    @property
    def dist_src(self) -> np.ndarray:
        """Forward shortest distances (the paper's spSrc)."""
        return self.tree_src.dist

    @property
    def dist_tgt(self) -> np.ndarray:
        """Reverse shortest distances (the paper's spTgt)."""
        return self.tree_tgt.dist

    @property
    def parent_src(self) -> np.ndarray:
        """The forward parent array (the paper's parentSrc).  On the
        compiled kernel the scan resolves only the parents it walks, so the
        first read builds the whole array (one pass over every edge)."""
        return self.tree_src.parent

    @property
    def parent_tgt(self) -> np.ndarray:
        """The reverse parent array (parentTgt), next hop toward ``t``;
        built on first read like :attr:`parent_src`."""
        return self.tree_tgt.parent

    @property
    def threshold(self) -> float:
        """``bound`` widened by :func:`prune_threshold`'s slack."""
        return prune_threshold(self.bound)

    @property
    def num_kept_vertices(self) -> int:
        return int(self.keep_vertices.sum())

    @property
    def pruned_vertex_fraction(self) -> float:
        """Fraction of vertices removed — the paper's Figure 4 metric."""
        n = self.keep_vertices.size
        return 1.0 - self.num_kept_vertices / n if n else 0.0

    def pruned_edge_fraction(self, graph) -> float:
        """Fraction of edges removed (endpoint-pruned or overweight)."""
        m = graph.num_edges
        if m == 0:
            return 0.0
        live = (
            self.keep_edges
            & self.keep_vertices[graph.edge_sources()]
            & self.keep_vertices[graph.indices]
        )
        return 1.0 - float(live.sum()) / m


#: The scan sorts only the ``max(4K, SCAN_HEAD)`` smallest spSums up
#: front: a normal scan finds its K valid combined paths among them.
SCAN_HEAD = 64


def _spsum_order(sp_sum: np.ndarray, head: int, on_tail=None):
    """Yield the vertices with a finite spSum, in the order of a stable
    argsort of their sums.

    Only the head is sorted up front: every sum ``<=`` the ``head``-th
    smallest, found with ``np.partition`` over ``sp_sum`` itself (``inf``
    sorts last), taken in index order and stable-sorted.  When that pivot
    is ``inf``, fewer than ``head`` sums are finite and the head is all of
    them.  The rest — all strictly larger — is found and sorted only if
    the caller reads past the head, and ``on_tail()`` is called first if
    there is any.  Ties keep index order in both parts, so the sequence
    equals ``finite[np.argsort(sp_sum[finite], kind="stable")]`` for
    ``finite = np.flatnonzero(np.isfinite(sp_sum))``.
    """
    pivot = np.partition(sp_sum, head - 1)[head - 1] if sp_sum.size > head else INF
    if pivot == INF:
        first = np.flatnonzero(np.isfinite(sp_sum))
    else:
        first = np.flatnonzero(sp_sum <= pivot)
    yield from first[np.argsort(sp_sum[first], kind="stable")].tolist()
    if pivot == INF:
        return
    rest = np.flatnonzero(sp_sum > pivot)
    rest = rest[np.isfinite(sp_sum[rest])]
    if rest.size and on_tail is not None:
        on_tail()
    yield from rest[np.argsort(sp_sum[rest], kind="stable")].tolist()


def bound_and_masks(
    fwd,
    rev,
    source: int,
    target: int,
    k: int,
    *,
    graph,
    strong_edge_prune: bool = False,
    stats: PruneStats | None = None,
    deadline: float | None = None,
) -> PruneResult:
    """Algorithm 2 steps 2–3 over pre-computed SSSP halves.

    This is the single implementation of the spSum scan and the pruning
    masks, shared by :func:`k_upper_bound_prune` (which runs the two SSSPs
    itself) and :class:`~repro.core.batch.BatchPeeK` (which memoises them
    across queries).

    Parameters
    ----------
    fwd, rev:
        Forward SSSP from ``source`` and reverse SSSP toward ``target``
        (any object with ``dist``/``parent`` arrays over ``graph``'s
        vertex space).  The scan walks a tree's parents through its
        ``parent_of`` when it has one, so on the compiled kernel only the
        walked vertices' parents are resolved (see
        :func:`~repro.core.validation.combined_path`) — until the scan
        reads past its sorted head, where it reads both trees' ``parent``
        arrays once.
    graph:
        The graph the SSSPs were computed on.  The result keeps its
        ``weights`` for the weight-rule edge mask, built when
        :attr:`PruneResult.keep_edges` is first read; the optional strong
        mask reads the edge arrays here.
    strong_edge_prune:
        The edge-level Lemma-4.2 extension (see
        :func:`k_upper_bound_prune`).
    stats:
        Fold the scan's work accounting into an existing
        :class:`PruneStats` (e.g. one already carrying SSSP counters);
        a fresh one is created when omitted.
    deadline:
        Absolute time, on the clock :mod:`repro.cancel` has installed
        (wall time by default, virtual time under a ``SimClock``).  The
        scan checks it every :data:`repro.cancel.SCAN_CHECK_INTERVAL`
        inspected vertices and raises :class:`~repro.errors.KSPTimeout`.

    Raises
    ------
    UnreachableTargetError
        When ``fwd`` does not reach ``target``.
    """
    if not np.isfinite(fwd.dist[target]):
        raise UnreachableTargetError(
            f"target {target} unreachable from {source}"
        )
    n = graph.num_vertices
    if stats is None:
        stats = PruneStats()
    check_cancel = cancellation_active(deadline)

    # ---- Step 2: spSum and the K upper bound -----------------------------
    sp_sum = fwd.dist + rev.dist  # inf propagates for unreachable vertices
    stats.sum_work = n

    num_finite = int(np.count_nonzero(np.isfinite(sp_sum)))
    stats.sort_work = int(num_finite * max(int(np.log2(max(num_finite, 2))), 1))

    def build_parents() -> None:
        # a scan past its head walks much of both trees: one pass over the
        # edges per tree is cheaper than resolving its parents one by one
        for tree in (fwd, rev):
            tree.parent

    bound = INF
    seen_paths: set[tuple[int, ...]] = set()
    inspected = 0
    for v in _spsum_order(sp_sum, max(4 * k, SCAN_HEAD), build_parents):
        inspected += 1
        if check_cancel and inspected % SCAN_CHECK_INTERVAL == 1:
            checkpoint(deadline, "prune.scan")  # fires on the first inspection
        src_tgt = combined_path(fwd, rev, source, target, v)
        if src_tgt is None:  # pragma: no cover - finite spSum implies trees exist
            continue
        src_path, tgt_path = src_tgt
        stats.validation_work += len(src_path) + len(tgt_path)
        valid, full = validate_combined_path(src_path, tgt_path)
        stats.inspected_paths += 1
        if not valid:
            stats.inspected_invalid += 1
            continue
        if full in seen_paths:
            continue
        seen_paths.add(full)
        if len(seen_paths) == k:
            bound = float(sp_sum[v])
            break
    # Fewer than K valid combined paths: the scan proved nothing beyond
    # reachability, so b stays inf and only disconnected vertices fall.

    # ---- Step 3: prune ----------------------------------------------------
    if check_cancel:
        checkpoint(deadline, "prune.masks")
    threshold = prune_threshold(bound)
    # one compare: inf <= a finite threshold is False, and an infinite
    # bound keeps exactly the finite sums
    if np.isfinite(threshold):
        keep_vertices = sp_sum <= threshold
    else:
        keep_vertices = np.isfinite(sp_sum)
    strong_edges = None
    if strong_edge_prune:
        src_of_edge = graph.edge_sources()
        through = fwd.dist[src_of_edge] + graph.weights + rev.dist[graph.indices]
        strong_edges = graph.weights <= threshold
        strong_edges &= ~(through > threshold)  # inf+inf stays inf; > is NaN-safe
    stats.prune_scan_work = n + graph.num_edges

    return PruneResult(
        bound=bound,
        keep_vertices=keep_vertices,
        tree_src=fwd,
        tree_tgt=rev,
        sp_sum=sp_sum,
        stats=stats,
        weights=graph.weights,
        strong_edges=strong_edges,
    )


def prune_reuse_certificate(prune: PruneResult, summary) -> bool:
    """Can ``prune`` survive the mutation batch described by ``summary``?

    The Yamane–Kitajima-style reuse argument (PAPERS.md): if a batch is
    weight-increase-only (no effective inserts, no effective decreases)
    and every removed/increased edge and every tombstoned vertex lies
    *outside* the kept region, then

    * distances of kept vertices are unchanged — every shortest path to a
      kept vertex runs entirely through kept vertices over edges at most
      the threshold (the spSum triangle argument of Lemma 4.2), and
      increase-only mutations cannot create shorter paths;
    * hence ``sp_sum`` over kept vertices, the spSum scan, the K upper
      bound ``b``, ``keep_vertices``, and the compacted graph are all
      identical to what a cold re-prune on the new snapshot would
      produce — reusing the cached compaction yields bitwise-identical
      K shortest paths (ties aside, which are measure-zero for the
      float-weighted graphs this repo generates; SAN-DYN audits the
      equality at runtime when sanitizers are on).

    "Outside the kept region" is evaluated against the same slack-widened
    threshold :func:`bound_and_masks` used to build the masks, so an edge
    exactly at the bound counts as inside (conservative).  Returns
    ``False`` whenever reuse cannot be *proved* — a cold re-solve is
    always sound.
    """
    if summary.has_insert or summary.has_decrease:
        return False
    keep = prune.keep_vertices
    if summary.tombstoned.size and keep[summary.tombstoned].any():
        return False
    if summary.up_src.size:
        inside = (
            keep[summary.up_src]
            & keep[summary.up_dst]
            & (summary.up_old_w <= prune.threshold)
        )
        if inside.any():
            return False
    return True


def k_upper_bound_prune(
    graph,
    source: int,
    target: int,
    k: int,
    *,
    kernel: str = "dijkstra",
    strong_edge_prune: bool = False,
    deadline: float | None = None,
) -> PruneResult:
    """Run Algorithm 2 and return the pruning decision.

    Parameters
    ----------
    kernel:
        ``"dijkstra"`` (the default: SciPy's compiled Dijkstra, the faster
        serial kernel) or ``"delta"`` (the paper's parallel choice; emits
        the per-phase work log the parallel simulator replays).  Both give
        the same distances; see :func:`~repro.sssp.pair.prune_sssp`.  On
        the default kernel, with no deadline and no fault hook, a large
        graph's reverse tree is computed in a helper process while this
        one computes the forward tree (:func:`~repro.sssp.pair.prune_trees`;
        same result, bitwise).
    strong_edge_prune:
        Library extension beyond the paper's weight rule: additionally drop
        every edge ``(u, v)`` with ``spSrc[u] + w + spTgt[v] > b`` — the
        edge-level analogue of Lemma 4.2, sound by the same argument.  Off
        by default to match the paper; the ablation benchmark measures it.
    deadline:
        Absolute time, on the clock :mod:`repro.cancel` has installed
        (wall time by default, virtual time under a ``SimClock``),
        threaded into the SSSP kernels and the spSum scan; exceeding it
        raises :class:`~repro.errors.KSPTimeout` at the next checkpoint.

    Raises
    ------
    UnreachableTargetError
        When no s→t path exists (the paper samples only reachable pairs).
    KSPError
        When ``source == target`` — a KSP query needs distinct endpoints
        (the library-wide rule; see ``docs/serving.md``).
    """
    validate_query(graph, Query(source, target, k))

    # ---- Step 1: the two SSSPs -------------------------------------------
    fwd, rev = prune_trees(graph, source, target, kernel=kernel, deadline=deadline)

    return bound_and_masks(
        fwd,
        rev,
        source,
        target,
        k,
        graph=graph,
        strong_edge_prune=strong_edge_prune,
        stats=PruneStats.from_sssp(fwd, rev),
        deadline=deadline,
    )

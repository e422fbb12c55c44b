"""Adaptive graph compaction (paper §5).

Pruning marks vertices and edges dead; something must make the downstream
KSP not pay for them.  The paper compares three strategies, all implemented
here behind the common adjacency-array traversal protocol so the *same*
SSSP/KSP kernels run on any of them:

* **status array** (baseline, §5.4/Fig 6): keep the original CSR, carry a
  per-edge liveness mask that every traversal must test.  Cheapest to
  build, slowest to traverse.
* **edge swap** (§5.2): per vertex, two-pointer-swap the dead edges to the
  tail of its CSR segment and shrink the segment end.  The arrays keep
  their original size, but traversal touches only live edges.
* **regeneration** (§5.3): build a brand-new CSR over the surviving
  vertices with renumbered ids.  Most expensive to build, fastest and most
  cache-friendly to traverse.

The **adaptive** rule (§5.4) regenerates when the remaining edge count is
below ``α · m`` and edge-swaps otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cancel import cancellation_active, checkpoint, now
from repro.errors import GraphFormatError, VertexError
from repro.graph.csr import CSRGraph

__all__ = [
    "StatusArrayView",
    "EdgeSwapView",
    "RegeneratedGraph",
    "CompactionResult",
    "compact_status_array",
    "compact_edge_swap",
    "compact_regenerate",
    "adaptive_compact",
]


def _combined_edge_mask(
    base: CSRGraph, keep_vertices: np.ndarray, keep_edges: np.ndarray | None
) -> np.ndarray:
    """An edge survives iff it is kept and both endpoints are kept."""
    if keep_vertices.size != base.num_vertices:
        raise GraphFormatError("keep_vertices length must equal n")
    live = keep_vertices[base.edge_sources()] & keep_vertices[base.indices]
    if keep_edges is not None:
        live &= keep_edges
    return live


class _CompactViewBase:
    """Shared surface so views are drop-in graph substitutes for the kernels."""

    base: CSRGraph

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexError(f"vertex {v} out of range [0, {self.num_vertices})")

    def edge_weight(self, u: int, v: int) -> float | None:
        targets, weights = self.neighbors(u)
        mask = targets == v
        if not np.any(mask):
            return None
        return float(weights[mask].min())

    # subclasses provide: adjacency_arrays, neighbors, reverse, num_edges


class StatusArrayView(_CompactViewBase):
    """The paper's baseline: original CSR + per-edge liveness mask.

    Every kernel traversal pays one mask lookup per edge, dead or alive —
    the redundant work Figure 6's "Status array" series measures.
    """

    def __init__(
        self,
        base: CSRGraph,
        keep_vertices: np.ndarray,
        keep_edges: np.ndarray | None = None,
    ) -> None:
        keep_vertices = np.asarray(keep_vertices, dtype=bool)
        self.base = base
        self.keep_vertices = keep_vertices
        self.edge_mask = _combined_edge_mask(base, keep_vertices, keep_edges)
        self._reverse: "StatusArrayView | None" = None

    @property
    def num_edges(self) -> int:
        """Live edge count (the mask's popcount, not the array length)."""
        return int(self.edge_mask.sum())

    @property
    def weights(self) -> np.ndarray:
        # full-length array; masked kernels ignore dead entries
        return self.base.weights

    def adjacency_arrays(self):
        ip = self.base.indptr
        return ip[:-1], ip[1:], self.base.indices, self.base.weights, self.edge_mask

    def neighbors(self, v: int):
        self._check_vertex(v)
        lo, hi = int(self.base.indptr[v]), int(self.base.indptr[v + 1])
        mask = self.edge_mask[lo:hi]
        return self.base.indices[lo:hi][mask], self.base.weights[lo:hi][mask]

    def reverse(self) -> "StatusArrayView":
        """The same view over the transpose, with the mask permuted along."""
        if self._reverse is None:
            rev_base = self.base.reverse()
            # base.reverse() orders edges by stable argsort of targets; apply
            # the same permutation to carry each edge's liveness across.
            order = np.argsort(self.base.indices, kind="stable")
            view = object.__new__(StatusArrayView)
            view.base = rev_base
            view.keep_vertices = self.keep_vertices
            view.edge_mask = self.edge_mask[order]
            view._reverse = self
            self._reverse = view
        return self._reverse

    def memory_bytes(self) -> int:
        return self.base.memory_bytes() + self.edge_mask.nbytes + self.keep_vertices.nbytes


class EdgeSwapView(_CompactViewBase):
    """Edge-swap compaction (paper §5.2, Figure 5(b)).

    Copies the adjacency arrays once, then moves every vertex's live edges
    to the front of its CSR segment and shrinks the segment end — the exact
    layout the paper's per-vertex two-pointer swap produces.  The pass is
    realised as one vectorised stable partition over all segments at once
    (per-edge target position = segment start + live-rank within segment),
    which is the NumPy-idiomatic form of the same O(n + m_a) work.
    Traversal afterwards reads ``[beg_pos[v], beg_pos[v] + offset[v])``
    with no mask test.
    """

    def __init__(
        self,
        base: CSRGraph,
        keep_vertices: np.ndarray,
        keep_edges: np.ndarray | None = None,
    ) -> None:
        keep_vertices = np.asarray(keep_vertices, dtype=bool)
        self.base = base
        self.keep_vertices = keep_vertices
        live = _combined_edge_mask(base, keep_vertices, keep_edges)
        self._live = live
        self.indices = base.indices.copy()
        self.weights = base.weights.copy()
        indptr = base.indptr
        degs = np.diff(indptr)
        # live_cum0[e] = number of live edges among positions [0, e)
        live_cum0 = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(live, out=live_cum0[1:])
        live_per_seg = live_cum0[indptr[1:]] - live_cum0[indptr[:-1]]
        # each live edge lands at: segment start + its live-rank in segment
        seg_starts = np.repeat(indptr[:-1], degs)
        seg_before = np.repeat(live_cum0[indptr[:-1]], degs)
        new_pos = seg_starts + (live_cum0[1:] - seg_before) - 1
        lp = new_pos[live]
        self.indices[lp] = base.indices[live]
        self.weights[lp] = base.weights[live]
        self._ends = indptr[:-1] + live_per_seg
        self._num_edges = int(live_per_seg.sum())
        self._reverse: "EdgeSwapView | None" = None

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def adjacency_arrays(self):
        return self.base.indptr[:-1], self._ends, self.indices, self.weights, None

    def neighbors(self, v: int):
        self._check_vertex(v)
        lo, hi = int(self.base.indptr[v]), int(self._ends[v])
        return self.indices[lo:hi], self.weights[lo:hi]

    def reverse(self) -> "EdgeSwapView":
        """Edge-swap view of the transpose, sharing the same keep decision."""
        if self._reverse is None:
            order = np.argsort(self.base.indices, kind="stable")
            rev = EdgeSwapView(
                self.base.reverse(),
                self.keep_vertices,
                self._live[order],
            )
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    def memory_bytes(self) -> int:
        return (
            self.base.indptr.nbytes
            + self.indices.nbytes
            + self.weights.nbytes
            + self._ends.nbytes
            + self.keep_vertices.nbytes
        )


@dataclass
class RegeneratedGraph:
    """Regeneration compaction (paper §5.3, Figure 5(c)): a fresh CSR.

    ``graph`` holds renumbered vertex ids; ``new_id``/``old_id`` map between
    spaces, and :meth:`map_path_back` translates a KSP result's vertices to
    original ids.
    """

    graph: CSRGraph
    new_id: np.ndarray  # old -> new, -1 when pruned
    old_id: np.ndarray  # new -> old

    def map_vertex(self, old: int) -> int:
        """Original id → compacted id; raises if the vertex was pruned."""
        nv = int(self.new_id[old])
        if nv < 0:
            raise VertexError(f"vertex {old} was pruned away")
        return nv

    def map_path_back(self, vertices) -> tuple[int, ...]:
        """Compacted-id path → original-id path."""
        return tuple(int(self.old_id[v]) for v in vertices)


def compact_status_array(graph, keep_vertices, keep_edges=None) -> StatusArrayView:
    """Baseline compaction: build the liveness mask, change nothing else."""
    return StatusArrayView(graph, keep_vertices, keep_edges)


def compact_edge_swap(graph, keep_vertices, keep_edges=None) -> EdgeSwapView:
    """Edge-swap compaction over a copy of the CSR arrays."""
    return EdgeSwapView(graph, keep_vertices, keep_edges)


def compact_regenerate(graph, keep_vertices, keep_edges=None) -> RegeneratedGraph:
    """Regenerate a fresh, renumbered CSR over the surviving subgraph."""
    keep_vertices = np.asarray(keep_vertices, dtype=bool)
    kept = _kept_ids(graph, keep_vertices)
    return _regenerate(graph, kept, _live_edges(graph, keep_vertices, kept, keep_edges))


def _kept_ids(graph: CSRGraph, keep_vertices: np.ndarray) -> np.ndarray:
    """Ascending ids of the kept vertices (the regenerated graph's old ids)."""
    if keep_vertices.size != graph.num_vertices:
        raise GraphFormatError("keep_vertices length must equal n")
    return np.flatnonzero(keep_vertices)


def _live_edges(
    graph: CSRGraph,
    keep_vertices: np.ndarray,
    kept: np.ndarray,
    keep_edges: np.ndarray | None,
    threshold: float | None = None,
) -> np.ndarray:
    """Ascending positions of the edges :func:`_combined_edge_mask` keeps,
    and, given a ``threshold``, whose weight is at most it.

    Gathered from the kept vertices' (``kept``) out-edge slices, so the
    cost is the kept vertices' out-degree, not m.
    """
    lo = graph.indptr[kept]
    deg = graph.indptr[kept + 1] - lo
    ends = np.cumsum(deg)
    # slice i's positions are lo[i] + 0..deg[i]-1, laid end to end
    pos = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    pos += np.repeat(lo - (ends - deg), deg)
    live = keep_vertices[graph.indices[pos]]
    if keep_edges is not None:
        live &= keep_edges[pos]
    if threshold is not None:
        live &= graph.weights[pos] <= threshold
    return pos[live]


def _regenerate(graph: CSRGraph, kept: np.ndarray, live: np.ndarray) -> RegeneratedGraph:
    """The regenerated CSR over the kept vertex ids ``kept`` and the live
    edge positions ``live``."""
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[kept] = np.arange(kept.size, dtype=np.int64)
    src = graph.edge_sources()[live]
    dst = graph.indices[live]
    w = graph.weights[live]
    counts = np.bincount(new_id[src], minlength=kept.size)
    indptr = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # live is ascending, so the edges are already grouped by new source
    # id: no sort needed.
    sub = CSRGraph(indptr, new_id[dst], w, check=False)
    return RegeneratedGraph(graph=sub, new_id=new_id, old_id=kept)


@dataclass
class CompactionResult:
    """Outcome of :func:`adaptive_compact`."""

    #: "status-array" | "edge-swap" | "regeneration"
    strategy: str
    #: the object downstream kernels traverse (a view or a RegeneratedGraph)
    compacted: object
    remaining_vertices: int
    remaining_edges: int
    original_edges: int
    build_seconds: float = 0.0
    #: work units for the parallel simulator (embarrassingly parallel job):
    #: the paper's full-width build kernels (§5.4's accounting), whatever
    #: this implementation's gather skips
    build_work: int = 0

    @property
    def remaining_edge_fraction(self) -> float:
        return self.remaining_edges / self.original_edges if self.original_edges else 0.0

    @property
    def is_regenerated(self) -> bool:
        return self.strategy == "regeneration"


def adaptive_compact(
    graph,
    keep_vertices: np.ndarray,
    keep_edges: np.ndarray | None = None,
    *,
    threshold: float | None = None,
    alpha: float = 0.1,
    force: str | None = None,
    deadline: float | None = None,
) -> CompactionResult:
    """The adaptive selection rule of §5.4.

    Regenerate when the remaining edge count ``m_r < α · m`` (the remaining
    graph is small: pay the rebuild, win on every downstream traversal);
    edge-swap otherwise (the remaining graph is large: a rebuild would cost
    more than the traversal overhead it saves).  ``α ∈ [0, 1]``; heavier
    downstream work justifies a larger α — the paper suggests 0.6 for
    KSP-heavy workloads and we default lower for the light K≤128 queries.

    ``force`` overrides the rule with a named strategy (benchmarks use it).

    ``threshold`` adds the weight rule — an edge survives only if its
    weight is at most ``threshold`` — without an ``m``-wide ``keep_edges``
    mask: :func:`~repro.core.batch.prepare_remnant` passes the prune's
    :attr:`~repro.core.pruning.PruneResult.threshold` here.  Both may be
    given; an edge then needs to pass both.

    The live edge list is gathered once, from the kept vertices' out-edge
    slices (the weight rule applied to those slices only), so counting
    ``m_r`` costs the kept out-degree, not ``m``; regeneration builds from
    that same list and from the one ``flatnonzero`` of the kept set.
    Edge-swap and status-array build their own per-edge masks, the
    weight rule's included, as they must keep every edge's slot — only
    when they are chosen.

    ``deadline`` (absolute, on the installed clock) is checked before the
    live-edge gather and again before the strategy build — each is one
    vectorised pass, so those two checkpoints bound the overshoot at a
    single build's cost.  Exceeding it raises
    :class:`~repro.errors.KSPTimeout`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    check_cancel = cancellation_active(deadline)
    if check_cancel:
        checkpoint(deadline, "compact")
    keep_vertices = np.asarray(keep_vertices, dtype=bool)
    kept = _kept_ids(graph, keep_vertices)
    live = _live_edges(graph, keep_vertices, kept, keep_edges, threshold)
    m_r = int(live.size)
    n_r = int(kept.size)
    m = graph.num_edges

    if force is not None:
        strategy = force
    elif m_r < alpha * m:
        strategy = "regeneration"
    else:
        strategy = "edge-swap"

    if check_cancel:
        checkpoint(deadline, "compact.build")
    t0 = now()
    if strategy == "regeneration":
        compacted: object = _regenerate(graph, kept, live)
        # reads m_a + 2n, writes m_r + 2n_r (§5.4's accounting)
        build_work = graph.num_edges + 2 * graph.num_vertices + m_r + 2 * n_r
    elif strategy in ("edge-swap", "status-array"):
        if threshold is not None:
            light = graph.weights <= threshold
            keep_edges = light if keep_edges is None else keep_edges & light
        if strategy == "edge-swap":
            compacted = compact_edge_swap(graph, keep_vertices, keep_edges)
        else:
            compacted = compact_status_array(graph, keep_vertices, keep_edges)
        build_work = graph.num_vertices + graph.num_edges
    else:
        raise ValueError(f"unknown compaction strategy {strategy!r}")
    build_seconds = now() - t0

    return CompactionResult(
        strategy=strategy,
        compacted=compacted,
        remaining_vertices=n_r,
        remaining_edges=m_r,
        original_edges=m,
        build_seconds=build_seconds,
        build_work=build_work,
    )

"""Compressed-sparse-row (CSR) graph storage.

This is the graph representation the whole library computes on, mirroring the
paper's Figure 5: a ``beg_pos`` array (named ``indptr`` here, following the
scipy convention) of length ``n + 1`` and an adjacency array ``indices`` of
length ``m`` holding edge targets, plus a parallel ``weights`` array.

Design notes (per the HPC-Python guides this repo follows):

* All payload is held in contiguous NumPy arrays; per-vertex adjacency access
  returns *views*, never copies.
* The structure is immutable after construction.  Deletion is handled by the
  compaction layer (:mod:`repro.core.compaction`) exactly as the paper does —
  status arrays, edge swap on a copy, or regeneration — rather than by
  mutating a shared graph.
* The reverse graph (incoming edges) is built once on demand and cached,
  because PeeK's K-upper-bound pruning always needs one reverse SSSP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError, InvalidWeightError, VertexError

__all__ = ["CSRGraph", "CSRViolation", "csr_violation"]


@dataclass(frozen=True)
class CSRViolation:
    """The first broken CSR invariant: what it is and where.

    ``error`` is the exception a constructor raises for it
    (:class:`~repro.errors.GraphFormatError` for structure,
    :class:`~repro.errors.InvalidWeightError` for weights); ``context``
    names the offending ``vertex`` or ``edge`` (and its ``target`` or
    ``weight``) when there is one.
    """

    error: type
    message: str
    context: dict


def csr_violation(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
) -> CSRViolation | None:
    """Check the CSR invariants of three arrays; return the first violation.

    In order: ``indptr`` is 1-D and non-empty with ``indptr[0] == 0``;
    ``indices`` and ``weights`` are 1-D of one length; ``indptr`` never
    decreases and ends at that length; every target is in ``[0, n)``;
    every weight is a number, finite and strictly positive.  This is the
    one checker behind both :class:`CSRGraph` construction and the
    ``SAN-CSR`` sanitizer (:func:`repro.analysis.sanitize.check_csr`).
    The all-valid case costs a few O(n + m) reductions; the offending
    vertex or edge is only located once a reduction has failed.
    """
    if indptr.ndim != 1 or indptr.size < 1:
        return CSRViolation(
            GraphFormatError, "indptr must be a 1-D array of length n + 1", {}
        )
    if int(indptr[0]) != 0:
        return CSRViolation(
            GraphFormatError, f"indptr[0] is {int(indptr[0])}, must be 0", {}
        )
    if indices.ndim != 1 or weights.ndim != 1:
        return CSRViolation(
            GraphFormatError, "indices and weights must be 1-D arrays", {}
        )
    m = int(indices.size)
    if weights.size != m:
        return CSRViolation(
            GraphFormatError,
            f"indices ({m}) and weights ({weights.size}) must have the same "
            "length",
            {},
        )
    drops = np.flatnonzero(np.diff(indptr) < 0)
    if drops.size:
        v = int(drops[0])
        return CSRViolation(
            GraphFormatError,
            f"indptr must be non-decreasing: it drops from {int(indptr[v])} "
            f"to {int(indptr[v + 1])} at vertex {v}",
            {"vertex": v},
        )
    if int(indptr[-1]) != m:
        return CSRViolation(
            GraphFormatError,
            f"indptr[-1] ({int(indptr[-1])}) must equal the edge count ({m})",
            {},
        )
    if m == 0:
        return None
    n = int(indptr.size - 1)
    if int(indices.min()) < 0 or int(indices.max()) >= n:
        e = int(np.flatnonzero((indices < 0) | (indices >= n))[0])
        return CSRViolation(
            GraphFormatError,
            f"edge {e} targets vertex {int(indices[e])}, outside [0, {n})",
            {"edge": e, "target": int(indices[e])},
        )
    # min() is NaN when any weight is, so one comparison screens NaN,
    # zero, negative and (with max()) infinite weights
    if not (weights.min() > 0.0 and weights.max() < np.inf):
        nan = np.flatnonzero(np.isnan(weights))
        if nan.size:
            # NaN gets its own diagnosis: it is the classic silent-corruption
            # value (it fails *every* comparison, so Dijkstra never relaxes
            # through it) and deserves a sharper message than "not finite".
            e = int(nan[0])
            return CSRViolation(
                InvalidWeightError,
                f"edge {e} has NaN weight; weights must be finite and "
                "strictly positive (paper Definition 1)",
                {"edge": e},
            )
        e = int(np.flatnonzero(~np.isfinite(weights) | (weights <= 0.0))[0])
        return CSRViolation(
            InvalidWeightError,
            f"edge {e} has non-finite or non-positive weight "
            f"{float(weights[e])}; weights must be finite and strictly "
            "positive (paper Definition 1)",
            {"edge": e, "weight": float(weights[e])},
        )
    return None


class CSRGraph:
    """A directed, positively-weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[n + 1]`` — ``indices[indptr[v]:indptr[v+1]]`` are the
        out-neighbours of vertex ``v``.  ``indptr[0] == 0`` and
        ``indptr[n] == m``.
    indices:
        ``int64[m]`` — edge target vertices.
    weights:
        ``float64[m]`` — strictly positive edge weights, parallel to
        ``indices``.
    check:
        Validate the invariants with :func:`csr_violation` (monotone indptr,
        in-range targets, positive weights), raising
        :class:`~repro.errors.GraphFormatError` or
        :class:`~repro.errors.InvalidWeightError`.  Costs O(n + m); disable only on hot internal paths that
        construct guaranteed-valid CSRs (e.g. regeneration compaction).
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "_reverse",
        "_transpose_order",
        "_transpose_slot",
        "_edge_index",
        "_split",
        "_sources",
        "_matrix",
        "_matrix_index",
        "__weakref__",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        check: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self._reverse: "CSRGraph | None" = None
        #: the edge order of the transpose (kept by :meth:`reverse`)
        self._transpose_order: np.ndarray | None = None
        #: its inverse: where each edge sits in the transpose (built by the
        #: first :meth:`with_weights`)
        self._transpose_slot: np.ndarray | None = None
        self._edge_index: dict[tuple[int, int], float] | None = None
        self._split: tuple | None = None
        self._sources: np.ndarray | None = None
        self._matrix = None
        #: a weights-only predecessor's matrix ``(indices, indptr)``, which
        #: :meth:`sparse_matrix` reuses (set by :meth:`with_weights`)
        self._matrix_index: tuple[np.ndarray, np.ndarray] | None = None
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction / validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        bad = csr_violation(self.indptr, self.indices, self.weights)
        if bad is not None:
            raise bad.error(bad.message)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (parallel edges each count once)."""
        return int(self.indices.size)

    # Aliases matching the paper's notation.
    n = num_vertices
    m = num_edges

    # ------------------------------------------------------------------
    # adjacency access
    # ------------------------------------------------------------------
    def adjacency_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The library's graph-traversal protocol.

        Returns ``(begins, ends, indices, weights, edge_mask)``: vertex
        ``v``'s live out-edges occupy positions ``[begins[v], ends[v])`` of
        ``indices``/``weights``, further filtered by ``edge_mask`` when it is
        not ``None``.  Every SSSP/KSP kernel traverses through this protocol,
        which is what lets the three compaction strategies of
        :mod:`repro.core.compaction` (status array, edge swap, regeneration)
        plug into the same downstream computation — the heart of the paper's
        Figure 6 comparison.
        """
        return self.indptr[:-1], self.indptr[1:], self.indices, self.weights, None

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(targets, weights)`` views of vertex ``v``'s out-edges."""
        self._check_vertex(v)
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def out_degrees(self) -> np.ndarray:
        """``int64[n]`` array of all out-degrees."""
        return np.diff(self.indptr)

    def edge_range(self, v: int) -> tuple[int, int]:
        """``[begin, end)`` positions of ``v``'s edges in the edge arrays."""
        self._check_vertex(v)
        return int(self.indptr[v]), int(self.indptr[v + 1])

    def has_edge(self, u: int, v: int) -> bool:
        """True when a directed edge u→v exists."""
        targets, _ = self.neighbors(u)
        return bool(np.any(targets == v))

    def edge_weight(self, u: int, v: int) -> float | None:
        """Minimum weight among u→v edges, or ``None`` when absent.

        Parallel edges are legal in this library; shortest-path algorithms
        only ever care about the lightest one.
        """
        targets, weights = self.neighbors(u)
        mask = targets == v
        if not np.any(mask):
            return None
        return float(weights[mask].min())

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every edge as ``(u, v, w)`` in CSR order."""
        for u in range(self.num_vertices):
            lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
            for e in range(lo, hi):
                yield u, int(self.indices[e]), float(self.weights[e])

    def edge_sources(self) -> np.ndarray:
        """``int64[m]`` array of edge source vertices (expanded indptr).  Cached.

        The array is shared by every caller and marked read-only, so a
        caller that writes into it raises instead of corrupting the cache.
        """
        if self._sources is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            src.flags.writeable = False
            self._sources = src
        return self._sources

    def sparse_matrix(self):
        """The graph as a ``scipy.sparse.csr_matrix``.  Cached.

        Built on first use, for :func:`repro.sssp.dijkstra.dijkstra_tree`.
        The matrix shares ``weights`` (no copy) and holds its own int32 copy
        of the index arrays when they fit; a graph from :meth:`with_weights`
        shares its predecessor's copy instead, when that was made.
        Parallel edges stay separate entries and unsorted rows stay
        unsorted: SciPy's shortest-path routines take the lightest of
        parallel edges and need no order.
        """
        if self._matrix is None:
            from scipy.sparse import csr_matrix

            n = self.num_vertices
            indices, indptr = self._matrix_index or (self.indices, self.indptr)
            self._matrix = csr_matrix((self.weights, indices, indptr), shape=(n, n))
        return self._matrix

    def _matrix_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(indices, indptr)`` a matrix of this structure can share."""
        if self._matrix is not None:
            return self._matrix.indices, self._matrix.indptr
        return self._matrix_index

    def light_heavy_split(
        self, delta: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Light-first edge permutation for Δ-stepping.  Cached.

        Returns ``(begins, light_ends, ends, indices, weights)`` over a
        *permuted copy* of the edge arrays in which vertex ``v``'s light
        out-edges (weight ≤ Δ) occupy ``[begins[v], light_ends[v])`` and its
        heavy edges ``[light_ends[v], ends[v])``.  Range slicing replaces
        the per-batch boolean ``weights <= delta`` filter in the kernel's
        inner loop.

        Only the most recent Δ is retained: a PeeK query runs its forward
        and reverse SSSP at one Δ each (the reverse graph carries its own
        cache), and a Δ-sweep touches each value once anyway.  The graph's
        own ``indptr``/``indices``/``weights`` are never mutated (RPR001);
        the permuted arrays are private copies.
        """
        delta = float(delta)
        cached = self._split
        if cached is not None and cached[0] == delta:
            return cached[1:]
        heavy = self.weights > delta
        src = self.edge_sources()
        # stable two-key sort: group by source, light edges first, CSR order
        # preserved inside each (source, class) run
        perm = np.lexsort((heavy, src))
        begins = self.indptr[:-1]
        light_counts = np.bincount(src[~heavy], minlength=self.num_vertices)
        light_ends = begins + light_counts
        self._split = (
            delta,
            begins,
            light_ends,
            self.indptr[1:],
            self.indices[perm],
            self.weights[perm],
        )
        return self._split[1:]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge u→v becomes v→u). Cached.

        Built with a counting sort over edge targets, O(n + m), no Python
        loop over edges.
        """
        if self._reverse is None:
            n = self.num_vertices
            counts = np.bincount(self.indices, minlength=n)
            rindptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=rindptr[1:])
            order = np.argsort(self.indices, kind="stable")
            rindices = self.edge_sources()[order]
            rweights = self.weights[order]
            rev = CSRGraph(rindptr, rindices, rweights, check=False)
            rev._reverse = self  # transpose of the transpose is this graph
            self._reverse = rev
            self._transpose_order = order
        return self._reverse

    def with_weights(self, weights: np.ndarray, changed: np.ndarray) -> "CSRGraph":
        """The same edges with new ``weights``, in the same order.

        ``changed`` holds the position of every edge whose weight differs
        from this graph's (a superset is fine).  The structure is shared,
        not copied.  When this graph's transpose is built, the new graph's
        is derived from it instead of sorted again: the same ``indptr`` and
        ``indices``, and a copy of its weights with the changed edges
        scattered in through the inverse of the kept edge order (built
        once, then handed on).  It equals what :meth:`reverse` would build,
        array for array.  Either graph's :meth:`sparse_matrix` shares the
        int32 index arrays of its predecessor's, once that is built.
        """
        graph = CSRGraph(self.indptr, self.indices, weights, check=False)
        graph._sources = self._sources
        graph._matrix_index = self._matrix_arrays()
        rev, order = self._reverse, self._transpose_order
        if rev is not None and order is not None:
            slot = self._transpose_slot
            if slot is None:
                slot = np.empty_like(order)
                slot[order] = np.arange(order.size)
            rweights = rev.weights.copy()
            rweights[slot[changed]] = graph.weights[changed]
            derived = CSRGraph(rev.indptr, rev.indices, rweights, check=False)
            derived._sources = rev._sources
            derived._matrix_index = rev._matrix_arrays()
            derived._reverse = graph
            graph._reverse = derived
            graph._transpose_order = order
            graph._transpose_slot = slot
        return graph

    def sorted_copy(self) -> "CSRGraph":
        """A copy with each adjacency list sorted by (target, weight).

        Canonical form used by structural-equality tests; algorithms never
        require sorted adjacency.  One segment-aware ``np.lexsort`` over the
        whole edge array — keyed (source, target, weight), so every vertex's
        slice stays in place while sorting internally — replaces the former
        per-vertex Python loop, O(m log m) vectorised instead of n small
        sorts.
        """
        if self.num_edges == 0:
            return CSRGraph(
                self.indptr.copy(),
                self.indices.copy(),
                self.weights.copy(),
                check=False,
            )
        order = np.lexsort((self.weights, self.indices, self.edge_sources()))
        return CSRGraph(
            self.indptr.copy(),
            self.indices[order],
            self.weights[order],
            check=False,
        )

    def structurally_equal(self, other: "CSRGraph") -> bool:
        """True when both graphs have identical vertex/edge/weight sets.

        Adjacency order within a vertex is ignored (it is an artefact of
        construction order, not graph identity).
        """
        if self.num_vertices != other.num_vertices:
            return False
        if self.num_edges != other.num_edges:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        a, b = self.sorted_copy(), other.sorted_copy()
        return bool(
            np.array_equal(a.indices, b.indices)
            and np.allclose(a.weights, b.weights)
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate payload size in bytes (the three CSR arrays)."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"{self.memory_bytes() / 1e6:.2f} MB)"
        )

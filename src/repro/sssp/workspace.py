"""Reusable, epoch-stamped SSSP workspaces — the KSP hot-path engine.

A Yen-style KSP run issues thousands of spur-search Dijkstras against one
graph.  A search that allocates its own state pays O(n) before a single
edge is relaxed: three ``np.full`` arrays, plus a banned-vertex mask
rebuilt from a Python collection.  For a K=64 query on a 100k-vertex graph
that is tens of millions of wasted writes.  :class:`SSSPWorkspace` amortises all of it:

* ``dist``/``parent`` and the settled flags live in flat arrays that are
  **never cleared**.  A per-vertex *epoch stamp* records which query last
  wrote each slot; a slot whose stamp is stale reads as "+inf / unreached /
  unsettled".  Bumping the generation counter therefore *is* the reset —
  per-query setup is O(1) instead of O(n).
* the graph's CSR arrays are mirrored once into flat Python lists, because
  a scalar Dijkstra loop over list storage runs ~2x faster than the same
  loop doing per-element NumPy indexing.  The mirror is built lazily, so
  solvers that never fall back to a Dijkstra suffix search (OptYen on
  friendly graphs) never pay it.
* the banned-vertex mask is maintained **incrementally**: consecutive spur
  searches of one deviation pass differ by a single prefix vertex, so
  :meth:`apply_bans` flips only the set difference instead of rebuilding a
  ``bool[n]`` mask per call.

``dijkstra(..., workspace=ws)`` runs on this state and returns a
:class:`WorkspaceResult`; a ``dijkstra`` call without a workspace runs the
same loop on a throwaway one.  A workspace serves **one query at a time**:
results read the shared state through their epoch, and a result left over
from an earlier epoch raises ``RuntimeError`` on access unless it was
materialised first.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import VertexError
from repro.paths import INF

__all__ = ["SSSPWorkspace", "WorkspaceResult"]

#: a ``bool`` ban array is rejected rather than read as the ids {0, 1}
BOOL_BANS = "banned_vertices takes vertex ids, not a bool mask (np.flatnonzero it)"


class SSSPWorkspace:
    """Reusable traversal state for repeated SSSP queries on one graph.

    Parameters
    ----------
    graph:
        Anything implementing the adjacency-array protocol (a
        :class:`~repro.graph.csr.CSRGraph` or a compaction view).  The
        workspace is permanently bound to it; passing the workspace to a
        kernel running on a different graph raises.

    Notes
    -----
    The workspace is not thread-safe and serves one in-flight query at a
    time.  ``dist``/``parent`` reads must go through the owning query's
    :class:`WorkspaceResult` (which knows its epoch); everything else here
    is the kernels' private scratch space.
    """

    __slots__ = (
        "graph",
        "n",
        "epoch",
        "_dist",
        "_parent",
        "_dstamp",
        "_sstamp",
        "_ban_bytes",
        "ban",
        "_ban_current",
        "_adj",
        "_zero_pot",
    )

    def __init__(self, graph) -> None:
        self.graph = graph
        n = int(graph.num_vertices)
        self.n = n
        #: generation counter; bumped once per query by :meth:`next_epoch`
        self.epoch = 0
        # scalar-kernel state (flat Python lists; see module docstring)
        self._dist: list[float] = [INF] * n
        self._parent: list[int] = [-1] * n
        self._dstamp: list[int] = [0] * n  # epoch that last wrote dist/parent
        self._sstamp: list[int] = [0] * n  # epoch that settled the vertex
        # incremental banned-vertex mask: a bytearray for ~2x faster scalar
        # reads, with a zero-copy NumPy bool view for vectorised consumers
        self._ban_bytes = bytearray(n)
        self.ban = np.frombuffer(self._ban_bytes, dtype=np.uint8).view(np.bool_)
        self._ban_current: set[int] = set()
        self._adj: tuple | None = None
        self._zero_pot: list[float] | None = None

    # ------------------------------------------------------------------
    # epoch-stamped scalar state
    # ------------------------------------------------------------------
    def next_epoch(self) -> int:
        """Start a new query: O(1), invalidates every stale slot at once."""
        self.epoch += 1
        return self.epoch

    def scalar_state(self) -> tuple[list[float], list[int], list[int], list[int]]:
        """``(dist, parent, dist_stamp, settled_stamp)`` for a scalar kernel."""
        return self._dist, self._parent, self._dstamp, self._sstamp

    def adjacency_lists(self) -> tuple:
        """The bound graph's adjacency protocol mirrored into Python lists.

        Built on first use and cached: ``(begins, ends, indices, weights,
        edge_mask)`` with ``edge_mask`` ``None`` when the graph has no edge
        filtering (plain CSR).
        """
        if self._adj is None:
            begins, ends, indices, weights, edge_mask = self.graph.adjacency_arrays()
            self._adj = (
                begins.tolist(),
                ends.tolist(),
                indices.tolist(),
                weights.tolist(),
                None if edge_mask is None else edge_mask.tolist(),
            )
        return self._adj

    def zero_potential(self) -> list[float]:
        """The all-zero A* potential plain Dijkstra keys its heap with.

        Built on first use and cached; ``nd + 0.0 == nd``, so keying on it
        leaves every distance bitwise what it is.
        """
        if self._zero_pot is None:
            self._zero_pot = [0.0] * self.n
        return self._zero_pot

    # ------------------------------------------------------------------
    # incremental banned-vertex mask
    # ------------------------------------------------------------------
    def apply_bans(self, ids: Iterable[int]) -> None:
        """Make the mask equal ``set(ids)`` by flipping only the delta.

        Consecutive deviations of one KSP iteration grow the prefix by one
        vertex, so this is O(1) amortised there; arbitrary jumps (e.g.
        PNC's deferred repairs) cost the symmetric difference — still far
        below an O(n) mask rebuild.  Only the newly banned ids are checked
        against ``[0, n)``, before the mask is touched, so a bad id raises
        :class:`~repro.errors.VertexError` and leaves the mask in sync.  A
        ``bool`` array (a vertex mask, not ids) raises ``TypeError``.
        """
        new = ids
        if not isinstance(ids, (set, frozenset)):
            arr = np.asarray(list(ids))
            if arr.dtype == np.bool_:
                raise TypeError(BOOL_BANS)
            new = {int(v) for v in arr.tolist()}
        cur = self._ban_current
        if new == cur:
            return
        added = new - cur
        n = self.n
        for v in added:
            if not 0 <= v < n:
                raise VertexError(f"banned vertex {v} out of range [0, {n})")
        bb = self._ban_bytes
        for v in cur - new:
            bb[v] = 0
        for v in added:
            bb[v] = 1
        self._ban_current = set(new)

    def is_banned(self, v: int) -> bool:
        """Scalar read of the incremental mask."""
        return bool(self._ban_bytes[v])

    @property
    def ban_bytes(self) -> bytearray:
        """The mask as a bytearray (fastest scalar-loop reads)."""
        return self._ban_bytes

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate resident size of the workspace state."""
        n = self.n
        total = 8 * 4 * n + n  # four pointer lists + ban bytes
        if self._zero_pot is not None:
            total += 8 * n
        if self._adj is not None:
            begins, _, indices, weights, edge_mask = self._adj
            total += 8 * (len(begins) * 2 + len(indices) + len(weights))
            if edge_mask is not None:
                total += 8 * len(edge_mask)
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SSSPWorkspace(n={self.n}, epoch={self.epoch}, "
            f"adj_cached={self._adj is not None})"
        )


class WorkspaceResult:
    """An SSSP result that reads the workspace state through its epoch.

    Duck-types :class:`~repro.sssp.result.SSSPResult`: it exposes
    ``source``, ``stats``, ``reached``/``num_reached`` and lazy ``dist``/
    ``parent`` array properties, plus the cheap accessors the KSP hot path
    uses (:meth:`dist_of`, :meth:`parent_of`, :meth:`reconstruct`) that cost
    O(1)/O(path) instead of materialising O(n) arrays.

    Validity: the accessors read the live workspace and are valid **until
    the workspace starts its next query**; after that they raise
    ``RuntimeError``.  Accessing ``.dist``/``.parent`` (or calling
    :meth:`materialize`) snapshots the values into private arrays that stay
    valid forever — that is the O(n) compatibility path, and what a
    ``dijkstra`` call without a workspace returns.
    """

    __slots__ = ("source", "stats", "_ws", "_epoch", "_dist_arr", "_parent_arr")

    def __init__(self, ws: SSSPWorkspace, source: int, epoch: int, stats) -> None:
        self.source = int(source)
        self.stats = stats
        self._ws = ws
        self._epoch = epoch
        self._dist_arr: np.ndarray | None = None
        self._parent_arr: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _check_fresh(self) -> None:
        if self._ws.epoch != self._epoch:
            raise RuntimeError(
                "stale WorkspaceResult: the workspace has started a newer "
                "query; call materialize() before reusing the workspace if "
                "you need the arrays to outlive it"
            )

    def reached(self, v: int) -> bool:
        """True when ``v`` was labelled by this query."""
        if self._dist_arr is not None:
            return bool(np.isfinite(self._dist_arr[v]))
        self._check_fresh()
        return self._ws._dstamp[v] == self._epoch

    def num_reached(self) -> int:
        """Number of vertices with a finite distance."""
        if self._dist_arr is not None:
            return int(np.isfinite(self._dist_arr).sum())
        self._check_fresh()
        return int(np.count_nonzero(np.asarray(self._ws._dstamp) == self._epoch))

    def dist_of(self, v: int) -> float:
        """O(1) distance read (``inf`` when unreached)."""
        if self._dist_arr is not None:
            return float(self._dist_arr[v])
        self._check_fresh()
        return self._ws._dist[v] if self._ws._dstamp[v] == self._epoch else INF

    def parent_of(self, v: int) -> int:
        """O(1) parent read (``-1`` when unreached)."""
        if self._parent_arr is not None:
            return int(self._parent_arr[v])
        self._check_fresh()
        return self._ws._parent[v] if self._ws._dstamp[v] == self._epoch else -1

    def reconstruct(self, vertex: int) -> list[int] | None:
        """Walk parents from ``vertex`` back to the source — O(path length).

        Same contract as :func:`repro.paths.reconstruct_path`: returns
        ``[source, ..., vertex]`` or ``None`` when ``vertex`` is unreached.
        """
        if self._parent_arr is not None:
            from repro.paths import reconstruct_path

            return reconstruct_path(self._parent_arr, self.source, vertex)
        self._check_fresh()
        ws = self._ws
        ep = self._epoch
        source = self.source
        vertex = int(vertex)
        if ws._dstamp[vertex] != ep and vertex != source:
            return None
        parent = ws._parent
        out = [vertex]
        limit = ws.n + 1
        while out[-1] != source:
            out.append(parent[out[-1]])
            if len(out) > limit:  # pragma: no cover - corrupt-state guard
                raise RuntimeError("parent chain contains a cycle")
        out.reverse()
        return out

    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Snapshot ``dist``/``parent`` into arrays that outlive the epoch."""
        if self._dist_arr is not None:
            return
        self._check_fresh()
        ws = self._ws
        hit = np.asarray(ws._dstamp) == self._epoch
        self._dist_arr = np.where(hit, np.asarray(ws._dist, dtype=np.float64), INF)
        self._parent_arr = np.where(hit, np.asarray(ws._parent, dtype=np.int64), -1)

    @property
    def dist(self) -> np.ndarray:
        """``float64[n]`` distances — materialises a snapshot on first use."""
        self.materialize()
        assert self._dist_arr is not None
        return self._dist_arr

    @property
    def parent(self) -> np.ndarray:
        """``int64[n]`` parents — materialises a snapshot on first use."""
        self.materialize()
        assert self._parent_arr is not None
        return self._parent_arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "materialized" if self._dist_arr is not None else f"epoch={self._epoch}"
        return f"WorkspaceResult(source={self.source}, {state})"

"""Reusable, epoch-stamped SSSP workspaces — the KSP hot-path engine.

A Yen-style KSP run issues thousands of spur-search Dijkstras against one
graph.  Each fresh-allocation call pays O(n) before a single edge is
relaxed: three ``np.full`` arrays, plus a banned-vertex mask rebuilt from a
Python collection.  For a K=64 query on a 100k-vertex graph that is tens of
millions of wasted writes.  :class:`SSSPWorkspace` amortises all of it:

* ``dist``/``parent`` and the settled flags live in flat arrays that are
  **never cleared**.  A per-vertex *epoch stamp* records which query last
  wrote each slot; a slot whose stamp is stale reads as "+inf / unreached /
  unsettled".  Bumping the generation counter therefore *is* the reset —
  per-query setup is O(1) instead of O(n).
* the graph's CSR arrays are mirrored once into flat Python lists, because
  a scalar Dijkstra loop over list storage runs ~2x faster than the same
  loop doing per-element NumPy indexing.  The mirror is built lazily, so solvers that never need a repair search
  (OptYen on friendly graphs) never pay it.
* the banned-vertex mask is maintained **incrementally**: consecutive spur
  searches of one deviation pass differ by a single prefix vertex, so
  :meth:`apply_bans` flips only the set difference instead of rebuilding a
  ``bool[n]`` mask per call.

``dijkstra(..., workspace=ws)`` runs on this state and returns a
:class:`WorkspaceResult` whose values are bitwise-identical to the
fresh-allocation kernel's output (the property tests assert exactly that).
A workspace serves **one query at a time**: results read the shared state
through their epoch, and a result left over from an earlier epoch raises
``RuntimeError`` on access unless it was materialised first.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.paths import INF

__all__ = ["SSSPWorkspace", "WorkspaceResult"]


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
        "_np_dist",
        "_np_parent",
        "_np_settled",
        "_np_touched",
        "_ds_dist",
        "_ds_parent",
        "_ds_needs",
        "_ds_inr",
        "_ds_touched",
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
        # reusable NumPy buffers for array-based tenants (LazyDijkstra)
        self._np_dist: np.ndarray | None = None
        self._np_parent: np.ndarray | None = None
        self._np_settled: np.ndarray | None = None
        self._np_touched: list[int] = []
        # reusable Δ-stepping buffers (delta_stepping tenancy)
        self._ds_dist: np.ndarray | None = None
        self._ds_parent: np.ndarray | None = None
        self._ds_needs: np.ndarray | None = None
        self._ds_inr: np.ndarray | None = None
        self._ds_touched: list[int] = []

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

    # ------------------------------------------------------------------
    # incremental banned-vertex mask
    # ------------------------------------------------------------------
    def apply_bans(self, ids: Iterable[int]) -> None:
        """Make the mask equal ``set(ids)`` by flipping only the delta.

        Consecutive deviations of one KSP iteration grow the prefix by one
        vertex, so this is O(1) amortised there; arbitrary jumps (e.g.
        PNC's deferred repairs) cost the symmetric difference — still far
        below the O(n) rebuild the fresh-allocation path performs.
        """
        new = ids if isinstance(ids, (set, frozenset)) else {int(v) for v in ids}
        cur = self._ban_current
        if new == cur:
            return
        bb = self._ban_bytes
        for v in cur - new:
            bb[v] = 0
        for v in new - cur:
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
    # reusable NumPy buffers (LazyDijkstra tenancy)
    # ------------------------------------------------------------------
    def acquire_numpy(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Lend the reusable ``dist``/``parent``/``settled`` NumPy buffers.

        The previous tenant's writes are undone *sparsely*: tenants append
        every labelled vertex to the returned ``touched`` list, and the next
        acquisition resets exactly those slots — O(previous query's work),
        not O(n).  Only one tenant may hold the buffers at a time; acquiring
        again revokes the previous tenant's view.
        """
        if self._np_dist is None:
            n = self.n
            self._np_dist = np.full(n, INF, dtype=np.float64)
            self._np_parent = np.full(n, -1, dtype=np.int64)
            self._np_settled = np.zeros(n, dtype=bool)
        elif self._np_touched:
            idx = np.asarray(self._np_touched, dtype=np.int64)
            self._np_dist[idx] = INF
            self._np_parent[idx] = -1
            self._np_settled[idx] = False
        self._np_touched = []
        return self._np_dist, self._np_parent, self._np_settled, self._np_touched

    def acquire_delta(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Lend the reusable Δ-stepping buffers.

        Returns ``(dist, parent, needs, in_r, touched)`` under the same
        tenancy contract as :meth:`acquire_numpy`: the previous tenant's
        writes are undone sparsely from its ``touched`` list (every vertex
        the kernel labelled — including a run cancelled mid-bucket, whose
        partial writes are all in ``touched`` because the kernel appends
        eagerly), so acquisition costs O(previous query's work), not O(n).
        Only one tenant may hold the buffers at a time.
        """
        if self._ds_dist is None:
            n = self.n
            self._ds_dist = np.full(n, INF, dtype=np.float64)
            self._ds_parent = np.full(n, -1, dtype=np.int64)
            self._ds_needs = np.zeros(n, dtype=bool)
            self._ds_inr = np.zeros(n, dtype=bool)
        elif self._ds_touched:
            idx = np.asarray(self._ds_touched, dtype=np.int64)
            self._ds_dist[idx] = INF
            self._ds_parent[idx] = -1
            self._ds_needs[idx] = False
            self._ds_inr[idx] = False
        self._ds_touched = []
        return (
            self._ds_dist,
            self._ds_parent,
            self._ds_needs,
            self._ds_inr,
            self._ds_touched,
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate resident size of the workspace state."""
        n = self.n
        total = 8 * 4 * n + n  # four pointer lists + ban bytes
        if self._adj is not None:
            begins, _, indices, weights, edge_mask = self._adj
            total += 8 * (len(begins) * 2 + len(indices) + len(weights))
            if edge_mask is not None:
                total += 8 * len(edge_mask)
        if self._np_dist is not None:
            total += self._np_dist.nbytes + self._np_parent.nbytes
            total += self._np_settled.nbytes
        if self._ds_dist is not None:
            total += self._ds_dist.nbytes + self._ds_parent.nbytes
            total += self._ds_needs.nbytes + self._ds_inr.nbytes
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
    valid forever — that is the slow compatibility path, equal element-wise
    to what the fresh-allocation kernel would have returned.
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
        ep = self._epoch
        return sum(1 for s in self._ws._dstamp if s == ep)

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
        ep = self._epoch
        n = ws.n
        dist_arr = np.full(n, INF, dtype=np.float64)
        parent_arr = np.full(n, -1, dtype=np.int64)
        dstamp = ws._dstamp
        wdist = ws._dist
        wparent = ws._parent
        for v in range(n):
            if dstamp[v] == ep:
                dist_arr[v] = wdist[v]
                parent_arr[v] = wparent[v]
        self._dist_arr = dist_arr
        self._parent_arr = parent_arr

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

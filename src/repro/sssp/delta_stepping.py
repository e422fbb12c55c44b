"""Meyer–Sanders Δ-stepping with frontier-centric, backend-pluggable relaxation.

This is the paper's parallel SSSP (§6.2).  The algorithm groups vertices
into distance buckets of width Δ; one bucket is processed at a time, and all
edge relaxations inside a bucket step are independent — that step is the
data-parallel unit the paper parallelises with OpenMP.

The kernel is split into a shared *bucket driver* and pluggable *relaxation
engines*, GBBS-style (frontier arrays in, improved-vertex arrays out):

* the driver owns the bucket schedule — lazy per-bucket frontier lists
  keyed by ``floor(dist / Δ)``, the ``needs``/``in_r`` flags, the per-phase
  work log, deadline checkpoints, and footprint recording — and is the same
  for every backend, so each backend sees the identical sequence of
  relaxation batches;
* a ``"vectorized"`` engine (default) expands each frontier with the
  repeat/cumsum edge map over the graph's cached light/heavy split
  (:meth:`~repro.graph.csr.CSRGraph.light_heavy_split`), drops the
  relaxation requests that do not improve their target, and reduces
  duplicate targets with one packed-key sort + ``np.minimum.reduceat``;
* a ``"scalar"`` engine relaxes the same batches one edge at a time in
  plain Python — the auditable reference the vectorized engine is
  verified bitwise against.

Because the driver is shared and both engines resolve duplicate targets
with the same first-minimum-per-target rule, the two backends produce
**bitwise-identical** ``dist`` *and* ``parent`` arrays (tested property).
Per-step edge counts are logged in ``stats.phase_work`` and consumed by the
:mod:`repro.parallel` simulator to derive the thread-scaling curves of
Figure 9.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cancel import cancellation_active, checkpoint
from repro.errors import KSPError, VertexError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.paths import INF
from repro.sssp.result import SSSPResult, SSSPStats

__all__ = ["delta_stepping", "choose_delta", "BACKENDS"]

#: the Δ-stepping execution backends, in "reference first" order
BACKENDS = ("scalar", "vectorized")

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def choose_delta(graph: CSRGraph) -> float:
    """The standard Δ heuristic: max edge weight / average out-degree.

    Meyer & Sanders show Δ = Θ(max-weight / degree) balances the number of
    bucket phases against re-relaxation work on random weights.

    Raises
    ------
    KSPError
        When the edge-weight statistics are degenerate (zero or NaN mean
        weight).  Validated CSR construction rejects such weights, but
        graphs built with ``check=False`` can smuggle them in, and the
        heuristic would otherwise return a zero/NaN Δ that the kernel
        rejects with a far less useful message.
    """
    if graph.num_edges == 0:
        return 1.0
    mean_w = float(graph.weights.mean())
    if not np.isfinite(mean_w) or mean_w <= 0.0:
        raise KSPError(
            f"cannot choose a Δ bucket width: mean edge weight is {mean_w!r} "
            "(weights must be finite and strictly positive; was the graph "
            "built with check=False?)"
        )
    avg_deg = max(graph.num_edges / max(graph.num_vertices, 1), 1.0)
    return float(graph.weights.max()) / avg_deg


def _expand_frontier(
    frontier: np.ndarray, begins: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the edge positions of every frontier vertex.

    Returns ``(edge_idx, edge_src)`` where ``edge_idx`` indexes the CSR edge
    arrays and ``edge_src`` is the frontier vertex each edge leaves from.
    Pure numpy, no Python loop: the classic repeat/cumsum expansion.
    """
    starts = begins[frontier]
    counts = ends[frontier] - starts
    gathered = int(counts.sum())  # edge count, not a path cost (RPR004)
    if gathered == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    # offset of each vertex's block inside the flat output
    block_starts = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=block_starts[1:])
    edge_idx = (
        np.arange(gathered, dtype=np.int64)
        - np.repeat(block_starts, counts)
        + np.repeat(starts, counts)
    )
    edge_src = np.repeat(frontier, counts)
    return edge_idx, edge_src


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` for a non-empty int array, by sort and adjacent-compare
    (several times faster than ``np.unique``'s hash path on these sizes)."""
    a = np.sort(a)
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _relax_batch(
    dist: np.ndarray,
    parent: np.ndarray,
    targets: np.ndarray,
    cands: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Apply a batch of relaxation requests; return the improved vertices.

    The batch is first cut down to its *improving* requests (candidate
    strictly below the target's current distance).  That filter keeps every
    winner: a target's minimum candidate and the earliest batch position
    attaining it survive unchanged, and a target with no improving request
    was never going to be updated.  Most of a batch usually fails the test,
    so it never reaches the reduction.

    Duplicate targets are then reduced to their minimum candidate, ties
    broken by batch position (earliest wins), so ``parent`` stays consistent
    with ``dist``.  The reduction packs ``(target, position)`` into one
    int64 key, sorts once, and takes per-group minima with
    ``np.minimum.reduceat`` — ~2× faster than the two-key lexsort it
    replaces, with identical winner selection (the lexsort path survives as
    the fallback for batches too large to pack).  The improved vertices are
    returned in ascending order.
    """
    keep = cands < dist[targets]
    targets, cands, sources = targets[keep], cands[keep], sources[keep]
    bs = int(targets.size)
    if bs == 0:
        return targets
    shift = bs.bit_length()
    if int(targets.max()) < (1 << (62 - shift)):
        key = (targets << shift) | np.arange(bs, dtype=np.int64)
        key.sort()  # keys are unique: position bits break every tie
        t_sorted = key >> shift
        pos = key & ((1 << shift) - 1)
        c_sorted = cands[pos]
        group_first = np.ones(bs, dtype=bool)
        group_first[1:] = t_sorted[1:] != t_sorted[:-1]
        starts = np.flatnonzero(group_first)
        gmin = np.minimum.reduceat(c_sorted, starts)
        counts = np.diff(starts, append=bs)
        # winner = earliest batch position attaining its group's minimum;
        # gmin values are exact copies of c_sorted entries, so the equality
        # test selects group members, not approximately-close costs
        seq = np.arange(bs, dtype=np.int64)
        at_min = np.where(c_sorted == np.repeat(gmin, counts), seq, bs)
        win = pos[np.minimum.reduceat(at_min, starts)]
        best_t = t_sorted[starts]
        best_d = gmin
        best_p = sources[win]
    else:  # pragma: no cover - needs n * batch > 2^62
        order = np.lexsort((cands, targets))
        t_sorted = targets[order]
        group_first = np.ones(t_sorted.size, dtype=bool)
        group_first[1:] = t_sorted[1:] != t_sorted[:-1]
        best_t = t_sorted[group_first]
        best_d = cands[order][group_first]
        best_p = sources[order][group_first]
    # every surviving group minimum improves its target
    dist[best_t] = best_d
    parent[best_t] = best_p
    return best_t


# ----------------------------------------------------------------------
# relaxation engines
# ----------------------------------------------------------------------
class _VectorizedEngine:
    """Batched edge-map relaxation over NumPy arrays (the default backend).

    Plain CSR graphs go through the cached light/heavy split, so selecting
    a batch's edge class is pure range slicing; compaction views (which
    carry an ``edge_mask``) fall back to per-batch boolean filtering against
    the same traversal protocol every kernel uses.
    """

    def __init__(self, graph, delta, dist, parent) -> None:
        self.dist = dist
        self.parent = parent
        begins, ends, indices, weights, edge_mask = graph.adjacency_arrays()
        if edge_mask is None and hasattr(graph, "light_heavy_split"):
            begins, light_ends, ends, indices, weights = graph.light_heavy_split(
                delta
            )
            self.light_ends = light_ends
            self.light = None
            self.edge_mask = None
        else:
            self.light_ends = None
            self.light = weights <= delta
            self.edge_mask = edge_mask
        self.begins = begins
        self.ends = ends
        self.indices = indices
        self.weights = weights

    def relax(self, frontier, light: bool, label: str, recorder):
        """Relax ``frontier``'s light or heavy edges; return ``(improved,
        batch_size)`` with ``improved`` in ascending vertex order."""
        if self.light_ends is not None:
            if light:
                edge_idx, edge_src = _expand_frontier(
                    frontier, self.begins, self.light_ends
                )
            else:
                edge_idx, edge_src = _expand_frontier(
                    frontier, self.light_ends, self.ends
                )
        else:
            edge_idx, edge_src = _expand_frontier(frontier, self.begins, self.ends)
            if edge_idx.size:
                keep = self.light[edge_idx] if light else ~self.light[edge_idx]
                if self.edge_mask is not None:
                    keep &= self.edge_mask[edge_idx]
                edge_idx, edge_src = edge_idx[keep], edge_src[keep]
        if edge_idx.size == 0:
            return _EMPTY_I64, 0
        targets = self.indices[edge_idx]
        cands = self.dist[edge_src] + self.weights[edge_idx]
        improved = _relax_batch(self.dist, self.parent, targets, cands, edge_src)
        if recorder is not None:
            recorder.record_step(label, edge_src, targets, improved)
        return improved, int(edge_idx.size)


class _ScalarEngine:
    """Per-edge Python-loop relaxation — the auditable reference backend.

    Builds the exact batches the vectorized engine would (same edge
    enumeration order, same masks), gathers candidate distances against the
    phase-start snapshot, and commits with the same first-minimum-per-target
    rule as :func:`_relax_batch` — so its results are bitwise-identical to
    the vectorized engine, one honest edge at a time.
    """

    def __init__(self, graph, delta, dist, parent) -> None:
        self.dist = dist
        self.parent = parent
        begins, ends, indices, weights, edge_mask = graph.adjacency_arrays()
        if edge_mask is None and hasattr(graph, "light_heavy_split"):
            begins, light_ends, ends, indices, weights = graph.light_heavy_split(
                delta
            )
            self.light_ends = light_ends.tolist()
            self.light = None
            self.edge_mask = None
        else:
            self.light_ends = None
            self.light = (weights <= delta).tolist()
            self.edge_mask = None if edge_mask is None else edge_mask.tolist()
        self.begins = begins.tolist()
        self.ends = ends.tolist()
        self.indices = indices.tolist()
        self.weights = weights.tolist()

    def relax(self, frontier, light: bool, label: str, recorder):
        dist = self.dist
        indices = self.indices
        weights = self.weights
        # gather: all candidate reads happen before any commit, so the
        # per-edge loop sees the same phase-start snapshot the one-shot
        # vectorised batch does
        best: dict[int, tuple[float, int]] = {}
        batch_src: list[int] = []
        batch_tgt: list[int] = []
        nedges = 0
        # one bucket's frontier; the driver checkpoints per bucket phase
        # (the documented policy in repro/cancel.py)
        for u in frontier.tolist():  # contracts: disable=CTR201 (bounded)
            if self.light_ends is not None:
                if light:
                    lo, hi = self.begins[u], self.light_ends[u]
                else:
                    lo, hi = self.light_ends[u], self.ends[u]
            else:
                lo, hi = self.begins[u], self.ends[u]
            du = float(dist[u])
            for e in range(lo, hi):
                if self.light_ends is None:
                    if self.light[e] is not light:
                        continue
                    if self.edge_mask is not None and not self.edge_mask[e]:
                        continue
                t = indices[e]
                nedges += 1
                if recorder is not None:
                    batch_src.append(u)
                    batch_tgt.append(t)
                c = du + weights[e]
                cur = best.get(t)
                if cur is None or c < cur[0]:
                    best[t] = (c, u)
        if nedges == 0:
            return _EMPTY_I64, 0
        # commit: strict-< against the pre-batch distances, ascending
        # target order to match _relax_batch's improved-vertex order
        parent = self.parent
        improved: list[int] = []
        for t in sorted(best):
            c, u = best[t]
            if c < float(dist[t]):
                dist[t] = c
                parent[t] = u
                improved.append(t)
        out = (
            np.asarray(improved, dtype=np.int64) if improved else _EMPTY_I64
        )
        if recorder is not None:
            recorder.record_step(
                label,
                np.asarray(batch_src, dtype=np.int64),
                np.asarray(batch_tgt, dtype=np.int64),
                out,
            )
        return out, nedges


# ----------------------------------------------------------------------
# the shared bucket driver
# ----------------------------------------------------------------------
def _run_buckets(
    engine,
    source: int,
    delta: float,
    stats: SSSPStats,
    deadline: float | None,
    recorder,
    needs: np.ndarray,
    in_r: np.ndarray,
) -> None:
    """Drive the bucket schedule over ``engine``; mutates engine.dist/parent.

    The driver is backend-independent: every engine receives the identical
    sequence of (frontier, edge-class) batches, which is what makes the
    backends bitwise-interchangeable.

    Frontier membership is tracked with *lazy per-bucket lists*
    (GBBS/Julienne-style): whenever a vertex's distance improves outside
    the bucket being processed, it is appended to the list of its bucket
    id ``floor(dist / Δ)``, and a min-heap over the ids yields the next
    bucket.  Entries are never removed eagerly; when a bucket is popped,
    those whose ``needs`` flag is clear (already processed) are dropped,
    and what is left is sorted and deduped.  Selecting a bucket therefore
    costs O(its own entries), not O(every pending vertex).  The frontier is
    the ascending set of flagged vertices in the smallest bucket, exactly
    as a full rescan would find it: a flagged vertex's distance has not
    changed since its newest entry, so that entry sits in its current
    bucket, and any older entry sits in a higher bucket (``floor_divide``
    is monotone), which is popped only after the newer one — so a vertex
    still flagged there has re-entered that very bucket.

    Cancellation checkpoints fall once per bucket, once per light step, and
    once more after the last bucket if, since the last bucket selection, a
    flagged vertex was left outside the chosen bucket or a newly flagged
    vertex was listed.  That is the cadence of the earlier single-list
    driver, kept because the virtual-time serving loop bills per
    checkpoint; ``pending`` (the number of flagged vertices) and ``listed``
    track the trailing condition.
    """
    dist = engine.dist
    parent = engine.parent
    dist[source] = 0.0
    parent[source] = source
    needs[source] = True
    buckets: dict[int, list[np.ndarray]] = {}
    bucket_ids: list[int] = []  # min-heap over the keys of ``buckets``

    def push(vertices: np.ndarray) -> None:
        ids = np.floor_divide(dist[vertices], delta).astype(np.int64)
        order = np.argsort(ids)
        ids, vertices = ids[order], vertices[order]
        cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        heads = ids[np.concatenate(([0], cuts))].tolist()
        for b, part in zip(heads, np.split(vertices, cuts)):
            entries = buckets.get(b)
            if entries is None:
                buckets[b] = [part]
                heapq.heappush(bucket_ids, b)
            else:
                entries.append(part)

    push(np.asarray([source], dtype=np.int64))
    pending = 1  # vertices whose ``needs`` flag is set
    listed = True  # whether the loop's next checkpoint is due
    check_cancel = cancellation_active(deadline)

    while listed:
        if check_cancel:
            checkpoint(deadline, "sssp.delta")
        frontier = _EMPTY_I64
        # skips stale buckets; its work is bounded by the entries that the
        # (checkpointed) relaxation steps pushed
        while bucket_ids and not frontier.size:
            i = heapq.heappop(bucket_ids)
            entries = buckets[i]
            del buckets[i]
            cand = entries[0] if len(entries) == 1 else np.concatenate(entries)
            cand = cand[needs[cand]]
            if cand.size:
                frontier = _sorted_unique(cand)
        if not frontier.size:
            break
        listed = pending > frontier.size
        hi = (i + 1) * delta
        settles: list[np.ndarray] = []

        # ---- light-edge inner loop: may reinsert into bucket i ----
        while frontier.size:
            if check_cancel:
                checkpoint(deadline, "sssp.delta")
            needs[frontier] = False
            pending -= int(frontier.size)
            newly_removed = frontier[~in_r[frontier]]
            if newly_removed.size:
                in_r[newly_removed] = True
                settles.append(newly_removed)
            improved, nedges = engine.relax(frontier, True, f"light-{i}", recorder)
            stats.edges_relaxed += nedges
            stats.phases += 1
            stats.phase_work.append(nedges)
            if improved.size:
                fresh = ~needs[improved]
                pending += int(np.count_nonzero(fresh))
                needs[improved] = True
                here = dist[improved] < hi  # improvements never drop below lo
                if not here.all():
                    # a re-improved vertex is re-listed even when already
                    # flagged: its bucket moved
                    push(improved[~here])
                    listed = listed or bool(fresh[~here].any())
                frontier = improved[here]
            else:
                frontier = _EMPTY_I64

        # ---- heavy edges of everything settled in bucket i, once ----
        settled_now = settles[0] if len(settles) == 1 else np.concatenate(settles)
        stats.vertices_settled += int(settled_now.size)
        improved, nedges = engine.relax(settled_now, False, f"heavy-{i}", recorder)
        stats.edges_relaxed += nedges
        stats.phases += 1
        stats.phase_work.append(nedges)
        if improved.size:
            # heavy candidates exceed lo + Δ = hi, so all land in later buckets
            fresh = int(np.count_nonzero(~needs[improved]))
            needs[improved] = True
            pending += fresh
            listed = listed or fresh > 0
            push(improved)
        in_r[settled_now] = False  # sparse reset for the next bucket


def delta_stepping(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    footprint_recorder=None,
    deadline: float | None = None,
    backend: str = "vectorized",
) -> SSSPResult:
    """Δ-stepping SSSP from ``source``.

    Parameters
    ----------
    delta:
        Bucket width; defaults to :func:`choose_delta`.  Must be
        strictly positive (NaN is rejected too).
    footprint_recorder:
        Optional :class:`repro.analysis.race.DeltaSteppingFootprints` (or
        any object with its ``record_step`` signature).  When given, every
        bucket step's real read/write footprint — frontier sources and
        relaxation targets read, improved vertices written — is recorded
        as the gather → barrier → commit phase decomposition, which the
        race detector then audits.  Diagnostics only; adds Python-loop
        overhead per recorded step and changes no result.
    deadline:
        Absolute time, on the clock :mod:`repro.cancel` has installed
        (wall time by default, virtual time under a ``SimClock``), after
        which the kernel cooperatively raises
        :class:`~repro.errors.KSPTimeout`.  Checked once per bucket phase
        (light inner step and heavy step), so the overshoot is bounded by
        one relaxation batch.
    backend:
        ``"vectorized"`` (default) — batched NumPy edge-map relaxation;
        ``"scalar"`` — the per-edge reference loop the vectorized engine
        is verified against.  Both produce bitwise-identical ``dist`` and
        ``parent``.

    Notes
    -----
    ``stats.phase_work`` records the edge-relaxation count of every inner
    (light) step and every heavy step; ``stats.phases`` is the number of
    such steps.  Distances equal Dijkstra's exactly (tested property).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise VertexError(f"source {source} out of range [0, {n})")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if delta is None:
        delta = choose_delta(graph)
    if not delta > 0:  # also catches NaN, which every comparison fails
        raise ValueError(f"delta must be positive, got {delta!r}")

    stats = SSSPStats()
    tracer = get_tracer()

    with tracer.span("sssp.delta", backend=backend):
        dist = np.full(n, INF, dtype=np.float64)
        parent = np.full(n, -1, dtype=np.int64)
        needs = np.zeros(n, dtype=bool)
        in_r = np.zeros(n, dtype=bool)
        engine_cls = _ScalarEngine if backend == "scalar" else _VectorizedEngine
        engine = engine_cls(graph, delta, dist, parent)
        _run_buckets(
            engine,
            source,
            delta,
            stats,
            deadline,
            footprint_recorder,
            needs,
            in_r,
        )

    if tracer.enabled:
        tracer.add("sssp.calls")
        tracer.add("sssp.edges_relaxed", stats.edges_relaxed)
        tracer.add("sssp.vertices_settled", stats.vertices_settled)
        tracer.add("sssp.bucket_phases", stats.phases)
    return SSSPResult(source=source, dist=dist, parent=parent, stats=stats)

"""The shared deviation framework all KSP algorithms are built on.

Yen's algorithm and every descendant (NC, OptYen, SB, SB*, PNC, and PeeK's
customised KSP stage) share one loop: take the last accepted path, walk its
*deviation vertices*, find for each the shortest suffix that avoids the
path's prefix and the already-used deviation edges, push the concatenations
into a candidate pool, and accept the pool's minimum as the next path.

:class:`DeviationKSP` implements that loop once — including Lawler's
deviation-index optimisation, candidate de-duplication, deadline handling,
and the per-iteration task log the parallel simulator consumes.  Concrete
algorithms override a single hook, :meth:`DeviationKSP._find_suffix`, which
is precisely where their performance characteristics live.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from repro.cancel import checkpoint
from repro.errors import KSPError, KSPTimeout, UnreachableTargetError, VertexError
from repro.obs.tracer import get_tracer
from repro.paths import INF, Path
from repro.sssp.dijkstra import dijkstra

__all__ = [
    "KSPStats",
    "KSPResult",
    "KSPTimeout",  # re-exported from repro.errors (historical home)
    "KSPAlgorithm",
    "DeviationKSP",
    "Candidate",
]

_NO_EDGES: frozenset[tuple[int, int]] = frozenset()


@dataclass
class KSPStats:
    """Work accounting for one KSP run.

    ``iteration_tasks`` drives the paper's two-level parallel strategy in the
    simulator: entry *i* lists the work (edge relaxations + settles) of each
    independent suffix search of outer iteration *i* — these are the tasks
    that run concurrently on different threads.  ``iteration_serial`` holds
    per-iteration work that cannot be task-parallelised (e.g. NC's colour
    propagation, tree rebuilds).
    """

    sssp_calls: int = 0
    express_hits: int = 0
    express_misses: int = 0
    bound_skips: int = 0
    candidates_generated: int = 0
    candidates_deduped: int = 0
    repairs: int = 0
    edges_relaxed: int = 0
    vertices_settled: int = 0
    init_work: int = 0
    peak_tree_bytes: int = 0
    iteration_tasks: list[list[int]] = field(default_factory=list)
    iteration_serial: list[int] = field(default_factory=list)

    @property
    def total_work(self) -> int:
        """Abstract serial work units for the whole run."""
        return self.edges_relaxed + self.vertices_settled

    def add_sssp(self, sssp_stats) -> int:
        """Fold one SSSP's counters in; returns its work units."""
        self.sssp_calls += 1
        self.edges_relaxed += sssp_stats.edges_relaxed
        self.vertices_settled += sssp_stats.vertices_settled
        return sssp_stats.total_work


@dataclass
class KSPResult:
    """The K shortest simple paths plus run statistics.

    ``paths`` is sorted by ``(distance, vertices)`` and may be shorter than
    ``k_requested`` when the graph has fewer than K simple s→t paths.
    """

    paths: list[Path]
    k_requested: int
    stats: KSPStats = field(default_factory=KSPStats)

    @property
    def distances(self) -> list[float]:
        """The path distances, ascending."""
        return [p.distance for p in self.paths]

    def covered_vertices(self) -> set[int]:
        """Vertices appearing in at least one returned path (Figure 1)."""
        out: set[int] = set()
        for p in self.paths:
            out.update(p.vertices)
        return out

    def covered_edges(self) -> set[tuple[int, int]]:
        """Edges appearing in at least one returned path (Figure 1)."""
        out: set[tuple[int, int]] = set()
        for p in self.paths:
            out.update(p.edges())
        return out


@dataclass(order=True)
class Candidate:
    """A candidate path in the pool.

    ``exact`` is False only for PNC's postponed candidates, whose recorded
    distance is a lower bound that must be repaired before acceptance.
    ``prefix_dist`` is the cost of ``vertices[:deviation_index + 1]``,
    summed edge by edge from 0.0 when the candidate was generated.
    """

    distance: float
    vertices: tuple[int, ...]
    deviation_index: int = field(compare=False)
    exact: bool = field(compare=False, default=True)
    prefix_dist: float = field(compare=False, default=0.0)


class KSPAlgorithm:
    """Minimal interface every KSP algorithm exposes.

    Subclasses implement :meth:`iter_paths`; :meth:`run` collects K of them.
    """

    #: Short name used in benchmark tables ("Yen", "NC", "OptYen", ...).
    name: str = "?"

    def __init__(self, graph, source: int, target: int, *, deadline: float | None = None):
        n = graph.num_vertices
        if not 0 <= source < n:
            raise VertexError(f"source {source} out of range [0, {n})")
        if not 0 <= target < n:
            raise VertexError(f"target {target} out of range [0, {n})")
        if source == target:
            raise KSPError("source and target must differ for a KSP query")
        self.graph = graph
        self.source = source
        self.target = target
        self.deadline = deadline
        self.stats = KSPStats()

    def iter_paths(self) -> Iterator[Path]:
        """Yield the shortest simple s→t paths in non-decreasing distance."""
        raise NotImplementedError

    def run(self, k: int) -> KSPResult:
        """Return the K shortest simple paths (fewer when exhausted).

        The run executes under a ``ksp`` span on the global tracer; the
        run's :class:`KSPStats` are folded into the span's counters when
        tracing is enabled (see ``docs/observability.md``).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        tracer = get_tracer()
        with tracer.span("ksp", algorithm=self.name, k=k) as span:
            paths: list[Path] = []
            for path in self.iter_paths():
                paths.append(path)
                if len(paths) == k:
                    break
            if tracer.enabled:
                self._emit_obs(span)
        return KSPResult(paths=paths, k_requested=k, stats=self.stats)

    def _emit_obs(self, span) -> None:
        """Fold this run's stats into the closing span (enabled path only)."""
        st = self.stats
        # every deviation considered, searched or not (no-hop, bound-skipped)
        span.add("ksp.deviations", sum(len(t) for t in st.iteration_tasks))
        span.add("ksp.sssp_calls", st.sssp_calls)
        # the algorithm's own aggregate (includes resumable-SSSP work that
        # never goes through the standalone kernels, e.g. SB*'s LazyDijkstra)
        span.add("ksp.edges_relaxed", st.edges_relaxed)
        span.add("ksp.vertices_settled", st.vertices_settled)
        span.add("ksp.express_hits", st.express_hits)
        span.add("ksp.express_misses", st.express_misses)
        span.add("ksp.bound_skips", st.bound_skips)
        span.add("ksp.candidates_generated", st.candidates_generated)
        span.add("ksp.candidates_deduped", st.candidates_deduped)
        span.add("ksp.repairs", st.repairs)

    def _check_deadline(self) -> None:
        checkpoint(self.deadline, self.name)


class DeviationKSP(KSPAlgorithm):
    """Yen-style deviation loop with a pluggable suffix search.

    Parameters
    ----------
    graph, source, target:
        The query.  ``graph`` is anything implementing the adjacency-array
        protocol (a :class:`~repro.graph.csr.CSRGraph` or a compaction view).
    lawler:
        Apply Lawler's optimisation: deviations of an accepted path start at
        the index where it deviated from its own parent, skipping suffix
        searches that would only regenerate known candidates.  Classic Yen
        runs with ``lawler=False``; every later algorithm uses True.
    deadline:
        ``time.perf_counter()`` value after which :class:`KSPTimeout` is
        raised — benchmark harness support for the paper's 1-hour cap.

    Every spur-search Dijkstra of the run reuses one epoch-stamped
    :class:`~repro.sssp.workspace.SSSPWorkspace`: per-search setup is O(1)
    and the banned-vertex mask is maintained incrementally.  A subclass
    that knows a consistent lower bound on every vertex's distance to the
    target sets ``_potential`` (a list) in :meth:`_prepare`, and the spur
    searches become A* searches steered by it.
    """

    lawler_default = True

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        *,
        lawler: bool | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__(graph, source, target, deadline=deadline)
        self.lawler = self.lawler_default if lawler is None else lawler
        self._workspace = None
        #: A* potential of the spur searches (None: plain Dijkstra)
        self._potential: list[float] | None = None
        self._pool: list[Candidate] = []
        self._seen: set[tuple[int, ...]] = set()
        #: prefix -> the edges accepted paths take out of its last vertex
        self._dev_edges: dict[tuple[int, ...], frozenset[tuple[int, int]]] = {}

    def _get_workspace(self):
        """The solver's shared SSSP workspace, built on first use."""
        if self._workspace is None:
            from repro.sssp.workspace import SSSPWorkspace

            self._workspace = SSSPWorkspace(self.graph)
        return self._workspace

    def _emit_obs(self, span) -> None:
        super()._emit_obs(span)
        if self._workspace is not None:
            # epoch count == SSSP queries served by the one reused state
            span.set_gauge("workspace.epochs", self._workspace.epoch)
            span.set_gauge(
                "workspace.memory_bytes", self._workspace.memory_bytes()
            )

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        """One-time setup before the first path is produced.

        Algorithms that build auxiliary structures (reverse SP trees)
        override this; they must add the setup cost to ``stats.init_work``.
        """

    def _first_path(self) -> Path:
        """The 1st shortest path; default is a target-stopped Dijkstra."""
        res = dijkstra(
            self.graph,
            self.source,
            target=self.target,
            workspace=self._get_workspace(),
            deadline=self.deadline,
        )
        self.stats.init_work += self.stats.add_sssp(res.stats)
        if not res.reached(self.target):
            raise UnreachableTargetError(
                f"target {self.target} unreachable from {self.source}"
            )
        verts = res.reconstruct(self.target)
        assert verts is not None
        return Path(distance=res.dist_of(self.target), vertices=tuple(verts))

    def _find_suffix(
        self,
        dev_vertex: int,
        banned_vertices: frozenset[int],
        banned_edges: frozenset[tuple[int, int]],
        prefix: tuple[int, ...],
        prefix_dist: float,
    ):
        """Find the shortest simple suffix dev_vertex→target.

        Must avoid ``banned_vertices`` entirely and not start with any edge
        in ``banned_edges``.  ``prefix_dist`` is the cost of ``prefix``
        (the candidate will cost ``prefix_dist`` plus the suffix's
        distance).  Returns ``(distance, suffix_vertices, exact)``
        or ``None`` when no suffix exists.  ``exact=False`` marks a postponed
        (lower-bound) candidate that needs repair before acceptance (PNC).

        The returned work must be appended to ``self._iteration_tasks`` by
        the implementation (via :meth:`_log_task`).
        """
        raise NotImplementedError

    def _repair(self, cand: Candidate) -> Candidate | None:
        """Turn a postponed candidate into an exact one (PNC hook)."""
        raise KSPError(f"{self.name} produced a postponed candidate but has no repair")

    # ------------------------------------------------------------------
    # framework
    # ------------------------------------------------------------------
    def _log_task(self, work: int) -> None:
        """Record one suffix search's work for the two-level parallel model."""
        self._iteration_tasks.append(int(work))

    def _log_serial(self, work: int) -> None:
        """Record per-iteration work that cannot be task-parallelised."""
        self._iteration_serial += int(work)

    def iter_paths(self) -> Iterator[Path]:
        self._prepare()
        first = self._first_path()
        self._seen.add(first.vertices)
        self._index_accepted(first)
        yield first

        prev, dev_from, dev_prefix = first, 0, 0.0
        while True:
            self._check_deadline()
            # prefix_dist: distance of verts[:i+1], accumulated as the loop
            # walks the path; Lawler starts at the accepted candidate's
            # deviation index, whose prefix cost the candidate carries
            start, prefix_dist = (dev_from, dev_prefix) if self.lawler else (0, 0.0)
            self._iteration_tasks: list[int] = []
            self._iteration_serial = 0
            verts = prev.vertices
            for i in range(start, len(verts) - 1):
                self._check_deadline()
                dev_vertex = verts[i]
                prefix = verts[: i + 1]
                banned_vertices = frozenset(prefix[:-1])
                banned_edges = self._deviation_edges(prefix)
                found = self._find_suffix(
                    dev_vertex, banned_vertices, banned_edges, prefix, prefix_dist
                )
                if found is not None:
                    suf_dist, suf_verts, exact = found
                    cand_verts = prefix[:-1] + tuple(suf_verts)
                    if cand_verts not in self._seen:
                        self.stats.candidates_generated += 1
                        heapq.heappush(
                            self._pool,
                            Candidate(
                                distance=prefix_dist + suf_dist,
                                vertices=cand_verts,
                                deviation_index=i,
                                exact=exact,
                                prefix_dist=prefix_dist,
                            ),
                        )
                        self._seen.add(cand_verts)
                    else:
                        self.stats.candidates_deduped += 1
                prefix_dist += self._edge_weight(verts[i], verts[i + 1])
            self.stats.iteration_tasks.append(self._iteration_tasks)
            self.stats.iteration_serial.append(self._iteration_serial)

            nxt = self._pop_exact()
            if nxt is None:
                return
            prev = Path(distance=nxt.distance, vertices=nxt.vertices)
            dev_from, dev_prefix = nxt.deviation_index, nxt.prefix_dist
            self._index_accepted(prev)
            yield prev

    def _pop_exact(self) -> Candidate | None:
        """Pop the minimum candidate, repairing postponed ones as needed."""
        while self._pool:
            self._check_deadline()
            cand = heapq.heappop(self._pool)
            if cand.exact:
                return cand
            self.stats.repairs += 1
            repaired = self._repair(cand)
            if repaired is not None and repaired.vertices not in self._seen:
                self._seen.add(repaired.vertices)
                heapq.heappush(self._pool, repaired)
        return None

    def _index_accepted(self, path: Path) -> None:
        """Record the edge ``path`` takes out of each of its prefixes."""
        pv = path.vertices
        dev_edges = self._dev_edges
        for i in range(len(pv) - 1):
            prefix = pv[: i + 1]
            edge = (pv[i], pv[i + 1])
            known = dev_edges.get(prefix, _NO_EDGES)
            if edge not in known:
                dev_edges[prefix] = known | {edge}

    def _edge_weight(self, u: int, v: int) -> float:
        """The lightest live u→v edge's weight, from the workspace mirror.

        What ``graph.edge_weight`` returns, without a NumPy call per
        edge: the minimum over parallel edges, skipping edges the graph's
        ``edge_mask`` hides.
        """
        begins, ends, indices, weights, edge_mask = (
            self._get_workspace().adjacency_lists()
        )
        best = INF
        for e in range(begins[u], ends[u]):
            if (
                indices[e] == v
                and weights[e] < best
                and (edge_mask is None or edge_mask[e])
            ):
                best = weights[e]
        assert best < INF, "accepted path uses a missing edge"
        return best

    def _deviation_edges(
        self, prefix: tuple[int, ...]
    ) -> frozenset[tuple[int, int]]:
        """Edges that accepted paths take out of this prefix (Alg. 1 line 6)."""
        return self._dev_edges.get(prefix, _NO_EDGES)

    # ------------------------------------------------------------------
    # helpers shared by the concrete suffix searches
    # ------------------------------------------------------------------
    def _dijkstra_suffix(
        self,
        dev_vertex: int,
        banned_vertices: frozenset[int],
        banned_edges: frozenset[tuple[int, int]],
        limit: float = INF,
    ):
        """Target-stopped Dijkstra — Yen's suffix search, and the one every
        other algorithm falls back to when its shortcut does not apply.

        Runs on the solver's shared epoch-stamped workspace, so
        back-to-back spur searches pay O(1) setup and only the ban-set
        delta.  With ``_potential`` set the search is A*: same distance,
        fewer settles.  A suffix longer than ``limit`` is not looked for:
        the A* search stops at it and the method returns None.
        """
        res = dijkstra(
            self.graph,
            dev_vertex,
            target=self.target,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            workspace=self._get_workspace(),
            potential=self._potential,
            limit=limit,
            deadline=self.deadline,
        )
        work = self.stats.add_sssp(res.stats)
        self._log_task(work)
        if not res.reached(self.target):
            return None
        verts = res.reconstruct(self.target)
        assert verts is not None
        return res.dist_of(self.target), tuple(verts), True

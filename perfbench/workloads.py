"""The three benchmark workloads: inputs, set-up, timed loop and checks.

Every workload is a closed loop with one caller: the next query is issued
when the previous one has returned. Inputs are pure functions of the seed,
no query carries a deadline, and every answer is checked outside the timed
regions. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import random
import resource
import time
from collections import Counter
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

import repro
from repro.core.pruning import bound_and_masks
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.graph.suite import suite_graph
from repro.ksp.base import KSPResult
from repro.load.mixes import KSampler, largest_scc
from repro.serve.server import COMPLETE, QueryServer
from repro.verify import verify_ksp_result

from hostref import HostRef
from layers import Layers, count_rebind, instrument_server, peek_stages

#: set-up is repeated this many times per run; setup_s reports the median
SETUP_REPS = 3
#: latency_ms_p90 needs at least 10 samples beyond it
MIN_QUERIES = 100
#: the timed phase stops here even short of MIN_QUERIES, so a run ends in time
WALL_CAP_S = 120.0

#: solve-*: pool pairs per run, and the graph order they cycle in. A
#: 30-second K=128 run serves about 100 queries, so it meets each pair about
#: once and its median rests on ~100 distinct pairs, not on a few dozen met
#: twice: how far a run's figures move with its seed's pairs shrinks with the
#: square root of the pool. Two WL pairs per LJ pair keep p50 and p90 inside
#: WL's latency mode at K=8, where LJ (~90 ms) and WL (~165 ms) do not
#: overlap.
SOLVE_POOL_PAIRS = 96
SOLVE_PATTERN = ("LJ", "WL", "WL")
#: the solve pools are filtered at this K, so one pool serves both K
SOLVE_FILTER_K = 128
#: pools leave out pairs whose prune keeps more vertices than this (see
#: PairFilter); a typical K=128 prune keeps 200-400
MAX_KEPT_VERTICES = 1000

#: serve-live: distinct (s, t) pairs, the Zipf exponent over them, the k
#: range, and one congestion batch after every MUTATE_EVERY queries. Every
#: query draws its own k, so a pair's (s, t, k) keys share its SSSPs. With
#: BatchPeeK's 32-entry prepared-decision LRU this gives a hit share near
#: 0.33, so p50 and p90 both sit inside the miss mode (~110 ms). A hit costs
#: about 0.15 ms per path and its k varies by query, so a p50 inside the hit
#: mode would move with the seed's pairs and k draws.
SERVE_POOL_PAIRS = 32
SERVE_ZIPF = 0.5
SERVE_K_MAX = 8
SERVE_SCHEDULE_SEED = 0
MUTATE_EVERY = 8
#: serve-live warm-up: the stream's first queries, served untimed
SERVE_WARMUP = 2
#: share of complete serve-live answers re-solved cold on their snapshot
COLD_CHECK_SHARE = 1 / 20
#: congestion-only incidents: weight increases never break reachability
CONGESTION = dict(
    batch_size=4, p_close=0.0, p_congest=1.0, p_clear=0.0, p_reopen=0.0, p_tombstone=0.0
)

#: solve-*: one write-probe round after every PROBE_EVERY queries, so the
#: 100 queries of a K=128 run still give mutation_ms_p50 20 samples
PROBE_EVERY = 5
PROBE_K = 8


class RunState:
    """What one run accumulates: samples, counters, failures, digest."""

    def __init__(self, trace: bool) -> None:
        self.latencies: list[float] = []
        self.mutations: list[float] = []
        self.timed_s = 0.0
        #: every query served, timed or in the write probe
        self.attempted = 0
        #: queries of the timed phase (what the budget counts)
        self.timed_attempts = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self.digest = hashlib.sha256()
        #: the write probe's answers (traced solve-* runs only), kept apart
        #: so a traced run's stream digest equals the untraced run's
        self.probe_digest = hashlib.sha256()
        self.layers = Layers() if trace else None
        self.info: dict = {}
        #: the host-speed kernel, and its times beside set-up and beside
        #: the timed phase (see hostref.py)
        self.ref = HostRef()
        self.setup_ref_s: list[float] = []
        self.ref_s: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def record(self, tag: str, source: int, target: int, k: int, paths, extra="") -> None:
        """Fold one query and its answer into its stream digest."""
        body = ";".join(
            f"{p.distance.hex()}:{','.join(map(str, p.vertices))}" for p in paths
        )
        digest = self.probe_digest if tag == "probe" else self.digest
        digest.update(f"{tag}|{source}|{target}|{k}|{extra}|{body}\n".encode())


class Budget:
    """Decides when the timed phase ends, and samples the host's speed.

    Between two queries, and never inside a timed region, it runs the
    host-speed kernel every ``hostref.EVERY_S`` of wall time. With
    ``queries`` set the phase runs exactly that many queries (fixed
    work, for the determinism check); otherwise it runs until ``seconds``
    of timed work and at least :data:`MIN_QUERIES` queries are done.
    """

    def __init__(self, seconds: float, queries: int | None) -> None:
        self.seconds = seconds
        self.queries = queries
        self.start = time.perf_counter()

    def more(self, state: RunState) -> bool:
        if not state.ref_s or state.ref.due():
            state.ref.sample(state.ref_s)
        n = state.timed_attempts
        if self.queries is not None:
            return n < self.queries
        if time.perf_counter() - self.start > WALL_CAP_S:
            return False
        return state.timed_s < self.seconds or n < MIN_QUERIES


# ---------------------------------------------------------------------------
# inputs


def _tree(matrix, root: int):
    dist, pred = scipy_dijkstra(matrix, indices=root, return_predecessors=True)
    parent = pred.astype(np.int64)
    parent[parent < 0] = -1
    parent[root] = root
    return SimpleNamespace(dist=dist, parent=parent)


class PairFilter:
    """Keeps pairs on which PeeK's prune leaves a small remnant at a given K.

    On about one LJ pair in ten the spSum scan has to inspect thousands of
    vertices before it finds K valid combined paths, or never finds them
    (the bound stays infinite). The prune then keeps thousands of vertices
    and OptYen runs on a 17k–350k-edge remnant: 1–30 s for one K=128 query,
    against 0.3 s for a typical one. One such query would decide a run's
    throughput and length, so pools leave out pairs whose prune keeps more
    than MAX_KEPT_VERTICES vertices, and the run reports how many it
    skipped. The check runs the program's own spSum scan
    (``bound_and_masks``) over SciPy shortest-path trees.
    """

    def __init__(self, graph) -> None:
        n = graph.num_vertices
        self.graph = graph
        self.matrix = csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(n, n))
        self.matrix_t = self.matrix.T.tocsr()
        self.skipped = Counter()
        self.drawn = 0

    def accept(self, source: int, target: int, k: int) -> bool:
        self.drawn += 1
        fwd = _tree(self.matrix, source)
        rev = _tree(self.matrix_t, target)
        pr = bound_and_masks(fwd, rev, source, target, k, graph=self.graph)
        if not np.isfinite(pr.bound):
            self.skipped["infinite_bound"] += 1
            return False
        if pr.num_kept_vertices > MAX_KEPT_VERTICES:
            self.skipped[f"over_{MAX_KEPT_VERTICES}_kept"] += 1
            return False
        return True


def _draw_pairs(scc: np.ndarray, rng: np.random.Generator, count: int, keep):
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        s, t = (int(v) for v in rng.choice(scc, size=2, replace=False))
        if keep(s, t):
            pairs.append((s, t))
    return pairs


def solve_pool(graphs: dict, sccs: dict, seed: int, size: int, info: dict):
    """``size`` (graph name, source, target) entries in SOLVE_PATTERN order."""
    per_graph = {
        name: size * SOLVE_PATTERN.count(name) // len(SOLVE_PATTERN) for name in graphs
    }
    pairs = {}
    skipped = Counter()
    drawn = 0
    for idx, name in enumerate(sorted(graphs)):
        filt = PairFilter(graphs[name])
        rng = np.random.default_rng([seed, idx])
        pairs[name] = _draw_pairs(
            sccs[name], rng, per_graph[name],
            lambda s, t, f=filt: f.accept(s, t, SOLVE_FILTER_K),
        )
        skipped += filt.skipped
        drawn += filt.drawn
    info["pairs_skipped"] = dict(skipped)
    info["pairs_drawn"] = drawn
    pool = []
    cursor = Counter()
    while len(pool) < size:
        for name in SOLVE_PATTERN:
            s, t = pairs[name][cursor[name]]
            cursor[name] += 1
            pool.append((name, s, t))
    return pool


def serve_pairs(graph, scc: np.ndarray, seed: int, info: dict):
    """SERVE_POOL_PAIRS distinct (s, t) pairs, hottest first."""
    filt = PairFilter(graph)
    rng = np.random.default_rng([seed, 7])
    pairs: list[tuple[int, int]] = []
    while len(pairs) < SERVE_POOL_PAIRS:
        s, t = (int(v) for v in rng.choice(scc, size=2, replace=False))
        if (s, t) not in pairs and filt.accept(s, t, SERVE_K_MAX):
            pairs.append((s, t))
    info["pairs_skipped"] = dict(filt.skipped)
    info["pairs_drawn"] = filt.drawn
    return pairs


def serve_stream(pairs):
    """Endless queries: a Zipf-ranked pair (rank 0 hottest) and a fresh k.

    The rank and k sequence is the same for every seed (the seed picks the
    pairs and the incidents), so every run has the same hit/miss pattern
    and its throughput does not move with a seed's luck of the draw.
    """
    rng = random.Random(SERVE_SCHEDULE_SEED)
    sampler = KSampler("small_heavy", k_max=SERVE_K_MAX)
    cum = list(accumulate(1.0 / (r + 1) ** SERVE_ZIPF for r in range(len(pairs))))
    while True:
        rank = min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(pairs) - 1)
        yield (*pairs[rank], sampler.sample(rng))


# ---------------------------------------------------------------------------
# checks (never inside a timed region)


def check_answer(graph, source, target, k, paths) -> str | None:
    """Exactly k paths that pass ``verify_ksp_result`` on ``graph``."""
    if len(paths) != k:
        return f"({source},{target},k={k}): {len(paths)} paths"
    report = verify_ksp_result(graph, source, target, KSPResult(paths=paths, k_requested=k))
    if not report.ok:
        return f"({source},{target},k={k}): {report.failures[0]}"
    return None


def same_paths(a, b) -> bool:
    return [(p.distance, p.vertices) for p in a] == [(p.distance, p.vertices) for p in b]


# ---------------------------------------------------------------------------
# set-up


def _setup(names, scale: str, make_pool, finish, state: RunState):
    """Set the workload up SETUP_REPS times and keep the last build.

    Each repetition regenerates the graphs and their largest SCC, then
    ``finish(graphs, pool)`` builds what the workload serves from and warms
    it up. ``make_pool(graphs, sccs)`` runs once, on the first repetition;
    its time is reported as ``pool_s`` and left out of the repetitions. The
    host-speed kernel runs before every repetition and after the last.
    Returns ``(finish's result, pool)``.
    """
    reps: list[float] = []
    built = pool = None
    pool_s = 0.0
    for _ in range(SETUP_REPS):
        built = None
        suite_graph.cache_clear()
        gc.collect()
        state.ref.sample(state.setup_ref_s)
        t0 = time.perf_counter()
        graphs = {name: suite_graph(name, scale) for name in names}
        sccs = {name: largest_scc(g) for name, g in graphs.items()}
        if pool is None:
            p0 = time.perf_counter()
            pool = make_pool(graphs, sccs)
            pool_s = time.perf_counter() - p0
        built = finish(graphs, pool)
        reps.append(time.perf_counter() - t0 - (0.0 if reps else pool_s))
    state.ref.sample(state.setup_ref_s)
    state.info["setup"] = {"reps_s": reps, "pool_s": pool_s}
    gc.collect()
    return built, pool


def _weak_pair_share(state: RunState) -> None:
    """Share of drawn pairs the pool filter left out (see PairFilter).

    A stronger prune keeps fewer vertices, so fewer pairs fall past the
    filter: this is how the prune-weak tail shows in the traced figures.
    """
    if state.layers is not None:
        skipped = sum(state.info["pairs_skipped"].values())
        state.layers.add("core.pruning.weak_pair_share", skipped / state.info["pairs_drawn"])


# ---------------------------------------------------------------------------
# solve-k8 / solve-k128


def run_solve(k: int, seed: int, budget: Budget, state: RunState, scale: str) -> None:
    def make_pool(graphs, sccs):
        return solve_pool(graphs, sccs, seed, SOLVE_POOL_PAIRS, state.info)

    def finish(graphs, pool):
        # warm-up: the first query on each graph builds its cached reverse
        # graph and light/heavy edge split (K=8 suffices for that)
        for name in sorted(graphs):
            _, s, t = next(e for e in pool if e[0] == name)
            repro.solve(graphs[name], s, t, 8, algorithm="PeeK", sanitize=False)
        return graphs

    graphs, pool = _setup(("LJ", "WL"), scale, make_pool, finish, state)
    _weak_pair_share(state)
    state.info["pool"] = {"pairs": len(pool), "pattern": "-".join(SOLVE_PATTERN)}
    with write_probe(graphs["LJ"], pool, seed, state) as probe_round:
        budget.start = time.perf_counter()
        while budget.more(state):
            name, s, t = pool[state.timed_attempts % len(pool)]
            state.timed_attempts += 1
            state.attempted += 1
            if state.layers is not None:
                _solve_traced(graphs[name], name, s, t, k, state)
            else:
                _solve_timed(graphs[name], name, s, t, k, state)
            if state.timed_attempts % PROBE_EVERY == 0:
                probe_round()


def _solve_timed(g, name, s, t, k, state: RunState) -> None:
    t0 = time.perf_counter()
    try:
        res = repro.solve(g, s, t, k, algorithm="PeeK", sanitize=False)
    except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
        state.timed_s += time.perf_counter() - t0
        state.fail(f"{name}({s},{t}): {exc!r}")
        return
    dt = time.perf_counter() - t0
    state.timed_s += dt
    state.latencies.append(dt)
    _solve_counters(state, res.prune.stats, res.ksp_stats)
    state.record(name, s, t, k, res.paths)
    problem = check_answer(g, s, t, k, res.paths)
    if problem:
        state.fail(f"{name}{problem}")


def _solve_traced(g, name, s, t, k, state: RunState) -> None:
    """The stage replay, then ``repro.solve`` on the same query to compare."""
    rec = state.layers
    t0 = time.perf_counter()
    try:
        paths, stage_wall, ksp_stats = peek_stages(g, s, t, k, rec)
        t1 = time.perf_counter()
        res = repro.solve(g, s, t, k, algorithm="PeeK", sanitize=False)
        solve_wall = time.perf_counter() - t1
    except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
        state.timed_s += time.perf_counter() - t0
        state.fail(f"{name}({s},{t}): {exc!r}")
        return
    state.timed_s += stage_wall + solve_wall
    state.latencies.append(stage_wall)
    rec.add("trace.latency_ms", stage_wall * 1e3)
    rec.attributed.append((stage_wall, solve_wall))
    _solve_counters(state, res.prune.stats, ksp_stats)
    state.record(name, s, t, k, paths)
    if not same_paths(paths, res.paths):
        state.fail(f"{name}({s},{t}): stage replay differs from repro.solve")
    problem = check_answer(g, s, t, k, paths)
    if problem:
        state.fail(f"{name}{problem}")


def _solve_counters(state: RunState, prune_stats, ksp_stats) -> None:
    c = state.counters
    c["sssp.edges_relaxed"] += prune_stats.edges_relaxed
    c["sssp.phases"] += len(prune_stats.sssp_phase_work)
    c["ksp.spur_searches"] += sum(len(t) for t in ksp_stats.iteration_tasks)
    c["ksp.express_hits"] += ksp_stats.express_hits


@contextlib.contextmanager
def write_probe(graph, pool, seed: int, state: RunState):
    """A live-graph write probe that runs beside the solve timed phase.

    Yields ``round()``: serve two LJ pool pairs at K=8 through a
    ``QueryServer`` over ``LiveGraph(LJ)``, then apply one congestion batch.
    The solve loop calls it after every PROBE_EVERY queries, so the probe
    samples the host over the whole run. It gives solve-* a measured
    ``mutation_ms_p50`` and, traced, the batch, dyn and serve layer figures;
    none of its time enters a solve latency or throughput figure. Untraced
    runs print no per-layer figure, so they get a probe that does nothing
    and spend their whole run on the solve loop.
    """
    if state.layers is None:
        yield lambda: None
        return
    server = QueryServer(LiveGraph(graph), sanitize=False)
    incidents = IncidentStream(seed=seed, **CONGESTION)
    pairs = [(s, t) for name, s, t in pool if name == "LJ"][:2]
    with _serving(server, state.layers, stages=False) as serve:

        def round_():
            for s, t in pairs:
                state.attempted += 1
                _serve_checked(server, serve, s, t, PROBE_K, state, "probe")
            _mutate(server, incidents, state, timed=False)

        yield round_
    state.counters["probe.mutation_batches"] = server.counters["mutation_batches"]


# ---------------------------------------------------------------------------
# serve-live


def _serving(server, rec, *, stages: bool):
    """``server.serve`` itself untraced; the instrumented one traced."""
    if rec is None:
        return contextlib.nullcontext(server.serve)
    return instrument_server(server, rec, stages=stages)


def _mutate(server, incidents, state: RunState, *, timed: bool) -> None:
    """Apply the stream's next batch; its wall is one mutation sample."""
    batch = incidents.next_batch(server.live)
    before = server.batch.invalidated
    t0 = time.perf_counter()
    server.apply_mutations(batch)
    dt = time.perf_counter() - t0
    state.mutations.append(dt)
    if timed:
        state.timed_s += dt
    if state.layers is not None:
        count_rebind(state.layers, server.batch.invalidated - before)


def _serve_checked(server, serve, s, t, k, state: RunState, tag: str, cold_rng=None):
    """Serve one query and check it untimed; its wall, or None if it failed."""
    t0 = time.perf_counter()
    try:
        res = serve(s, t, k)
    except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
        state.fail(f"{tag}({s},{t},k={k}): {exc!r}")
        return None
    wall = time.perf_counter() - t0
    state.record(tag, s, t, k, res.paths, f"{res.outcome}@{res.graph_version}")
    if res.outcome != COMPLETE:
        state.fail(f"{tag}({s},{t},k={k}): outcome {res.outcome}")
        return None
    if res.graph_version != server.batch.version:
        state.fail(f"{tag}({s},{t},k={k}): answered on version {res.graph_version}")
        return None
    problem = check_answer(server.graph, s, t, k, res.paths)
    if problem:
        state.fail(f"{tag}{problem}")
        return None
    if cold_rng is not None and cold_rng.random() < COLD_CHECK_SHARE:
        state.counters["serve.cold_checks"] += 1
        cold = repro.solve(server.graph, s, t, k, algorithm="PeeK", sanitize=False)
        if not same_paths(cold.paths, res.paths):
            state.fail(f"{tag}({s},{t},k={k}): differs from a cold solve at v{res.graph_version}")
            return None
    return wall


def run_serve(seed: int, budget: Budget, state: RunState, scale: str) -> None:
    def make_pool(graphs, sccs):
        return serve_pairs(graphs["LJ"], sccs["LJ"], seed, state.info)

    def finish(graphs, pairs):
        server = QueryServer(LiveGraph(graphs["LJ"]), sanitize=False)
        stream = serve_stream(pairs)
        for _ in range(SERVE_WARMUP):  # the stream's first queries, untimed
            server.serve(*next(stream))
        return server, stream

    (server, stream), _ = _setup(("LJ",), scale, make_pool, finish, state)
    _weak_pair_share(state)
    incidents = IncidentStream(seed=seed, **CONGESTION)
    cold_rng = random.Random(seed + 2)
    hits = 0
    budget.start = time.perf_counter()
    with _serving(server, state.layers, stages=True) as serve:
        while budget.more(state):
            s, t, k = next(stream)
            state.timed_attempts += 1
            state.attempted += 1
            reused = server.batch.prune_reused
            wall = _serve_checked(server, serve, s, t, k, state, "serve", cold_rng)
            if wall is not None:
                state.timed_s += wall
                state.latencies.append(wall)
                hits += server.batch.prune_reused - reused
                if state.layers is not None:
                    state.layers.add("trace.latency_ms", wall * 1e3)
            if state.timed_attempts % MUTATE_EVERY == 0:
                _mutate(server, incidents, state, timed=True)
    info = server.batch.cache_info
    for key in ("hits", "misses", "prune_reused", "prune_cold", "invalidated"):
        state.counters[f"batch.{key}"] = info[key]
    state.counters["serve.mutation_batches"] = server.counters["mutation_batches"]
    state.info["prepared_hit_share"] = hits / max(len(state.latencies), 1)
    state.info["pool"] = {
        "pairs": SERVE_POOL_PAIRS, "zipf": SERVE_ZIPF, "mutate_every": MUTATE_EVERY
    }


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str, queries=None):
    """Run one workload; returns its :class:`RunState`."""
    state = RunState(trace)
    budget = Budget(seconds, queries)
    if workload == "solve-k8":
        run_solve(8, seed, budget, state, scale)
    elif workload == "solve-k128":
        run_solve(128, seed, budget, state, scale)
    elif workload == "serve-live":
        run_serve(seed, budget, state, scale)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    state.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return state

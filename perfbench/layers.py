"""Per-layer timing and counters, taken around calls into each layer.

Nothing here changes the program. Layers are timed from this file in two
ways:

* :func:`peek_stages` replays one PeeK query through the public stage calls
  in the order ``PeeK.prepare`` makes them (forward and reverse Δ-stepping,
  the spSum scan, adaptive compaction, OptYen on the remnant), timing each;
* :func:`instrument_server` wraps a ``QueryServer``'s own instances
  (``server.batch.prepare`` / ``rebind`` / ``forward_sssp`` /
  ``reverse_sssp``, ``server.live.apply``, ``server.live.terrace.to_csr``)
  and, with ``stages=True``, the prune and compaction functions that
  ``repro.core.batch`` calls, restoring all of them on exit.

:class:`Layers` keeps one sample per query (or per call) for every metric and
reduces them to medians, and keeps ratios as numerator and base so each ratio
can be printed with its base.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import repro.core.batch as batch_module
from repro.core.compaction import RegeneratedGraph, adaptive_compact
from repro.core.pruning import bound_and_masks
from repro.errors import UnreachableTargetError
from repro.ksp.optyen import OptYenKSP
from repro.paths import Path
from repro.sssp.delta_stepping import delta_stepping

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "sssp.fwd_ms": "ms",
    "sssp.rev_ms": "ms",
    "sssp.phases": "count",
    "sssp.edges_relaxed": "count",
    "core.pruning.scan_ms": "ms",
    "core.pruning.kept_vertex_fraction": "ratio",
    "core.pruning.weak_pair_share": "ratio",
    "core.compaction.ms": "ms",
    "core.compaction.remaining_edges": "count",
    "ksp.ms": "ms",
    "ksp.spur_searches": "count",
    "ksp.settled_per_spur": "count",
    "ksp.express_hit_ratio": "ratio",
    "core.batch.prepare_ms": "ms",
    "core.batch.rebind_ms": "ms",
    "core.batch.sssp_hit_ratio": "ratio",
    "core.batch.prune_reuse_ratio": "ratio",
    "core.batch.invalidated_per_batch": "count",
    "dyn.apply_ms": "ms",
    "dyn.snapshot_ms": "ms",
    "serve.self_ms": "ms",
    "solve.attributed_fraction": "ratio",
    "trace.latency_ms_p50": "ms",
    "trace.latency_ms_p90": "ms",
}

#: ratio metric -> (numerator, base) counter names
RATIOS = {
    "ksp.express_hit_ratio": ("ksp.express_hits", "ksp.express_or_dijkstra"),
    "core.batch.sssp_hit_ratio": ("batch.sssp_hits", "batch.sssp_lookups"),
    "core.batch.prune_reuse_ratio": ("batch.prune_reused", "batch.prepares"),
    "core.batch.invalidated_per_batch": ("batch.invalidated", "batch.rebinds"),
}


class Layers:
    """Samples and counters of one traced run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        #: per query: (sum of the timed stage walls, end-to-end wall)
        self.attributed: list[tuple[float, float]] = []

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += int(value)

    def ksp_stats(self, inner: OptYenKSP) -> None:
        """Record one OptYen run's spur searches, settles and express hits.

        OptYen's first SSSP is its full reverse Dijkstra on the remnant, which
        settles every vertex it reaches; every later SSSP is a Dijkstra
        suffix search.
        """
        st = inner.stats
        dijkstra_suffixes = st.sssp_calls - 1
        prepare_settled = int(np.isfinite(inner.dist_tgt).sum())
        self.add("ksp.spur_searches", sum(len(t) for t in st.iteration_tasks))
        if dijkstra_suffixes > 0:
            self.add(
                "ksp.settled_per_spur",
                (st.vertices_settled - prepare_settled) / dijkstra_suffixes,
            )
        self.count("ksp.express_hits", st.express_hits)
        self.count("ksp.express_or_dijkstra", st.express_hits + dijkstra_suffixes)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name in RATIOS:
                num, base = RATIOS[name]
                out[name] = self.counts[num] / self.counts[base] if self.counts[base] else 0.0
            elif name == "solve.attributed_fraction":
                if self.attributed:
                    stage, wall = np.asarray(self.attributed).mean(axis=0)
                    out[name] = float(stage / wall)
                else:
                    out[name] = 0.0
            elif name.startswith("trace.latency_ms_p"):
                lat = self.samples["trace.latency_ms"]
                q = float(name.rsplit("_p", 1)[1])
                out[name] = float(np.percentile(lat, q)) if lat else 0.0
            else:
                vals = self.samples[name]
                out[name] = float(np.median(vals)) if vals else 0.0
        return out

    def bases(self) -> dict[str, object]:
        """Sample count behind every median and the base of every ratio."""
        out: dict[str, object] = {
            name: len(self.samples[name])
            for name in LAYER_METRICS
            if name not in RATIOS and name in self.samples
        }
        for name, (num, base) in RATIOS.items():
            out[name] = f"{self.counts[num]}/{self.counts[base]} ({base})"
        out["solve.attributed_fraction"] = len(self.attributed)
        out["trace.latency_ms"] = len(self.samples["trace.latency_ms"])
        return out


def peek_stages(graph, source: int, target: int, k: int, rec: Layers):
    """One PeeK query through its public stage calls; returns its paths.

    Mirrors ``PeeK.prepare`` with its defaults (Δ-stepping on the vectorized
    backend, weight-rule pruning, α = 0.1, OptYen with a reused workspace)
    and maps the remnant's paths back to original ids.
    """
    clock = time.perf_counter
    t0 = clock()
    fwd = delta_stepping(graph, source)
    t1 = clock()
    rev = delta_stepping(graph.reverse(), target)
    t2 = clock()
    if not np.isfinite(fwd.dist[target]):
        raise UnreachableTargetError(f"target {target} unreachable from {source}")
    pr = bound_and_masks(fwd, rev, source, target, k, graph=graph)
    t3 = clock()
    comp = adaptive_compact(graph, pr.keep_vertices, pr.keep_edges)
    t4 = clock()
    if isinstance(comp.compacted, RegeneratedGraph):
        regen = comp.compacted
        inner = OptYenKSP(regen.graph, regen.map_vertex(source), regen.map_vertex(target))
        result = inner.run(k)
        paths = [Path(p.distance, regen.map_path_back(p.vertices)) for p in result.paths]
    else:
        inner = OptYenKSP(comp.compacted, source, target)
        paths = inner.run(k).paths
    t5 = clock()

    rec.add("sssp.fwd_ms", (t1 - t0) * 1e3)
    rec.add("sssp.rev_ms", (t2 - t1) * 1e3)
    rec.add("sssp.phases", fwd.stats.phases + rev.stats.phases)
    rec.add("sssp.edges_relaxed", fwd.stats.edges_relaxed + rev.stats.edges_relaxed)
    rec.add("core.pruning.scan_ms", (t3 - t2) * 1e3)
    rec.add("core.pruning.kept_vertex_fraction", pr.num_kept_vertices / graph.num_vertices)
    rec.add("core.compaction.ms", (t4 - t3) * 1e3)
    rec.add("core.compaction.remaining_edges", comp.remaining_edges)
    rec.add("ksp.ms", (t5 - t4) * 1e3)
    rec.ksp_stats(inner)
    return paths, t5 - t0, inner.stats


def _timed(fn, on_done):
    """Wrap ``fn`` so ``on_done(seconds, result)`` sees every call's wall."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        on_done(time.perf_counter() - t0, out)
        return out

    return wrapper


def _timed_iter(gen_fn, on_done):
    """Wrap a generator method; ``on_done(seconds)`` gets its summed wall."""

    def wrapper():
        it = gen_fn()
        spent = 0.0
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    spent += time.perf_counter() - t0
                    return
                spent += time.perf_counter() - t0
                yield item
        finally:
            on_done(spent)

    return wrapper


@contextlib.contextmanager
def instrument_server(server, rec: Layers, *, stages: bool):
    """Time a ``QueryServer``'s batch, dyn and serve layers into ``rec``.

    Yields ``serve(source, target, k)``: the server's ``serve`` with its
    ``serve.self_ms`` (serve wall minus its ``prepare`` child) recorded.
    With ``stages=True`` the SSSP cache misses, the prune scan, compaction
    and the OptYen enumeration of every query are timed as well.
    """
    batch, live = server.batch, server.live
    current: dict[str, float] = {}

    def on_prepare(dt, prep):
        current["prepare"] = current.get("prepare", 0.0) + dt
        rec.add("core.batch.prepare_ms", dt * 1e3)
        if stages:
            def on_ksp(spent, prep=prep):
                current["ksp"] = spent
                rec.add("ksp.ms", spent * 1e3)
                rec.ksp_stats(prep.inner)

            prep.inner.iter_paths = _timed_iter(prep.inner.iter_paths, on_ksp)

    def on_sssp(direction):
        def done(dt, res):
            # a cache hit returns in microseconds and runs no SSSP: keep misses
            if batch.misses != current.get("misses", batch.misses):
                rec.add(f"sssp.{direction}_ms", dt * 1e3)
                rec.add("sssp.phases", res.stats.phases)
                rec.add("sssp.edges_relaxed", res.stats.edges_relaxed)
                current["stages"] = current.get("stages", 0.0) + dt
            current["misses"] = batch.misses

        return done

    def on_rebind(dt, _):
        rec.add("core.batch.rebind_ms", dt * 1e3)

    def on_apply(dt, _):
        rec.add("dyn.apply_ms", dt * 1e3)

    def on_snapshot(dt, _):
        rec.add("dyn.snapshot_ms", dt * 1e3)

    def on_scan(dt, pr):
        rec.add("core.pruning.scan_ms", dt * 1e3)
        rec.add("core.pruning.kept_vertex_fraction", pr.num_kept_vertices / pr.keep_vertices.size)
        current["stages"] = current.get("stages", 0.0) + dt

    def on_compact(dt, comp):
        rec.add("core.compaction.ms", dt * 1e3)
        rec.add("core.compaction.remaining_edges", comp.remaining_edges)
        current["stages"] = current.get("stages", 0.0) + dt

    batch.prepare = _timed(batch.prepare, on_prepare)
    batch.rebind = _timed(batch.rebind, on_rebind)
    if live is not None:
        live.apply = _timed(live.apply, on_apply)
        live.terrace.to_csr = _timed(live.terrace.to_csr, on_snapshot)
    if stages:
        batch.forward_sssp = _timed(batch.forward_sssp, on_sssp("fwd"))
        batch.reverse_sssp = _timed(batch.reverse_sssp, on_sssp("rev"))
        batch_module.bound_and_masks = _timed(bound_and_masks, on_scan)
        batch_module.adaptive_compact = _timed(adaptive_compact, on_compact)

    def serve(source, target, k):
        before = batch.cache_info
        current.clear()
        current["misses"] = batch.misses
        t0 = time.perf_counter()
        result = server.serve(source, target, k)
        wall = time.perf_counter() - t0
        after = batch.cache_info
        rec.add("serve.self_ms", (wall - current.get("prepare", 0.0)) * 1e3)
        if stages:
            rec.attributed.append(
                (current.get("stages", 0.0) + current.get("ksp", 0.0), wall)
            )
        lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
        rec.count("batch.sssp_hits", after["hits"] - before["hits"])
        rec.count("batch.sssp_lookups", lookups)
        rec.count("batch.prune_reused", after["prune_reused"] - before["prune_reused"])
        rec.count("batch.prepares", 1)
        return result

    try:
        yield serve
    finally:
        batch_module.bound_and_masks = bound_and_masks
        batch_module.adaptive_compact = adaptive_compact
        for obj, names in (
            (batch, ("prepare", "rebind", "forward_sssp", "reverse_sssp")),
            (live, ("apply",)),
            (live.terrace if live is not None else None, ("to_csr",)),
        ):
            for name in names:
                if obj is not None:
                    obj.__dict__.pop(name, None)


def count_rebind(rec: Layers, invalidated: int) -> None:
    """Record one mutation batch and the cache entries it invalidated."""
    rec.count("batch.invalidated", invalidated)
    rec.count("batch.rebinds", 1)

"""Substrate ablation — SSSP kernel choice (paper §6.2).

The paper builds everything on Δ-stepping "instead of sequentially
processing one-vertex-at-a-time in Dijkstra's algorithm".
``test_sssp_kernel_choice`` compares the three kernels on the suite's
largest graph — real serial seconds, traversal rate (MTEPS), and the
parallel-phase structure that justifies Δ-stepping.  Run it with
``PYTHONPATH=src python -m pytest benchmarks/bench_sssp_kernels.py``.

The Δ-stepping execution backends (scalar, vectorized) are
bitwise-equivalent; ``tests/sssp/test_vectorized_equivalence.py``
asserts it, and ``perfbench/`` times the default backend end to end.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sssp import bellman_ford, delta_stepping, dijkstra


def run(runner, graph_name: str):
    g = runner.graph(graph_name)
    s, _ = runner.pairs(graph_name)[0]
    rows = []
    ref = None
    for name, kernel in (
        ("Dijkstra", dijkstra),
        ("Delta-stepping", delta_stepping),
        ("Bellman-Ford", bellman_ford),
    ):
        t0 = time.perf_counter()
        res = kernel(g, s)
        secs = time.perf_counter() - t0
        if ref is None:
            ref = res.dist
        else:
            assert np.allclose(
                np.nan_to_num(res.dist, posinf=-1),
                np.nan_to_num(ref, posinf=-1),
            ), name
        mteps = res.stats.edges_relaxed / max(secs, 1e-9) / 1e6
        rows.append(
            [
                name,
                secs,
                res.stats.edges_relaxed,
                res.stats.phases,
                mteps,
            ]
        )
    return rows


def test_sssp_kernel_choice(benchmark, runner, emit):
    from repro.bench.experiments import ExperimentReport

    rows = benchmark.pedantic(
        lambda: run(runner, "GT"), rounds=1, iterations=1
    )
    emit(
        ExperimentReport(
            experiment="sssp_kernels",
            title="Substrate ablation — SSSP kernel choice on GT (§6.2)",
            header=["kernel", "seconds", "relaxations", "phases", "MTEPS"],
            rows=rows,
            digits=4,
        )
    )
    by_name = {r[0]: r for r in rows}
    # the parallel-structure argument: Δ-stepping needs orders of magnitude
    # fewer synchronisation phases than Dijkstra's one-vertex-at-a-time
    assert by_name["Delta-stepping"][3] < by_name["Dijkstra"][3] / 10
    # ...while relaxing far fewer edges than Bellman-Ford's full sweeps
    assert (
        by_name["Delta-stepping"][2] < by_name["Bellman-Ford"][2]
    )

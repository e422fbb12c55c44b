"""Ablation — the Δ-stepping bucket width (paper §6.2's SSSP kernel).

Δ controls the phase-count vs re-relaxation trade-off: tiny Δ degenerates
toward Dijkstra (many cheap phases, no wasted work), huge Δ toward
Bellman–Ford (few phases, heavy re-relaxation).  The sweep measures real
runtime, relaxation count, and phase count around the
:func:`~repro.sssp.delta_stepping.choose_delta` heuristic.  Each cell runs
one warm-up, then reports the median and the spread (max − min) of
:data:`REPEATS` timed runs.
"""

import time

import numpy as np

from repro.sssp.delta_stepping import choose_delta, delta_stepping

MULTIPLIERS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0)

#: timed runs per cell, after one untimed warm-up
REPEATS = 5


def run(runner, graph_name: str):
    g = runner.graph(graph_name)
    s, _ = runner.pairs(graph_name)[0]
    base = choose_delta(g)
    rows = []
    for mult in MULTIPLIERS:
        res = delta_stepping(g, s, delta=base * mult)  # warm-up
        secs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            delta_stepping(g, s, delta=base * mult)
            secs.append(time.perf_counter() - t0)
        rows.append(
            (
                mult,
                float(np.median(secs)),
                max(secs) - min(secs),
                res.stats.edges_relaxed,
                res.stats.phases,
            )
        )
    return rows


def test_ablation_delta(benchmark, runner, emit):
    from repro.bench.experiments import ExperimentReport

    rows = benchmark.pedantic(
        lambda: run(runner, "GT"), rounds=1, iterations=1
    )
    emit(
        ExperimentReport(
            experiment="ablation_delta",
            title="Ablation — delta-stepping bucket width on GT",
            header=[
                "x heuristic",
                "median s",
                "spread s",
                "relaxations",
                "phases",
            ],
            rows=[list(r) for r in rows],
            digits=4,
        )
    )
    phases = [r[4] for r in rows]
    relaxed = [r[3] for r in rows]
    # the structural trade-off must hold: wider buckets -> fewer phases,
    # more (or equal) re-relaxation work
    assert phases[0] >= phases[-1]
    assert relaxed[-1] >= min(relaxed)

"""Figure 9 — shared-memory scalability of PeeK, 1→32 threads, K = 8.

Paper's result: a stable, monotone speedup reaching ~4× on average at 32
threads (4.8× on GT).  The curves here replay each graph's real measured
work decomposition through the calibrated machine model (DESIGN.md §1).
"""

from repro.bench import experiments

THREADS = (1, 2, 4, 8, 16, 32)


def test_fig09_shared_scaling(benchmark, runner, emit):
    report = benchmark.pedantic(
        lambda: experiments.fig09_shared_scaling(
            runner, k=8, threads=THREADS
        ),
        rounds=1,
        iterations=1,
    )
    emit(report)
    avg = report.rows[-1]
    assert avg[0] == "AVG"
    speedups = avg[1:]
    assert speedups[0] == 1.0
    # monotone non-decreasing within tolerance, like the paper's curves
    for a, b in zip(speedups, speedups[1:]):
        assert b >= a * 0.97
    # lands in the paper's regime (~4x at 32 threads), not embarrassingly
    # linear and not flat
    assert 2.0 < speedups[-1] < 10.0

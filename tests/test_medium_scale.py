"""Opt-in medium-scale smoke tests (set ``REPRO_RUN_SLOW=1`` to enable).

The regular suite runs at tiny/small scale in seconds; these verify the
same invariants hold at the ``medium`` preset (30k-70k vertices, 10⁵–10⁶
edges, tens of seconds per test) — the configuration EXPERIMENTS.md's
scale-convergence argument relies on.
"""

import os

import numpy as np
import pytest

_opt_in = pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW"),
    reason="set REPRO_RUN_SLOW=1 to run medium-scale smoke tests",
)


def slow(fn):
    """Mark ``slow`` (for ``-m "not slow"`` deselection) and env-gate."""
    return pytest.mark.slow(_opt_in(fn))


@slow
def test_medium_suite_generates():
    from repro.graph.suite import SUITE_NAMES, suite_graph

    for name in SUITE_NAMES:
        g = suite_graph(name, "medium")
        assert g.num_vertices >= 16_000
        assert g.num_edges > g.num_vertices


@slow
def test_medium_peek_agrees_with_optyen():
    from repro.core.peek import peek_ksp
    from repro.graph.suite import random_st_pairs, suite_graph
    from repro.ksp.optyen import optyen_ksp

    g = suite_graph("GT", "medium")
    (s, t), = random_st_pairs(g, 1, seed=5)
    ref = optyen_ksp(g, s, t, 8).distances
    got = peek_ksp(g, s, t, 8).distances
    assert np.allclose(got, ref)


@slow
def test_medium_pruning_converges_toward_paper():
    """The EXPERIMENTS.md convergence claim, as an executable check."""
    from repro.core.pruning import k_upper_bound_prune
    from repro.graph.suite import random_st_pairs, suite_graph

    g = suite_graph("GT", "medium")
    (s, t), = random_st_pairs(g, 1, seed=5)
    pr = k_upper_bound_prune(g, s, t, 8)
    assert pr.pruned_vertex_fraction > 0.99  # paper: 98.4% average


@slow
def test_weak_pair_prune_keeps_pace_with_eager_trees():
    """LJ-medium 14306→13790 scans ~21k (K=8) and ~30k (K=128) vertices:
    lazy parents must fall back to the eager array and stay within 10 % of
    a prune over eagerly built trees, timed in one process."""
    import time
    from types import SimpleNamespace

    from repro.core.pruning import bound_and_masks, k_upper_bound_prune
    from repro.graph.suite import suite_graph
    from repro.sssp.dijkstra import dijkstra_tree

    g = suite_graph("LJ", "medium")
    s, t = 14306, 13790

    def eager(k):
        halves = []
        for graph, root in ((g, s), (g.reverse(), t)):
            tree = dijkstra_tree(graph, root)
            assert tree.stats.edges_relaxed > 0  # the eager count
            halves.append(SimpleNamespace(dist=tree.dist, parent=tree.parent))
        return bound_and_masks(*halves, s, t, k, graph=g)

    for k in (8, 128):
        walls = {eager: [], k_upper_bound_prune: []}
        for _ in range(5):
            for fn in walls:
                t0 = time.perf_counter()
                pr = fn(g, s, t, k) if fn is k_upper_bound_prune else fn(k)
                walls[fn].append(time.perf_counter() - t0)
        assert pr.stats.inspected_paths > 20_000
        ratio = np.median(walls[k_upper_bound_prune]) / np.median(walls[eager])
        assert ratio <= 1.10, (k, ratio)

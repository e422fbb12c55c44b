"""The concurrent prune pair, pinned bitwise to the serial one.

:func:`~repro.sssp.pair.prune_trees` computes the reverse tree in a helper
process while the caller computes the forward tree.  The guard: with the
edge gate lowered so the helper runs on tiny graphs, both trees equal two
serial :func:`~repro.sssp.pair.prune_sssp` calls — ``dist``, every
``parent_of(v)`` read before ``.parent``, ``.parent``, the counters and the
tracer's counters in order — and so do ``repro.solve``'s paths.  A killed
helper falls back to the in-process tree; a deadline, a fault hook or a
one-CPU affinity mask keeps the serial path and starts nothing.  The
lifecycle tests check that shutdown leaves no child process and no
segment, and that the helper holds at most ``PUBLISHED_GRAPHS`` graphs.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import weakref
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

import repro
from repro.cancel import clock_scope, fault_scope
from repro.core.pruning import k_upper_bound_prune
from repro.graph.csr import CSRGraph
from repro.graph.suite import random_st_pairs, suite_graph
from repro.obs.tracer import Tracer, use_tracer
from repro.sssp import pair
from repro.sssp.pair import prune_sssp, prune_trees, shutdown_helper

NAMES = ["LJ", "WL", "LJU", "WLU", "R21U"]


class Recording(Tracer):
    """A tracer that also logs every counter increment, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[str, float]] = []

    def add(self, counter, value=1):
        self.log.append((counter, value))
        super().add(counter, value)


@pytest.fixture
def helper(monkeypatch):
    """The helper runs on any graph, on any host; shut down afterwards."""
    monkeypatch.setattr(pair, "PAIR_MIN_EDGES", 0)
    monkeypatch.setattr(pair, "_disabled", False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    shutdown_helper()
    yield
    shutdown_helper()


def _serial(graph, source, target):
    return prune_sssp(graph, source), prune_sssp(graph.reverse(), target)


def _traced(run, *args):
    tracer = Recording()
    with use_tracer(tracer), tracer.span("pair"):
        trees = run(*args)
    return trees, tracer.log


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_tree(got, ref, probe) -> None:
    assert got.source == ref.source
    assert _same(got.dist, ref.dist)
    assert _same(got._pred, ref._pred)
    assert [got.parent_of(v) for v in probe] == [ref.parent_of(v) for v in probe]
    assert _same(got.parent, ref.parent)
    for name in ("vertices_settled", "phases", "edges_relaxed", "heap_pushes"):
        assert getattr(got.stats, name) == getattr(ref.stats, name), name


def _pairs(graph, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.choice(graph.num_vertices, 2, replace=False).tolist()) for _ in range(count)]


@pytest.mark.parametrize("name", NAMES)
def test_pair_equals_the_serial_pair(helper, name):
    g = suite_graph(name, "tiny")
    probe = np.random.default_rng(5).integers(0, g.num_vertices, 6).tolist()
    for s, t in _pairs(g, 4, 1):
        got, got_log = _traced(prune_trees, g, s, t)
        ref, ref_log = _traced(_serial, g, s, t)
        for a, b in zip(got, ref):
            assert_same_tree(a, b, probe)
        assert got_log == ref_log
    assert pair._helper is not None and pair._helper.held == 1


@pytest.mark.parametrize("k", [1, 8, 128])
def test_solve_paths_equal(helper, monkeypatch, k):
    graphs = [suite_graph(name, "tiny") for name in ("LJ", "WL")]
    runs = []
    for gate in (0, 10**12):
        monkeypatch.setattr(pair, "PAIR_MIN_EDGES", gate)
        runs.append(
            [
                [(p.distance, p.vertices) for p in repro.solve(g, s, t, k).paths]
                for g in graphs
                for s, t in random_st_pairs(g, 3, seed=2)
            ]
        )
    assert runs[0] == runs[1]
    assert pair._helper is not None


def test_killed_helper_falls_back(helper):
    g = suite_graph("WL", "tiny")
    prune_trees(g, 1, 2)
    process = pair._helper.process
    names = pair._helper.segment_names()
    process.kill()
    process.join()
    for s, t in _pairs(g, 3, 3):
        got, ref = prune_trees(g, s, t), _serial(g, s, t)
        for a, b in zip(got, ref):
            assert_same_tree(a, b, [s, t])
    assert pair._disabled and pair._helper is None
    assert multiprocessing.active_children() == []
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name)


def test_fault_hook_keeps_the_serial_stream(helper):
    g = suite_graph("LJ", "tiny")
    streams = []
    for run in (prune_trees, _serial):
        seen: list[str] = []
        with fault_scope(seen.append):
            run(g, 3, 40)
        streams.append(seen)
    assert streams[0] == streams[1] and streams[0]
    with fault_scope(lambda stage: None):
        k_upper_bound_prune(g, 3, 40, 8)
    assert pair._helper is None


def test_deadline_keeps_the_serial_stream(helper):
    g = suite_graph("LJ", "tiny")
    counts = []
    for run in (prune_trees, _serial):
        reads = []

        def clock():
            reads.append(None)
            return 0.0

        with clock_scope(clock):
            if run is prune_trees:
                run(g, 3, 40, deadline=1.0)
            else:
                prune_sssp(g, 3, deadline=1.0)
                prune_sssp(g.reverse(), 40, deadline=1.0)
        counts.append(len(reads))
    assert counts[0] == counts[1] > 0
    assert pair._helper is None


def test_one_cpu_runs_serially(helper, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    created = []
    monkeypatch.setattr(pair, "SharedMemory", lambda *a, **k: created.append(a))
    g = suite_graph("LJ", "tiny")
    got, ref = prune_trees(g, 3, 40), _serial(g, 3, 40)
    for a, b in zip(got, ref):
        assert_same_tree(a, b, [3, 40])
    assert pair._helper is None and created == []
    assert multiprocessing.active_children() == []


def test_shutdown_leaves_no_process_and_no_segment(helper):
    g = suite_graph("LJ", "tiny")
    prune_trees(g, 3, 40)
    running = pair._helper
    names = running.segment_names()
    assert len(names) == 2  # one graph, one result segment
    assert multiprocessing.active_children() == [running.process]
    shutdown_helper()
    assert running.exitcode == 0  # it returned on EOF, not by a signal
    assert multiprocessing.active_children() == []
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name)


def test_published_graphs_are_bounded(helper):
    base = suite_graph("WL", "tiny")
    rng = np.random.default_rng(0)
    graphs = [
        CSRGraph(base.indptr, base.indices, base.weights * rng.uniform(0.5, 2.0, base.num_edges))
        for _ in range(pair.PUBLISHED_GRAPHS + 3)
    ]
    seen = []
    for g in graphs:
        got, ref = prune_trees(g, 1, 2), _serial(g, 1, 2)
        assert_same_tree(got[1], ref[1], [1, 2])
        seen += pair._helper.segment_names()[:-1]
    assert pair._helper.held == pair.PUBLISHED_GRAPHS
    live = set(pair._helper.segment_names())
    assert len(live) == pair.PUBLISHED_GRAPHS + 1
    for name in set(seen) - live:  # every evicted segment is unlinked
        with pytest.raises(FileNotFoundError):
            SharedMemory(name)
    # a graph published again after its eviction answers from a new segment
    got, ref = prune_trees(graphs[0], 2, 1), _serial(graphs[0], 2, 1)
    assert_same_tree(got[1], ref[1], [1, 2])


def test_published_graphs_are_held_weakly(helper):
    base = suite_graph("WL", "tiny")
    g = CSRGraph(base.indptr, base.indices, base.weights * 2.0)
    prune_trees(g, 1, 2)
    (name, _), alive = pair._helper.segment_names(), weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None  # publishing did not keep the graph
    # its entry ages out like a live one
    rng = np.random.default_rng(1)
    for _ in range(pair.PUBLISHED_GRAPHS):
        other = CSRGraph(base.indptr, base.indices, base.weights * rng.uniform(0.5, 2.0, base.num_edges))
        prune_trees(other, 1, 2)
    assert name not in pair._helper.segment_names()
    with pytest.raises(FileNotFoundError):
        SharedMemory(name)


def test_exit_shuts_the_helper_down():
    """A process that used the helper exits 0, with no leaked-segment
    warning and no helper left behind."""
    code = (
        "import os\n"
        "from repro.graph.suite import suite_graph\n"
        "from repro.sssp import pair\n"
        "pair.PAIR_MIN_EDGES = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "pair.prune_trees(suite_graph('LJ', 'tiny'), 3, 40)\n"
        "print(pair._helper.process.pid, *pair._helper.segment_names())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "leaked" not in out.stderr and "Traceback" not in out.stderr, out.stderr
    pid, *names = out.stdout.split()
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name)

"""Algorithm 2's two pruning SSSPs, on two cores when the host has them.

PeeK's prune starts with two independent trees: forward from ``s`` on G
and reverse from ``t`` on Gᵀ.  :func:`prune_trees` computes both and
returns what two :func:`prune_sssp` calls return, bitwise — ``dist``,
predecessors, lazy parents, lazy ``edges_relaxed`` and the tracer counters
in the same order (forward, then reverse).

On the compiled kernel the pair runs concurrently: while the calling
process computes the forward tree, one long-lived helper process computes
the reverse tree's SciPy Dijkstra.  Threads would not help: SciPy's
``csgraph.dijkstra`` holds the GIL, and the reverse tree on a second
thread measured 1.01x the serial pair on LJ-medium (1.07x on WL-medium).
The pair runs serially, as two :func:`prune_sssp` calls, unless all of
these hold:

* ``kernel == "dijkstra"`` (Δ-stepping's phase log is built in-process);
* no deadline and no fault hook (:func:`repro.cancel.cancellation_active`
  is False), so virtual-time runs, fault plans and deadlines keep their
  exact checkpoint stream;
* the graph has at least :data:`PAIR_MIN_EDGES` edges, where the saving
  outweighs the round trip;
* the process may run on at least two CPUs (``os.sched_getaffinity``).

The helper (:mod:`repro.sssp.pair_helper`) is started once per process
with the ``spawn`` start method — forking a threaded parent is unsafe —
and imports only NumPy and SciPy.  Each reverse graph's ``sparse_matrix()``
arrays are copied once into a ``multiprocessing.shared_memory`` segment;
the helper holds at most :data:`PUBLISHED_GRAPHS` graphs, evicted least
recently used, and every evicted segment is unlinked.  Results come back
through one reused result segment.  Any helper failure disables the
helper for the rest of the process and computes that tree in-process:
the answer is bitwise the same.  :func:`shutdown_helper` (also run at
exit) closes the pipe — the helper exits on EOF — and unlinks every
segment.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import runpy
import sys
import threading
import types
import weakref
from collections import OrderedDict
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np

from repro.cancel import cancellation_active
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import compiled_tree, dijkstra_tree

__all__ = [
    "PAIR_MIN_EDGES",
    "PUBLISHED_GRAPHS",
    "prune_sssp",
    "prune_trees",
    "shutdown_helper",
]

#: Graphs with fewer edges run the pair serially.  Measured on a 2-core
#: host: at ~28k edges the concurrent pair is 0.9-1.05x the serial one
#: (1.7 ms), at 59k 0.77x (4.4 ms), at 350k 0.64-0.70x (25-30 ms).
PAIR_MIN_EDGES = 50_000

#: The helper holds at most this many published graphs.  A live graph
#: makes a new snapshot per write, so an unbounded set grows with the
#: write count.
PUBLISHED_GRAPHS = 4

#: what a failed exchange with the helper raises in the parent; an error
#: reply raises ChildProcessError, itself an OSError
_FAILURES = (EOFError, OSError)

_HELPER_PATH = str(Path(__file__).with_name("pair_helper.py"))

_helper: "_Helper | None" = None
_disabled = False
#: the resource tracker the first helper start launched, if it did
_tracker_pid: int | None = None
#: one exchange at a time; a caller that finds it taken runs serially
_lock = threading.Lock()


def prune_sssp(
    graph,
    root: int,
    *,
    kernel: str = "dijkstra",
    deadline: float | None = None,
):
    """One of Algorithm 2's two SSSPs, on the named kernel.

    The single kernel dispatch behind :func:`prune_trees` and
    :class:`~repro.core.batch.BatchPeeK`'s SSSP cache.  ``kernel`` is
    ``"dijkstra"`` (SciPy's compiled Dijkstra via
    :func:`~repro.sssp.dijkstra.dijkstra_tree`, pinned bitwise to the
    Python loop of :func:`~repro.sssp.dijkstra.dijkstra`; the default) or
    ``"delta"`` (vectorized Δ-stepping, the paper's parallel kernel, whose
    per-phase work log the parallel simulator replays).
    """
    if kernel == "delta":
        return delta_stepping(graph, root, deadline=deadline)
    if kernel == "dijkstra":
        return dijkstra_tree(graph, root, deadline=deadline)
    raise ValueError(f"unknown SSSP kernel {kernel!r}")


def prune_trees(
    graph: CSRGraph,
    source: int,
    target: int,
    *,
    kernel: str = "dijkstra",
    deadline: float | None = None,
):
    """The forward tree from ``source`` on ``graph`` and the reverse tree
    from ``target`` on ``graph.reverse()``: ``(prune_sssp(graph, source),
    prune_sssp(graph.reverse(), target))``, bitwise, with the reverse tree
    computed in the helper process when the module's conditions hold."""
    if not _concurrent(graph, kernel, deadline) or not _lock.acquire(blocking=False):
        return (
            prune_sssp(graph, source, kernel=kernel, deadline=deadline),
            prune_sssp(graph.reverse(), target, kernel=kernel, deadline=deadline),
        )
    try:
        return _pair(graph, source, target)
    finally:
        _lock.release()


def _concurrent(graph: CSRGraph, kernel: str, deadline: float | None) -> bool:
    return (
        kernel == "dijkstra"
        and not _disabled
        and not cancellation_active(deadline)
        and graph.num_edges >= PAIR_MIN_EDGES
        and _cpus() >= 2
    )


def _cpus() -> int:
    """How many CPUs this process may run on (1 where the OS cannot say)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _pair(graph: CSRGraph, source: int, target: int):
    n = graph.num_vertices
    for root in (source, target):
        if not 0 <= root < n:
            raise VertexError(f"source {root} out of range [0, {n})")
    rev_graph = graph.reverse()
    helper = _running_helper()
    if helper is not None:
        try:
            helper.submit(rev_graph, target)
        except _FAILURES:
            _disable()
            helper = None
    rev = None
    try:
        fwd = dijkstra_tree(graph, source)
        if helper is not None:
            try:
                rev = compiled_tree(rev_graph, target, *helper.collect(n))
            except _FAILURES:
                _disable()
    finally:
        if helper is not None and helper.pending:
            # interrupted mid-exchange: its late reply must not answer the
            # next request
            shutdown_helper()
    if rev is None:
        rev = dijkstra_tree(rev_graph, target)
    return fwd, rev


def _running_helper() -> "_Helper | None":
    """The process's helper, started on first use; None once disabled."""
    global _helper, _tracker_pid
    if _helper is None:
        tracker = resource_tracker._resource_tracker
        launched = tracker._pid is None
        try:
            _helper = _Helper()
        except Exception:  # noqa: BLE001 - no helper is no failure
            _disable()
            return None
        if launched:
            _tracker_pid = tracker._pid
        # registered after multiprocessing's own exit handler, so it runs
        # first and the helper exits on EOF rather than by signal
        atexit.unregister(_at_exit)
        atexit.register(_at_exit)
    return _helper


def _at_exit() -> None:
    shutdown_helper()
    # Reap the resource tracker the helper's start launched (it tracks
    # only our segments, all unlinked now).  Left to exit after this
    # process, it would wait as a zombie under an init that does not reap.
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and _tracker_pid is not None and tracker._pid == _tracker_pid:
        stop()


def _disable() -> None:
    """Stop using the helper in this process (after a failure)."""
    global _disabled
    _disabled = True
    shutdown_helper()


def shutdown_helper() -> None:
    """Stop the helper, if one runs, and unlink every segment.

    Closing the pipe lets the helper exit on EOF; one that has not exited
    within a few seconds is killed.  A later :func:`prune_trees` call
    starts a new helper (unless a failure disabled it)."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.stop()


def _forget_helper() -> None:
    """In a forked child: the parent's helper and segments are not ours."""
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def _release(segment: SharedMemory) -> None:
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # unlinked from outside
        pass


def _publish(matrix) -> tuple[SharedMemory, list]:
    """A new segment holding ``matrix``'s arrays, and their ``(dtype,
    offset, count)`` in it (8-byte-aligned offsets)."""
    parts = (matrix.data, matrix.indices, matrix.indptr)
    arrays, offset = [], 0
    for a in parts:
        arrays.append((a.dtype.str, offset, a.size))
        offset += -(-a.nbytes // 8) * 8
    segment = SharedMemory(create=True, size=max(offset, 8))
    for a, (dtype, at, count) in zip(parts, arrays):
        np.ndarray(count, dtype, buffer=segment.buf, offset=at)[:] = a
    return segment, arrays


class _Helper:
    """The helper process, the graphs published to it and its result
    segment."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=runpy.run_path,
            args=(_HELPER_PATH,),
            kwargs={"init_globals": {"conn": child}, "run_name": "__pair_helper__"},
            name="repro-prune-helper",
            daemon=True,
        )
        # A spawned child re-imports the caller's main script unless
        # ``__main__`` names none; the helper needs nothing of it.
        main = sys.modules["__main__"]
        sys.modules["__main__"] = types.ModuleType("__main__")
        try:
            self.process.start()
        finally:
            sys.modules["__main__"] = main
            child.close()
        #: id(graph) -> (weak reference to it, segment, key), least
        #: recently used first.  Held weakly, so a published graph (a live
        #: graph's old snapshot, say) does not outlive its callers.
        self.graphs: OrderedDict[int, tuple[weakref.ref, SharedMemory, int]] = OrderedDict()
        self.result: SharedMemory | None = None
        #: how many graphs the helper last reported holding
        self.held = 0
        #: a request is sent and its reply not yet read
        self.pending = False
        #: the helper's exit code, once stopped
        self.exitcode: int | None = None
        self._keys = itertools.count()

    def segment_names(self) -> list[str]:
        """The names of every segment this helper's graphs and results use."""
        names = [segment.name for _, segment, _ in self.graphs.values()]
        return names + ([self.result.name] if self.result is not None else [])

    def submit(self, graph: CSRGraph, root: int) -> None:
        """Ask for the tree from ``root`` on ``graph``, publishing ``graph``
        first if the helper does not hold it."""
        publish = None
        entry = self.graphs.pop(id(graph), None)
        if entry is not None and entry[0]() is graph:
            self.graphs[id(graph)] = entry  # now the most recently used
            key = entry[2]
            retired = []
        else:
            # an entry under this id held a graph that is gone; other dead
            # entries age out like live ones
            retired = [] if entry is None else [entry]
            if len(self.graphs) >= PUBLISHED_GRAPHS:
                retired.append(self.graphs.popitem(last=False)[1])
            # the helper attached these when they were published: unlinking
            # drops the name, and the helper closes its mapping on ``drop``
            for _, old, _ in retired:
                _release(old)
            segment, arrays = _publish(graph.sparse_matrix())
            key = next(self._keys)
            self.graphs[id(graph)] = (weakref.ref(graph), segment, key)
            publish = (key, segment.name, graph.num_vertices, arrays)
        result_name = None
        need = 12 * graph.num_vertices  # float64 dist + int32 predecessors
        if self.result is None or self.result.size < need:
            if self.result is not None:
                old, self.result = self.result, None
                _release(old)
            self.result = SharedMemory(create=True, size=max(need, 8))
            result_name = self.result.name
        drop = [old_key for _, _, old_key in retired]
        self._conn.send((key, int(root), publish, drop, result_name))
        self.pending = True

    def collect(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The submitted tree's SciPy ``dist`` and predecessors."""
        status, value = self._conn.recv()
        self.pending = False
        if status != "ok":
            raise ChildProcessError(value)
        self.held = value
        buf = self.result.buf
        dist = np.frombuffer(buf, np.float64, n).copy()
        pred = np.frombuffer(buf, np.int32, n, 8 * n).copy()
        return dist, pred

    def stop(self) -> None:
        self._conn.close()  # the helper sees EOF and returns
        self.process.join(timeout=5)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.exitcode = self.process.exitcode
        self.process.close()
        # only now: a helper still running could attach a segment after it
        # is unlinked
        for _, segment, _ in self.graphs.values():
            _release(segment)
        self.graphs.clear()
        if self.result is not None:
            _release(self.result)
            self.result = None

"""The helper process behind :func:`repro.sssp.pair.prune_trees`.

:mod:`repro.sssp.pair` runs this file by path (``runpy.run_path``) in a
spawned process, so the helper imports NumPy and SciPy and nothing of
``repro``.  It answers one request at a time on the connection the parent
passes in as ``conn``:

``(key, root, publish, drop, result)``
    Forget the graphs whose keys are in ``drop``.  Attach ``publish``
    when it is not ``None``: ``(key, segment name, n, arrays)`` for a new
    graph, ``arrays`` being the ``(dtype, offset, count)`` of its
    ``sparse_matrix()``'s ``data``, ``indices`` and ``indptr`` in the
    segment.  Attach ``result``, a new result segment's name, when it is
    not ``None``.  Then run SciPy's Dijkstra from ``root`` on graph
    ``key`` and write ``dist`` (float64) at offset 0 of the result
    segment and the predecessors (int32) right after it.

The reply is ``("ok", graphs held)`` or ``("error", message)``.  On EOF —
the parent closed its end or exited — the helper closes every segment and
returns.  Unlinking is the parent's job.
"""

from __future__ import annotations

import signal
from multiprocessing.shared_memory import SharedMemory

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def _attach(name: str, n: int, arrays) -> tuple[SharedMemory, csr_matrix]:
    segment = SharedMemory(name)
    views = tuple(
        np.ndarray(count, dtype, buffer=segment.buf, offset=offset)
        for dtype, offset, count in arrays
    )
    return segment, csr_matrix(views, shape=(n, n))


def _solve(matrix: csr_matrix, root: int, result: SharedMemory) -> None:
    n = matrix.shape[0]
    dist, pred = dijkstra(matrix, directed=True, indices=root, return_predecessors=True)
    np.ndarray(n, np.float64, buffer=result.buf)[:] = dist
    np.ndarray(n, np.int32, buffer=result.buf, offset=8 * n)[:] = pred


def answer(conn) -> None:
    """Answer the parent's requests until it closes the connection."""
    # a terminal's Ctrl-C reaches the whole process group; the parent
    # handles it, and its exit closes the connection
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    #: key -> (segment, matrix over views of it); a segment is closed only
    #: after its matrix is dropped, since close() fails while views exist
    graphs: dict[int, tuple[SharedMemory, csr_matrix]] = {}
    result: SharedMemory | None = None
    try:
        while True:
            try:
                key, root, publish, drop, result_name = conn.recv()
            except EOFError:
                return
            try:
                for old in drop:
                    segment = graphs.pop(old)[0]  # frees the matrix first
                    segment.close()
                if publish is not None:
                    graphs[publish[0]] = _attach(*publish[1:])
                if result_name is not None:
                    if result is not None:
                        result.close()
                    result = SharedMemory(result_name)
                _solve(graphs[key][1], root, result)
                reply = ("ok", len(graphs))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                reply = ("error", repr(exc))
            try:
                conn.send(reply)
            except OSError:  # the parent closed its end mid-request
                return
    finally:
        segments = [segment for segment, _ in graphs.values()]
        graphs.clear()
        for segment in segments:
            segment.close()
        if result is not None:
            result.close()
        conn.close()


if __name__ == "__pair_helper__":
    answer(globals()["conn"])

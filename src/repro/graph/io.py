"""Graph file I/O: plain edge lists, DIMACS ``.gr``, and ``.npz`` binary.

The text formats exist so users can load real datasets (SNAP/KONECT edge
lists, DIMACS shortest-path challenge graphs); the ``.npz`` format is the
fast path for caching generated benchmark graphs between runs.
"""

from __future__ import annotations

from pathlib import Path as FilePath

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "save_npz",
    "load_npz",
]


def _open_text(path_or_file, mode: str):
    if isinstance(path_or_file, (str, FilePath)):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def read_edge_list(
    path_or_file,
    *,
    num_vertices: int | None = None,
    comment: str = "#",
    default_weight: float = 1.0,
) -> CSRGraph:
    """Read a whitespace-separated ``u v [w]`` edge list (SNAP style).

    Vertex ids must be non-negative integers; ``num_vertices`` defaults to
    ``max id + 1``.  Lines starting with ``comment`` are skipped.
    """
    fh, owned = _open_text(path_or_file, "r")
    try:
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"line {lineno}: expected 'u v [w]', got {line!r}"
                )
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            ws.append(float(parts[2]) if len(parts) == 3 else default_weight)
    finally:
        if owned:
            fh.close()
    if not srcs:
        return from_edge_array(
            num_vertices or 0,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    n = num_vertices if num_vertices is not None else max(max(srcs), max(dsts)) + 1
    return from_edge_array(
        n,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def write_edge_list(graph: CSRGraph, path_or_file) -> None:
    """Write ``u v w`` lines, one per edge, in CSR order."""
    fh, owned = _open_text(path_or_file, "w")
    try:
        fh.write(f"# {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v, w in graph.iter_edges():
            fh.write(f"{u} {v} {w:.17g}\n")
    finally:
        if owned:
            fh.close()


def read_dimacs(path_or_file) -> CSRGraph:
    """Read a DIMACS shortest-path ``.gr`` file.

    Format: a ``p sp n m`` problem line, then ``a u v w`` arc lines with
    **1-based** vertex ids, which are shifted to this library's 0-based ids.
    """
    fh, owned = _open_text(path_or_file, "r")
    try:
        n = None
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(
                        f"line {lineno}: bad problem line {line!r}"
                    )
                n = int(parts[2])
            elif parts[0] == "a":
                if n is None:
                    raise GraphFormatError("arc line before problem line")
                if len(parts) != 4:
                    raise GraphFormatError(f"line {lineno}: bad arc {line!r}")
                srcs.append(int(parts[1]) - 1)
                dsts.append(int(parts[2]) - 1)
                ws.append(float(parts[3]))
            else:
                raise GraphFormatError(
                    f"line {lineno}: unknown record type {parts[0]!r}"
                )
    finally:
        if owned:
            fh.close()
    if n is None:
        raise GraphFormatError("missing 'p sp n m' problem line")
    return from_edge_array(
        n,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def write_dimacs(graph: CSRGraph, path_or_file, *, comment: str | None = None) -> None:
    """Write a DIMACS shortest-path ``.gr`` file (1-based vertex ids)."""
    fh, owned = _open_text(path_or_file, "w")
    try:
        if comment:
            for line in comment.splitlines():
                fh.write(f"c {line}\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for u, v, w in graph.iter_edges():
            fh.write(f"a {u + 1} {v + 1} {w:.17g}\n")
    finally:
        if owned:
            fh.close()


def save_npz(graph: CSRGraph, path) -> None:
    """Save the three CSR arrays to a compressed ``.npz`` file."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )


def load_npz(path) -> CSRGraph:
    """Load a graph previously stored by :func:`save_npz`."""
    with np.load(path) as data:
        try:
            return CSRGraph(data["indptr"], data["indices"], data["weights"])
        except KeyError as exc:
            raise GraphFormatError(f"missing CSR array in {path}: {exc}") from exc

"""Builders: turn edge data from various sources into :class:`CSRGraph`.

The paper evaluates three weighting schemes (Table 1): random floats in
``(0, 1]`` for R21/LJ/WL, unit weights for the ``-U`` variants, and the
datasets' real weights for GAP-web/GAP-twitter.  :func:`assign_weights`
implements all three; the "real" scheme is synthesised as a heavy-tailed
log-normal, the standard stand-in for measured interaction strengths.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphFormatError, InvalidWeightError
from repro.graph.csr import CSRGraph

__all__ = [
    "from_edge_array",
    "from_edge_list",
    "from_networkx",
    "to_networkx",
    "assign_weights",
    "dedup_edges",
]


def from_edge_array(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | float = 1.0,
    *,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Build a CSR graph from parallel source/target/weight arrays.

    Parameters
    ----------
    num_vertices:
        Vertex-set size ``n``; all ids must be in ``[0, n)``.
    src, dst:
        Integer arrays of equal length, one entry per directed edge.
    weights:
        Either an array parallel to ``src`` or a scalar applied to every
        edge.  Must be strictly positive.
    dedup:
        Collapse parallel edges keeping the minimum weight — the only weight
        a shortest-path computation can ever use.
    drop_self_loops:
        Remove ``u == v`` edges.  A positive-weight self-loop can never be on
        a simple shortest path, so this is lossless for every algorithm here.
    """
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("src and dst must be 1-D arrays of equal length")
    if np.isscalar(weights):
        w = np.full(src.size, float(weights), dtype=np.float64)
    else:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != src.shape:
            raise GraphFormatError("weights must be parallel to src/dst")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint out of range [0, {num_vertices})"
            )
        if not np.all(np.isfinite(w)) or float(w.min()) <= 0.0:
            raise InvalidWeightError("edge weights must be finite and > 0")

    if drop_self_loops and src.size:
        mask = src != dst
        src, dst, w = src[mask], dst[mask], w[mask]
    if dedup and src.size:
        src, dst, w = dedup_edges(src, dst, w)

    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    return CSRGraph(indptr, dst[order], w[order], check=False)


def dedup_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse parallel ``(u, v)`` edges to the single lightest one.

    Sorts edges by ``(u, v, w)`` and keeps the first of each group, so the
    survivor is the minimum-weight copy.  O(m log m).
    """
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[first], dst[first], w[first]


def from_edge_list(
    num_vertices: int,
    edges: Iterable[tuple[int, int, float]] | Iterable[tuple[int, int]],
    *,
    default_weight: float = 1.0,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
    srcs: list[int] = []
    dsts: list[int] = []
    ws: list[float] = []
    for edge in edges:
        if len(edge) == 2:
            u, v = edge  # type: ignore[misc]
            w = default_weight
        elif len(edge) == 3:
            u, v, w = edge  # type: ignore[misc]
        else:
            raise GraphFormatError(f"edge tuple of length {len(edge)}")
        srcs.append(int(u))
        dsts.append(int(v))
        ws.append(float(w))
    return from_edge_array(
        num_vertices,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
        dedup=dedup,
        drop_self_loops=drop_self_loops,
    )


def from_networkx(nx_graph, *, weight: str = "weight", default_weight: float = 1.0) -> CSRGraph:
    """Convert a networkx (Di)Graph with integer vertex labels ``0..n-1``.

    Undirected graphs are expanded to both edge directions.  Used by the
    hypothesis tests to cross-check against ``networkx.shortest_simple_paths``.
    """
    import networkx as nx

    n = nx_graph.number_of_nodes()
    if set(nx_graph.nodes) != set(range(n)):
        raise GraphFormatError("networkx graph must be labelled 0..n-1")
    edges = []
    for u, v, data in nx_graph.edges(data=True):
        w = float(data.get(weight, default_weight))
        edges.append((u, v, w))
        if not nx_graph.is_directed():
            edges.append((v, u, w))
    return from_edge_list(n, edges)


def to_networkx(graph: CSRGraph, *, weight: str = "weight"):
    """Convert a :class:`CSRGraph` to a ``networkx.DiGraph``."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in graph.iter_edges():
        if g.has_edge(u, v):
            # keep the lighter parallel edge, matching dedup_edges semantics
            if g[u][v][weight] <= w:
                continue
        g.add_edge(u, v, **{weight: w})
    return g


def assign_weights(
    graph: CSRGraph,
    scheme: str,
    *,
    seed: int | None = 0,
) -> CSRGraph:
    """Re-weight a graph with one of the paper's three schemes (Table 1).

    ``"random"``
        i.i.d. floats in ``(0, 1]`` — the paper's weighting for R21/LJ/WL.
        (The paper says "normal distributions in the range (0, 1]"; we draw
        ``|N(0.5, 0.2)|`` clipped into ``(0, 1]`` to match.)
    ``"unit"``
        Every weight 1 — the paper's ``-U`` variants; makes KSP a hop-count
        problem with massive shortest-path ties.
    ``"real"``
        Heavy-tailed log-normal, a stand-in for the GAP datasets' measured
        weights.
    """
    rng = np.random.default_rng(seed)
    m = graph.num_edges
    if scheme == "unit":
        w = np.ones(m, dtype=np.float64)
    elif scheme == "random":
        w = np.abs(rng.normal(0.5, 0.2, size=m))
        w = np.clip(w, 1e-6, 1.0)
    elif scheme == "real":
        w = rng.lognormal(mean=0.0, sigma=1.0, size=m)
        w = np.clip(w, 1e-6, None)
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return CSRGraph(graph.indptr.copy(), graph.indices.copy(), w, check=False)

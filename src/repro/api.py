"""The one documented entry point: :func:`solve`.

Every KSP computation in the library — the paper's PeeK pipeline and all
comparison algorithms — runs through this front door:

>>> import repro
>>> from repro.graph.generators import grid_network
>>> g = grid_network(20, 20, seed=1)
>>> result = repro.solve(g, 0, 399, k=4)
>>> len(result.paths)
4
>>> repro.solve(g, 0, 399, k=4, algorithm="Yen").distances == result.distances
True

The per-algorithm convenience functions (``yen_ksp``, ``peek_ksp``, ...)
are thin aliases delegating here; use them only when the algorithm choice
is fixed at the call site.  Keyword arguments are validated against the
algorithm's :class:`~repro.ksp.registry.AlgorithmSpec` before anything is
constructed, so a typo fails with the list of valid options instead of a
traceback from deep inside a constructor.
"""

from __future__ import annotations

from repro.ksp.base import KSPResult
from repro.ksp.registry import ALGORITHMS, AlgorithmSpec, make_algorithm
from repro.obs.tracer import get_tracer
from repro.serve.query import Query, validate_query

__all__ = ["solve", "algorithms", "algorithm_spec"]


def solve(
    graph,
    source: int,
    target: int,
    k: int,
    *,
    algorithm: str = "PeeK",
    sanitize: bool | None = None,
    **opts,
) -> KSPResult:
    """Compute the K shortest simple ``source``→``target`` paths.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.csr.CSRGraph` (or any adjacency-array
        compatible view).
    source, target:
        Vertex ids of the query endpoints.  ``source == target`` raises
        :class:`~repro.errors.KSPError` — the library-wide rule, enforced
        identically here, in every algorithm constructor, in
        :func:`~repro.core.pruning.k_upper_bound_prune`, and in
        :class:`~repro.core.batch.BatchPeeK` (a zero-length "path" is not
        a simple path, and the deviation algorithms are undefined on it).
    k:
        Number of paths requested; fewer are returned when the graph has
        fewer simple s→t paths.
    algorithm:
        Registry name — one of :func:`algorithms`.  Default is the paper's
        contribution, ``"PeeK"``.
    sanitize:
        Run the full runtime-sanitizer battery around the solve (structural
        graph checks before, path/prune/workspace audits after; see
        :mod:`repro.analysis.sanitize` and ``docs/correctness_tooling.md``).
        ``None`` (the default) defers to the ``RPR_SANITIZE`` environment
        variable.  Results are bitwise-identical either way; a violated
        invariant raises :class:`~repro.errors.SanitizerError`.
    **opts:
        Algorithm options, validated against its
        :class:`~repro.ksp.registry.AlgorithmSpec`: ``deadline`` /
        ``lawler`` where supported, plus
        algorithm-specific keywords (e.g. PeeK's ``alpha``, ``prune``,
        ``compact``, ``kernel``).

    Returns
    -------
    KSPResult
        ``paths`` sorted by distance plus run statistics; PeeK returns its
        :class:`~repro.core.peek.PeeKResult` subclass carrying the prune
        and compaction artefacts.

    Notes
    -----
    The run executes under a ``solve`` span on the global tracer, so with
    a :class:`repro.obs.Tracer` installed the full stage tree (PeeK:
    ``prune`` / ``compact`` / ``ksp``) and per-kernel counters are
    captured — see ``docs/observability.md``.
    """
    # The shared request validator (range → source==target → k<1): one
    # taxonomy for this entry point and QueryServer.serve, by construction.
    validate_query(graph, Query(source, target, k))
    if sanitize is None:
        from repro.analysis.sanitize import sanitize_enabled_from_env

        sanitize = sanitize_enabled_from_env()
    tracer = get_tracer()
    with tracer.span("solve", algorithm=algorithm, k=k):
        if sanitize:
            from repro.analysis.sanitize import run_sanitized

            return run_sanitized(graph, source, target, k, algorithm, opts)
        solver = make_algorithm(algorithm, graph, source, target, **opts)
        return solver.run(k)


def algorithms() -> tuple[str, ...]:
    """The registry names accepted by :func:`solve`, in table order."""
    return tuple(ALGORITHMS)


def algorithm_spec(name: str) -> AlgorithmSpec:
    """The :class:`~repro.ksp.registry.AlgorithmSpec` for ``name``."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None

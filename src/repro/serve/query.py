"""The request object of the serving layer: :class:`Query`.

A KSP request used to be four positional scalars scattered across call
sites; production traffic needs a *value* that can be queued, logged,
replayed from a trace, and carried on the response.  :class:`Query` is
that value — frozen, hashable, and cheap — and
:func:`validate_query` is the one place the request-validation taxonomy
lives, so :func:`repro.solve` and :meth:`QueryServer.serve
<repro.serve.QueryServer.serve>` provably reject bad requests with the
same errors in the same order (range check → ``source == target`` →
``k < 1``).

This module deliberately imports nothing heavier than
:mod:`repro.errors`, so the request type is usable from traces, CLIs,
and the serving loop without dragging in the solver stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import KSPError, VertexError

__all__ = ["Query", "validate_query"]


@dataclass(frozen=True)
class Query:
    """One KSP request, as a value.

    Parameters
    ----------
    source, target:
        Vertex ids of the query endpoints.
    k:
        Number of shortest simple paths requested.
    timeout:
        Per-query budget in seconds, measured from the moment serving
        starts (``None`` defers to the server's ``default_timeout``).
    request_id:
        Opaque caller-supplied identifier, carried through to the
        :class:`~repro.serve.ServeResult` and trace records ("" = none).
    issued_at:
        When the request entered the system, on whatever clock the
        caller uses (the serving loop uses simulated seconds).  Purely
        descriptive: the server's budget runs from serve start, not from
        ``issued_at``.

    A query never names a graph version: it is always answered against
    the server's *current* snapshot, and the version actually used comes
    back on ``ServeResult.graph_version`` (0 for static graphs).  On a
    live graph the serving loop orders mutation batches against
    ``issued_at``, so which snapshot a query sees is a deterministic
    function of the timeline, not of wall-clock races.
    """

    source: int
    target: int
    k: int
    timeout: float | None = None
    request_id: str = ""
    issued_at: float = 0.0

    def with_timeout(self, timeout: float | None) -> "Query":
        """A copy of this query with a different budget (queues use this
        to pass along the budget *remaining* after queue wait)."""
        return replace(self, timeout=timeout)


def validate_query(graph, query: Query) -> None:
    """Reject an invalid request — the library-wide taxonomy and order.

    Raises, in this order (first failure wins):

    1. :class:`~repro.errors.VertexError` — ``source`` or ``target``
       outside ``[0, graph.num_vertices)`` (so ``(n, n)`` is a vertex
       error, not a source-equals-target error);
    2. :class:`~repro.errors.KSPError` — ``source == target`` (a
       zero-length "path" is not a simple path; the deviation algorithms
       are undefined on it);
    3. ``ValueError`` — ``k < 1``.

    Both :func:`repro.solve` and :class:`repro.serve.QueryServer` call
    this helper, so the two entry points cannot drift apart.
    """
    n = graph.num_vertices
    source, target = query.source, query.target
    if not 0 <= source < n or not 0 <= target < n:
        raise VertexError(f"query ({source}, {target}) out of range [0, {n})")
    if source == target:
        raise KSPError("source and target must differ for a KSP query")
    if query.k < 1:
        raise ValueError("k must be >= 1")

"""Independent verification of KSP results.

Downstream users of a KSP library need a cheap way to audit results —
especially when swapping algorithms or running on views/compacted graphs.
:func:`verify_ksp_result` checks every *locally checkable* property of a
result (path validity, simplicity, distances, ordering, duplicates, path
count) in O(total path length), and optionally proves *completeness* (no
shorter simple path was missed) by exhaustive enumeration on small graphs.

This is the library's one checker of the KSP answer contract: the
benchmark harness and perfbench run it on every recorded result, the test
suite uses the exhaustive mode as an extra oracle next to networkx, and
the ``SAN-PATH`` sanitizer
(:func:`repro.analysis.sanitize.check_result_paths`) raises on the first
:class:`Violation` it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ksp.base import KSPResult
from repro.paths import COST_REL_TOL, costs_close

__all__ = [
    "COMPLETENESS_LIMIT",
    "Violation",
    "VerificationReport",
    "verify_ksp_result",
    "enumerate_simple_paths",
]

#: Most simple s→t paths the completeness check enumerates before giving up
#: (it is meant for test-sized graphs).
COMPLETENESS_LIMIT = 2000


@dataclass
class Violation:
    """One broken property of an answer, with where it was found.

    ``context`` names the offending ``path`` (its rank), ``vertex`` or
    ``edge`` (a ``(u, v)`` pair) when the property has one.
    """

    message: str
    context: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    """The outcome of a verification run; falsy when anything failed."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failures(self) -> list[str]:
        """The violations' messages, in the order they were found."""
        return [v.message for v in self.violations]

    def fail(self, message: str, **context) -> None:
        self.violations.append(Violation(message, context))

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "OK" if self.ok else "; ".join(self.failures)


def _cost_matches(claimed: float, total: float, rel_tol: float) -> bool:
    """``claimed`` equals the edge sum ``total`` up to ``rel_tol``.

    Both :func:`~repro.paths.costs_close` (so a NaN claim matches nothing)
    and a slack scaled by the edge sum alone (so a wildly wrong claim
    cannot widen its own tolerance) must accept.
    """
    return costs_close(claimed, total, rel_tol=rel_tol) and not (
        abs(claimed - total) > rel_tol * max(1.0, abs(total))
    )


def verify_ksp_result(
    graph,
    source: int,
    target: int,
    result: KSPResult,
    *,
    rel_tol: float = COST_REL_TOL,
    check_completeness: bool = False,
) -> VerificationReport:
    """Audit a KSP result against the graph it claims to describe.

    Local checks (always), each reported for every path it fails on:
    every path starts at ``source`` and ends at ``target``, is simple,
    uses only existing edges, and claims the distance its edges sum to
    (within ``rel_tol`` of the sum); distances are non-decreasing (an
    absolute slack of ``rel_tol``); no path repeats; and there are at most
    ``result.k_requested`` paths.

    ``check_completeness=True`` additionally enumerates *all* simple s→t
    paths (at most :data:`COMPLETENESS_LIMIT`; intended for test-sized
    graphs) and confirms the result equals the true top-K.
    """
    report = VerificationReport()
    seen: set[tuple[int, ...]] = set()
    prev_dist = float("-inf")
    # an audit of an already computed result: <= K paths, each a finite
    # vertex list — no checkpoint needed after kernel exit
    for i, path in enumerate(result.paths):  # contracts: disable=CTR201 (bounded)
        verts = path.vertices
        if verts[0] != source:
            report.fail(f"path #{i} starts at {verts[0]}, not {source}", path=i)
        if verts[-1] != target:
            report.fail(f"path #{i} ends at {verts[-1]}, not {target}", path=i)
        marked: set[int] = set()
        for v in verts:
            if v in marked:
                report.fail(
                    f"path #{i} is not simple: vertex {v} repeats",
                    path=i,
                    vertex=int(v),
                )
                break
            marked.add(v)
        total = 0.0
        for u, v in path.edges():
            w = graph.edge_weight(u, v)
            if w is None:
                report.fail(
                    f"path #{i} uses missing edge {u}->{v}",
                    path=i,
                    edge=(int(u), int(v)),
                )
                total = float("nan")
                break
            total += w
        if not math.isnan(total) and not _cost_matches(
            path.distance, total, rel_tol
        ):
            report.fail(
                f"path #{i} claims distance {path.distance!r} but its edges "
                f"sum to {total!r}",
                path=i,
            )
        if path.distance < prev_dist - rel_tol:
            report.fail(
                f"path #{i} (distance {path.distance!r}) breaks the "
                "non-decreasing distance order",
                path=i,
            )
        if verts in seen:
            report.fail(f"path #{i} duplicates an earlier path", path=i)
        seen.add(verts)
        prev_dist = max(prev_dist, path.distance)
    if len(result.paths) > result.k_requested:
        report.fail(
            f"{len(result.paths)} paths returned for k={result.k_requested}"
        )

    if check_completeness:
        true_dists = sorted(
            d for _, d in enumerate_simple_paths(
                graph, source, target, limit=COMPLETENESS_LIMIT
            )
        )
        k = len(result.paths)
        expected = true_dists[:k]
        got = [p.distance for p in result.paths]
        if len(result.paths) < min(result.k_requested, len(true_dists)):
            report.fail(
                f"result has {len(result.paths)} paths but "
                f"{len(true_dists)} simple paths exist"
            )
        for i, (g_, e_) in enumerate(zip(got, expected)):
            if abs(g_ - e_) > rel_tol * max(1.0, abs(e_)):
                report.fail(
                    f"rank {i}: got distance {g_}, true top-K has {e_}"
                )
    return report


def enumerate_simple_paths(
    graph,
    source: int,
    target: int,
    *,
    limit: int = 2000,
    max_steps: int | None = None,
):
    """Yield ``(vertices, distance)`` for every simple s→t path (DFS).

    Exponential by nature — use only on test-sized graphs.  Two guards,
    both raising ``RuntimeError``: ``limit`` bounds the number of *paths*
    yielded, and ``max_steps`` bounds the DFS expansions — necessary
    because on dense graphs the search can wander exponentially many
    dead-end prefixes between yields (the path count alone is no time
    bound).  ``max_steps`` defaults to ``500·limit + 100_000``.
    """
    if max_steps is None:
        max_steps = 500 * limit + 100_000
    count = 0
    steps = 0
    stack: list[tuple[int, tuple[int, ...], float]] = [
        (source, (source,), 0.0)
    ]
    # the max_steps guard below raises, so the walk is bounded
    while stack:  # contracts: disable=CTR201 (bounded by max_steps)
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"exceeded {max_steps} DFS steps; the graph is too dense "
                "for exhaustive path enumeration"
            )
        u, path, dist = stack.pop()
        if u == target:
            count += 1
            if count > limit:
                raise RuntimeError(
                    f"more than {limit} simple paths; raise the limit"
                )
            yield path, dist
            continue
        targets, weights = graph.neighbors(u)
        for v, w in zip(targets.tolist(), weights.tolist()):
            if v not in path:
                stack.append((int(v), path + (int(v),), dist + float(w)))

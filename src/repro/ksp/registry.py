"""Name → algorithm registry used by :func:`repro.solve`, the CLI, and the
benchmark harness.

The names match the paper's tables exactly ("Yen", "NC", "OptYen", "SB",
"SB*", "PeeK") so benchmark output reads like the paper.  Each entry is an
:class:`AlgorithmSpec`: the factory plus capability flags, so callers can
validate keyword arguments *before* construction instead of forwarding
blind and failing deep inside a constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.ksp.node_classification import NodeClassificationKSP
from repro.ksp.optyen import OptYenKSP
from repro.ksp.pnc import PostponedNCKSP
from repro.ksp.psb import PSBKSP, PSBv2KSP, PSBv3KSP
from repro.ksp.sidetrack import SidetrackKSP
from repro.ksp.sidetrack_star import SidetrackStarKSP
from repro.ksp.yen import YenKSP

__all__ = ["AlgorithmSpec", "ALGORITHMS", "make_algorithm"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: factory + capabilities.

    The capability flags drive keyword validation (each flag admits its
    keyword) and let harnesses select algorithms structurally — e.g. "every
    deviation-based algorithm" for an integration sweep, or "everything
    that supports a deadline" for the timeout sweep.

    The spec is callable with the factory's signature, after validating the
    keywords, so ``ALGORITHMS[name](graph, s, t, **kw)`` keeps working.
    """

    name: str
    factory: Callable
    summary: str = ""
    #: accepts ``deadline=`` (the benchmark harness' 1-hour cap)
    supports_deadline: bool = True
    #: accepts ``lawler=`` (Lawler's deviation-index optimisation)
    supports_lawler: bool = True
    #: built on the :class:`~repro.ksp.base.DeviationKSP` loop
    is_deviation_based: bool = True
    #: algorithm-specific keywords beyond the capability-implied ones
    extra_kwargs: frozenset[str] = field(default_factory=frozenset)

    @property
    def valid_kwargs(self) -> frozenset[str]:
        """Every keyword this algorithm's factory accepts."""
        out = set(self.extra_kwargs)
        if self.supports_deadline:
            out.add("deadline")
        if self.supports_lawler:
            out.add("lawler")
        return frozenset(out)

    def validate_kwargs(self, kwargs: dict) -> None:
        """Raise ``TypeError`` naming any keyword the factory won't take."""
        unknown = set(kwargs) - self.valid_kwargs
        if unknown:
            raise TypeError(
                f"{self.name} does not accept "
                f"{', '.join(sorted(unknown))}; valid keyword(s): "
                f"{', '.join(sorted(self.valid_kwargs)) or '(none)'}"
            )

    def __call__(self, graph, source: int, target: int, **kwargs):
        self.validate_kwargs(kwargs)
        return self.factory(graph, source, target, **kwargs)


def _peek_factory(graph, source, target, **kwargs):
    # Imported lazily: repro.core depends on repro.ksp, not vice versa.
    from repro.core.peek import PeeK

    return PeeK(graph, source, target, **kwargs)


def _spec(name: str, factory: Callable, summary: str, **flags) -> AlgorithmSpec:
    return AlgorithmSpec(name=name, factory=factory, summary=summary, **flags)


#: Every benchmarkable KSP algorithm, keyed by its table name.
ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        _spec("Yen", YenKSP, "Yen 1971: one Dijkstra per deviation"),
        _spec(
            "NC",
            NodeClassificationKSP,
            "Feng 2014: reverse SP tree + vertex colours",
        ),
        _spec(
            "OptYen",
            OptYenKSP,
            "Ajwani et al. 2018: static reverse tree, express-or-repair",
            extra_kwargs=frozenset({"bound"}),
        ),
        _spec(
            "SB",
            SidetrackKSP,
            "Kurz-Mutzel 2016: cached per-prefix reverse SP trees",
        ),
        _spec(
            "SB*",
            SidetrackStarKSP,
            "Al Zoobi et al.: paused/resumable reverse trees",
        ),
        _spec(
            "PNC",
            PostponedNCKSP,
            "postponed repairs: lower-bound candidates fixed on extraction",
        ),
        _spec(
            "PSB",
            PSBKSP,
            "SB with a distance-threshold tree-cache admission rule",
            extra_kwargs=frozenset({"threshold"}),
        ),
        _spec(
            "PSB-v2",
            PSBv2KSP,
            "PSB with per-iteration threshold adaptation",
            extra_kwargs=frozenset({"threshold"}),
        ),
        _spec(
            "PSB-v3",
            PSBv3KSP,
            "PSB under an explicit tree-cache memory budget",
            extra_kwargs=frozenset({"threshold", "memory_budget_bytes"}),
        ),
        _spec(
            "PeeK",
            _peek_factory,
            "SC '23: K-upper-bound prune + adaptive compaction + OptYen",
            supports_lawler=False,
            is_deviation_based=False,
            extra_kwargs=frozenset(
                {
                    "alpha",
                    "prune",
                    "compact",
                    "kernel",
                    "strong_edge_prune",
                    "compaction_force",
                }
            ),
        ),
    )
}


def make_algorithm(name: str, graph, source: int, target: int, **kwargs):
    """Instantiate algorithm ``name`` for one s→t query.

    ``kwargs`` are validated against the :class:`AlgorithmSpec` (a bad
    keyword raises ``TypeError`` naming the valid ones) and forwarded —
    ``deadline``, ``lawler``, and for PeeK the
    pruning/compaction flags.
    """
    try:
        spec = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return spec(graph, source, target, **kwargs)

"""Deterministic fault injection at pipeline checkpoint boundaries.

Degradation code is only trustworthy if its failure paths actually run,
and real timeouts are flaky to provoke (a CI machine may be fast enough
that a "tiny" budget still finishes).  This harness makes faults *exact*:
every cooperative-cancellation checkpoint in the pipeline
(:mod:`repro.cancel`) doubles as an injection seam, and a
:class:`FaultInjector` installed as the fault hook raises a chosen
exception at the Nth visit to a named stage — same graph, same seed, same
fault, every run.

Stage names are the checkpoint labels:

========================  ====================================================
``sssp.delta``            Δ-stepping bucket phases (``PeeK(kernel="delta")``)
``sssp.dijkstra``         Dijkstra entry + settle batches (prune or spur)
``prune.scan``            Algorithm 2's spSum scan
``prune.masks``           the vertex/edge mask build
``compact`` / ``compact.build``  adaptive compaction decision / build
``OptYen`` (etc.)         the deviation loop (stage = algorithm name)
``serve.attempt``         :class:`~repro.serve.server.QueryServer` boundary
========================  ====================================================

A rule matches a stage exactly or by dotted prefix (``"sssp"`` matches
both kernels).  Rules with ``at_hit=None`` draw the firing hit count from
the injector's seeded RNG, so randomised fault campaigns are reproducible
from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cancel import fault_scope
from repro.errors import (
    KSPTimeout,
    RankFailure,
    ReproError,
    UnreachableTargetError,
)

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultInjector",
    "FAULT_KINDS",
    "parse_fault_spec",
]


class InjectedFault(ReproError):
    """A synthetic fault raised by the harness (never by production code).

    ``transient=True`` marks it retryable: the server's retry-with-backoff
    policy treats it like a transient infrastructure fault (and anything
    else carrying a truthy ``transient`` attribute the same way).
    """

    def __init__(self, stage: str, *, transient: bool = True) -> None:
        super().__init__(f"injected fault at stage {stage!r}")
        self.stage = stage
        self.transient = transient


@dataclass
class FaultRule:
    """Fire one kind of fault at the Nth checkpoint visit of a stage.

    Parameters
    ----------
    stage:
        Checkpoint label to match — exact, or a dotted prefix
        (``"sssp"`` matches ``"sssp.delta"``).
    kind:
        ``"timeout"`` raises :class:`~repro.errors.KSPTimeout`;
        ``"unreachable"`` raises
        :class:`~repro.errors.UnreachableTargetError`; ``"transient"``
        raises a retryable :class:`InjectedFault`; ``"fatal"`` raises a
        non-retryable one.
    at_hit:
        1-based visit count at which to start firing.  ``None`` draws it
        from the injector's seeded RNG in ``[1, max_hit]``.
    times:
        Consecutive visits that fire (lets a "transient" fault survive a
        bounded number of retries before the stage recovers).
    max_hit:
        Upper bound for the seeded draw when ``at_hit`` is ``None``.
    rank:
        Scope the rule to one simulated MPI rank.  Only meaningful for the
        distributed substrate (``kind="rankfail"`` kills that rank; see
        :class:`~repro.distributed.comm.FaultPlan`); ``None`` means
        unscoped — a ``rankfail`` rule then draws its victim from the
        plan's seeded RNG.
    replica:
        Scope the rule to one serving-fabric *replica* (the ``@R<N>``
        spelling of the ``--inject`` grammar).  Replicas and ranks are
        different namespaces — a replica is a unit of serving failure, a
        rank a unit of BSP computation — even though the fabric maps
        replica ``i`` onto rank ``i`` of its own communicator (see
        ``docs/fabric.md``).  Mutually exclusive with ``rank``.
    """

    stage: str
    kind: str = "timeout"
    at_hit: int | None = 1
    times: int = 1
    max_hit: int = 4
    rank: int | None = None
    replica: int | None = None

    def matches(self, stage: str) -> bool:
        return stage == self.stage or stage.startswith(self.stage + ".")

    def make_error(self, stage: str) -> ReproError:
        if self.kind == "timeout":
            return KSPTimeout(f"injected timeout at stage {stage!r}")
        if self.kind == "unreachable":
            return UnreachableTargetError(
                f"injected unreachable fault at stage {stage!r}"
            )
        if self.kind == "transient":
            return InjectedFault(stage, transient=True)
        if self.kind == "fatal":
            return InjectedFault(stage, transient=False)
        if self.kind == "rankfail":
            return RankFailure(self.rank or 0, stage=stage)
        raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultInjector:
    """The callable installed as :mod:`repro.cancel`'s fault hook.

    >>> inj = FaultInjector([FaultRule("prune.scan", kind="timeout")])
    >>> with inj.installed():
    ...     ...  # the next prune.scan checkpoint raises KSPTimeout

    ``seed`` resolves every rule whose ``at_hit`` is ``None``; with all
    hits pinned the injector is deterministic regardless of seed.
    ``fired`` records ``(stage, kind)`` per firing for test assertions;
    ``hits`` counts checkpoint visits per rule.
    """

    def __init__(
        self, rules: list[FaultRule], *, seed: int | None = None
    ) -> None:
        rng = random.Random(seed)
        self.rules = list(rules)
        #: resolved firing hit per rule (index-aligned with ``rules``)
        self.at_hits = [
            r.at_hit if r.at_hit is not None else rng.randint(1, r.max_hit)
            for r in self.rules
        ]
        self.hits = [0] * len(self.rules)
        self.fired: list[tuple[str, str]] = []

    def __call__(self, stage: str) -> None:
        for i, rule in enumerate(self.rules):
            if not rule.matches(stage):
                continue
            self.hits[i] += 1
            first = self.at_hits[i]
            if first <= self.hits[i] < first + rule.times:
                self.fired.append((stage, rule.kind))
                raise rule.make_error(stage)

    def installed(self):
        """Context manager installing this injector as the fault hook."""
        return fault_scope(self)


#: every fault kind a rule spec may name
FAULT_KINDS = ("timeout", "unreachable", "transient", "fatal", "rankfail")


def parse_fault_spec(spec: str) -> FaultRule:
    """Parse the CLI rule grammar ``STAGE:KIND[:AT_HIT][@RANK | @R<N>]``.

    The ``@RANK`` suffix scopes the rule to one simulated MPI rank (see
    :class:`FaultRule.rank`); the ``@R<N>`` spelling scopes it to serving
    replica ``N`` instead (``fabric.heartbeat:rankfail:3@R1`` kills
    replica 1 at its third heartbeat — see :class:`FaultRule.replica`
    and ``peek-fabric --inject``).  Omitting ``AT_HIT`` leaves the firing
    visit to the seeded draw.  Shared by ``peek-serve --inject``,
    ``peek-fabric --inject`` and
    :meth:`~repro.distributed.comm.FaultPlan.from_specs`.  Raises
    ``ValueError`` on malformed specs.
    """
    body, sep, rank_part = spec.partition("@")
    rank: int | None = None
    replica: int | None = None
    if sep:
        target_part = rank_part
        is_replica = rank_part[:1] in ("R", "r")
        if is_replica:
            target_part = rank_part[1:]
        try:
            target = int(target_part)
        except ValueError:
            raise ValueError(
                f"bad target in fault spec {spec!r} (want @RANK or @R<N>)"
            ) from None
        if target < 0:
            raise ValueError(f"negative target in fault spec {spec!r}")
        if is_replica:
            replica = target
        else:
            rank = target
    parts = body.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"bad fault spec {spec!r} (want STAGE:KIND[:AT_HIT][@RANK])"
        )
    if parts[1] not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {parts[1]!r} (kinds: {', '.join(FAULT_KINDS)})"
        )
    at_hit: int | None = None
    if len(parts) == 3:
        try:
            at_hit = int(parts[2])
        except ValueError:
            raise ValueError(f"bad AT_HIT in fault spec {spec!r}") from None
    return FaultRule(
        stage=parts[0], kind=parts[1], at_hit=at_hit, rank=rank, replica=replica
    )

"""Deterministic fault injection: one seeded plan for every seam.

Degradation and recovery code is only trustworthy if its failure paths
actually run, and real timeouts or node losses are flaky to provoke (a
CI machine may be fast enough that a "tiny" budget still finishes).
This harness makes faults *exact*: a :class:`FaultPlan` fires a chosen
fault at the Nth visit to a named stage — same graph, same seed, same
fault, every run.  It watches two seams:

* **checkpoints** — every cooperative-cancellation checkpoint in the
  pipeline (:mod:`repro.cancel`) calls the installed fault hook, and a
  plan installed as that hook raises its ``timeout``, ``unreachable``,
  ``transient`` and ``fatal`` rules there;
* **collectives** — every :class:`~repro.distributed.comm.SimComm`
  collective polls its plan (:meth:`FaultPlan.poll`), which fires its
  ``rankfail`` rules there and names the ranks that die.

Checkpoint stage names:

========================  ====================================================
``sssp.delta``            Δ-stepping bucket phases (``PeeK(kernel="delta")``)
``sssp.dijkstra``         Dijkstra entry + settle batches (prune or spur)
``prune.scan``            Algorithm 2's spSum scan
``prune.masks``           the vertex/edge mask build
``compact`` / ``compact.build``  adaptive compaction decision / build
``OptYen`` (etc.)         the deviation loop (stage = algorithm name)
``serve.attempt``         :class:`~repro.serve.server.QueryServer` boundary
========================  ====================================================

Collective labels (``dist.sssp.route``, ``fabric.heartbeat``, ...) are
tabulated in ``docs/serving.md``.  A rule matches a stage exactly or by
dotted prefix (``"sssp"`` matches both kernels).  Rules with
``at_hit=None`` draw the firing hit count, and ``rankfail`` rules with
``rank=None`` their victim, from the plan's seeded RNG, so randomised
fault campaigns are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cancel import fault_scope
from repro.errors import KSPTimeout, ReproError, UnreachableTargetError

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "FAULT_KINDS",
    "parse_fault_spec",
]

#: the one kind that fires at collectives; every other kind fires at
#: checkpoints
RANKFAIL = "rankfail"

#: every fault kind a rule may name
FAULT_KINDS = ("timeout", "unreachable", "transient", "fatal", RANKFAIL)


class InjectedFault(ReproError):
    """A synthetic fault raised by the harness (never by production code).

    ``transient=True`` marks it retryable: the server's retry-with-backoff
    schedule treats it like a transient infrastructure fault (and anything
    else carrying a truthy ``transient`` attribute the same way).
    """

    def __init__(self, stage: str, *, transient: bool = True) -> None:
        super().__init__(f"injected fault at stage {stage!r}")
        self.stage = stage
        self.transient = transient


@dataclass
class FaultRule:
    """Fire one kind of fault at the Nth visit of a stage.

    Parameters
    ----------
    stage:
        Checkpoint or collective label to match — exact, or a dotted
        prefix (``"sssp"`` matches ``"sssp.delta"``).
    kind:
        ``"timeout"`` raises :class:`~repro.errors.KSPTimeout`;
        ``"unreachable"`` raises
        :class:`~repro.errors.UnreachableTargetError`; ``"transient"``
        raises a retryable :class:`InjectedFault`; ``"fatal"`` raises a
        non-retryable one — all four at checkpoints.  ``"rankfail"``
        kills a rank at a collective instead.
    at_hit:
        1-based visit count at which to start firing.  ``None`` draws it
        from the plan's seeded RNG in ``[1, max_hit]``.
    times:
        Consecutive visits that fire (lets a "transient" fault survive a
        bounded number of retries before the stage recovers).
    max_hit:
        Upper bound for the seeded draw when ``at_hit`` is ``None``.
    rank:
        The rank a ``rankfail`` rule kills; ``None`` draws the victim
        from the plan's seeded RNG.  A serving fleet lays replica ``i``
        onto rank ``i`` of its communicator, so this is also the replica
        a fleet kill targets (the ``@R<N>`` spelling).
    """

    stage: str
    kind: str = "timeout"
    at_hit: int | None = 1
    times: int = 1
    max_hit: int = 4
    rank: int | None = None

    def __post_init__(self) -> None:
        # a rule that can never fire would report a fault campaign that
        # did not happen
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(kinds: {', '.join(FAULT_KINDS)})"
            )
        if self.at_hit is not None and self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.max_hit < 1:
            raise ValueError(f"max_hit must be >= 1, got {self.max_hit}")

    def matches(self, stage: str) -> bool:
        return stage == self.stage or stage.startswith(self.stage + ".")

    def make_error(self, stage: str) -> ReproError:
        """The exception a checkpoint rule raises at ``stage``."""
        if self.kind == "timeout":
            return KSPTimeout(f"injected timeout at stage {stage!r}")
        if self.kind == "unreachable":
            return UnreachableTargetError(
                f"injected unreachable fault at stage {stage!r}"
            )
        if self.kind in ("transient", "fatal"):
            return InjectedFault(stage, transient=self.kind == "transient")
        raise ValueError(f"{self.kind!r} rules fire at collectives, not checkpoints")


class FaultPlan:
    """A seeded fault schedule over checkpoints and collectives.

    >>> plan = FaultPlan([FaultRule("prune.scan", kind="timeout")])
    >>> with plan.installed():
    ...     ...  # the next prune.scan checkpoint raises KSPTimeout

    The RNG draws every ``at_hit=None`` rule's firing visit in rule
    order at construction, then each unscoped ``rankfail`` victim as it
    fires; with every hit and rank pinned the plan is deterministic
    regardless of seed.  ``hits`` counts visits per rule (a rule counts
    only the visits of its own seam); ``fired`` logs ``(stage, kind)``
    per checkpoint fault and ``(stage, rank, superstep)`` per kill.
    """

    def __init__(self, rules, *, seed: int | None = None) -> None:
        self.rules = list(rules)
        self._rng = random.Random(seed)
        #: resolved firing hit per rule (index-aligned with ``rules``)
        self.at_hits = [
            r.at_hit if r.at_hit is not None else self._rng.randint(1, r.max_hit)
            for r in self.rules
        ]
        self.hits = [0] * len(self.rules)
        self.fired: list[tuple] = []

    @classmethod
    def from_specs(cls, specs, *, seed: int | None = None) -> "FaultPlan":
        """Build a plan from :func:`parse_fault_spec` strings."""
        return cls([parse_fault_spec(s) for s in specs], seed=seed)

    def _firing(self, stage: str, *, collective: bool):
        """Count this visit of ``stage`` on the seam's matching rules and
        yield each rule that fires, in rule order."""
        for i, rule in enumerate(self.rules):
            if (rule.kind == RANKFAIL) != collective or not rule.matches(stage):
                continue
            self.hits[i] += 1
            first = self.at_hits[i]
            if first <= self.hits[i] < first + rule.times:
                yield rule

    def __call__(self, stage: str) -> None:
        """The checkpoint hook: raise the first checkpoint rule that fires."""
        for rule in self._firing(stage, collective=False):
            self.fired.append((stage, rule.kind))
            raise rule.make_error(stage)

    def poll(self, stage: str, num_ranks: int, superstep: int) -> list[int]:
        """Ranks killed at this collective (usually empty)."""
        victims: list[int] = []
        for rule in self._firing(stage, collective=True):
            rank = rule.rank if rule.rank is not None else self._rng.randrange(num_ranks)
            if rank >= num_ranks:
                continue  # rule targets a rank this job doesn't have
            victims.append(rank)
            self.fired.append((stage, rank, superstep))
        return victims

    def installed(self):
        """Context manager installing this plan as the checkpoint hook."""
        return fault_scope(self)


def parse_fault_spec(spec: str) -> FaultRule:
    """Parse the CLI rule grammar ``STAGE:KIND[:AT_HIT][@RANK | @R<N>]``.

    The ``@RANK`` suffix scopes a ``rankfail`` rule to one rank; ``@R<N>``
    is the serving fleet's spelling of the same thing, since replica
    ``N`` is rank ``N`` (``fabric.heartbeat:rankfail:3@R1`` kills replica
    1 at its third heartbeat).  Omitting ``AT_HIT`` leaves the firing
    visit to the seeded draw.  Shared by ``peek-serve --inject``,
    ``peek-load fabric --inject`` and :meth:`FaultPlan.from_specs`.  Raises
    ``ValueError`` on malformed specs and on rules that can never fire.
    """
    body, sep, rank_part = spec.partition("@")
    rank: int | None = None
    if sep:
        digits = rank_part[1:] if rank_part[:1] in ("R", "r") else rank_part
        try:
            rank = int(digits)
        except ValueError:
            raise ValueError(
                f"bad target in fault spec {spec!r} (want @RANK or @R<N>)"
            ) from None
        if rank < 0:
            raise ValueError(f"negative target in fault spec {spec!r}")
    parts = body.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"bad fault spec {spec!r} (want STAGE:KIND[:AT_HIT][@RANK])"
        )
    at_hit: int | None = None
    if len(parts) == 3:
        try:
            at_hit = int(parts[2])
        except ValueError:
            raise ValueError(f"bad AT_HIT in fault spec {spec!r}") from None
    try:
        return FaultRule(stage=parts[0], kind=parts[1], at_hit=at_hit, rank=rank)
    except ValueError as exc:
        raise ValueError(f"bad fault spec {spec!r}: {exc}") from None

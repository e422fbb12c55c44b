"""Equivalence guard: the one ``FaultPlan`` against the two engines it merged.

The checkpoint injector (``FaultInjector``), the collective rank-kill
plan (``FaultPlan``) and the retry policy (``RetryPolicy``) each had
their own class; they are kept below, code verbatim, as references.  A
seeded corpus of rule lists drives the merged plan and the references
with the same interleaved stream of checkpoint and collective visits and
asserts the same exceptions, the same victims, the same hit counts and
the same RNG draws.

The merged plan draws every ``at_hit=None`` rule in rule order before
any victim, so the references are built the way that order implies:
each reference gets its own seam's rules with the merged draw pinned,
and the collective reference continues the RNG right after those
draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import pytest

from repro.errors import (
    KSPTimeout,
    RankFailure,
    ReproError,
    UnreachableTargetError,
)
from repro.serve.faults import FaultPlan, InjectedFault, parse_fault_spec
from repro.serve.server import BACKOFF_BASE, BACKOFF_MULTIPLIER, MAX_ATTEMPTS

# ---------------------------------------------------------------------------
# references (code verbatim from the engines the merged plan replaced)
# ---------------------------------------------------------------------------

REF_FAULT_KINDS = ("timeout", "unreachable", "transient", "fatal", "rankfail")


@dataclass
class RefFaultRule:
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


class RefFaultInjector:
    def __init__(
        self, rules: list[RefFaultRule], *, seed: int | None = None
    ) -> None:
        rng = random.Random(seed)
        self.rules = list(rules)
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


class RefFaultPlan:
    def __init__(self, rules, *, seed: int | None = None) -> None:
        self.rules = list(rules)
        for r in self.rules:
            if r.kind != "rankfail":
                raise ValueError(
                    f"FaultPlan rules must have kind='rankfail', got {r.kind!r}"
                )
        self._rng = random.Random(seed)
        self.at_hits = [
            r.at_hit if r.at_hit is not None else self._rng.randint(1, r.max_hit)
            for r in self.rules
        ]
        self.hits = [0] * len(self.rules)
        self.fired: list[tuple[str, int, int]] = []

    def poll(self, stage: str, num_ranks: int, superstep: int) -> list[int]:
        victims: list[int] = []
        for i, rule in enumerate(self.rules):
            if not rule.matches(stage):
                continue
            self.hits[i] += 1
            first = self.at_hits[i]
            if first <= self.hits[i] < first + rule.times:
                rank = self._victim(rule, num_ranks)
                if rank is None:
                    continue  # rule targets a rank this job doesn't have
                victims.append(rank)
                self.fired.append((stage, rank, superstep))
        return victims

    def _victim(self, rule, num_ranks: int) -> int | None:
        if rule.rank is not None:
            rank = rule.rank
        elif getattr(rule, "replica", None) is not None:
            rank = rule.replica  # identity: replica i lives on rank i
        else:
            rank = self._rng.randrange(num_ranks)
        return rank if rank < num_ranks else None


def ref_parse_fault_spec(spec: str) -> RefFaultRule:
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
    if parts[1] not in REF_FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {parts[1]!r} (kinds: {', '.join(REF_FAULT_KINDS)})"
        )
    at_hit: int | None = None
    if len(parts) == 3:
        try:
            at_hit = int(parts[2])
        except ValueError:
            raise ValueError(f"bad AT_HIT in fault spec {spec!r}") from None
    return RefFaultRule(
        stage=parts[0], kind=parts[1], at_hit=at_hit, rank=rank, replica=replica
    )


@dataclass(frozen=True)
class RefRetryPolicy:
    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    jitter: float = 0.0

    def backoff(self, attempt: int, rng=None) -> float:
        delay = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


# ---------------------------------------------------------------------------
# the seeded corpus
# ---------------------------------------------------------------------------

#: rule stages: overlapping prefixes on both seams
RULE_STAGES = (
    "sssp",
    "sssp.dijkstra",
    "prune",
    "prune.scan",
    "serve.attempt",
    "dist.sssp",
    "dist.sssp.route",
    "fabric.heartbeat",
)
CHECKPOINT_LABELS = (
    "sssp.dijkstra",
    "sssp.delta",
    "prune.scan",
    "prune.masks",
    "serve.attempt",
    "dist.sssp",
    "OptYen",
)
COLLECTIVE_LABELS = (
    "dist.sssp.route",
    "dist.sssp.drain",
    "dist.sssp",
    "fabric.heartbeat",
    "fabric.mutate",
)
KINDS = ("timeout", "unreachable", "transient", "fatal", "rankfail", "rankfail")
CASES = 240
EVENTS = 80


def make_case(case: int):
    """``(specs, times, num_ranks, seed)`` for corpus entry ``case``."""
    rng = random.Random(case)
    specs, times = [], []
    for _ in range(rng.randint(1, 4)):
        spec = f"{rng.choice(RULE_STAGES)}:{rng.choice(KINDS)}"
        at_hit = rng.choice((None, 1, 3))
        if at_hit is not None:
            spec += f":{at_hit}"
        rank = rng.choice((None, 0, 2))
        if rank is not None:
            spec += rng.choice(("@", "@R")) + str(rank)
        specs.append(spec)
        times.append(rng.choice((1, 2)))
    return specs, times, rng.choice((3, 4)), rng.randrange(1 << 16)


def outcome(call):
    """``(exception type, message)`` of ``call()``, or ``None``."""
    try:
        call()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", range(CASES))
def test_merged_plan_matches_both_references(case):
    specs, times, num_ranks, seed = make_case(case)
    plan = FaultPlan(
        [replace(parse_fault_spec(s), times=n) for s, n in zip(specs, times)],
        seed=seed,
    )
    ref_rules = [
        replace(ref_parse_fault_spec(s), times=n) for s, n in zip(specs, times)
    ]

    # the at_hit draws: one RNG, rule order, every rule — as the injector drew
    ref_at_hits = RefFaultInjector(ref_rules, seed=seed).at_hits
    assert plan.at_hits == ref_at_hits
    pinned = [replace(r, at_hit=a) for r, a in zip(ref_rules, ref_at_hits)]
    checkpoint_idx = [i for i, r in enumerate(pinned) if r.kind != "rankfail"]
    collective_idx = [i for i, r in enumerate(pinned) if r.kind == "rankfail"]
    ref_injector = RefFaultInjector([pinned[i] for i in checkpoint_idx])
    ref_plan = RefFaultPlan([pinned[i] for i in collective_idx])
    # victims continue the RNG right after the at_hit draws
    ref_plan._rng = random.Random(seed)
    for rule in ref_rules:
        if rule.at_hit is None:
            ref_plan._rng.randint(1, rule.max_hit)

    stream = random.Random(seed ^ 0x5EED)
    superstep = 0
    for _ in range(EVENTS):
        if stream.random() < 0.5:
            label = stream.choice(CHECKPOINT_LABELS)
            assert outcome(lambda: plan(label)) == outcome(
                lambda: ref_injector(label)
            ), (specs, label)
        else:
            label = stream.choice(COLLECTIVE_LABELS)
            superstep += 1
            assert plan.poll(label, num_ranks, superstep) == ref_plan.poll(
                label, num_ranks, superstep
            ), (specs, label)

    assert [plan.hits[i] for i in checkpoint_idx] == ref_injector.hits
    assert [plan.hits[i] for i in collective_idx] == ref_plan.hits
    assert [f for f in plan.fired if len(f) == 2] == ref_injector.fired
    assert [f for f in plan.fired if len(f) == 3] == ref_plan.fired
    assert plan._rng.getstate() == ref_plan._rng.getstate()


def test_corpus_covers_the_rule_space():
    """The corpus exercises every axis the guard claims to cover."""
    seen = {
        "at_hit": set(), "times": set(), "rank": set(), "spelling": set(),
        "num_ranks": set(), "kinds": set(), "mixed": 0,
    }
    for case in range(CASES):
        specs, times, num_ranks, _ = make_case(case)
        rules = [ref_parse_fault_spec(s) for s in specs]
        seen["num_ranks"].add(num_ranks)
        seen["times"].update(times)
        for spec, rule in zip(specs, rules):
            seen["at_hit"].add(rule.at_hit)
            seen["rank"].add(rule.rank if rule.rank is not None else rule.replica)
            seen["kinds"].add(rule.kind)
            if "@" in spec:
                seen["spelling"].add("@R" if "@R" in spec else "@")
        kinds = {r.kind == "rankfail" for r in rules}
        seen["mixed"] += kinds == {True, False}
    assert seen["at_hit"] == {None, 1, 3}
    assert seen["times"] == {1, 2}
    assert seen["rank"] == {None, 0, 2}
    assert seen["spelling"] == {"@", "@R"}
    assert seen["num_ranks"] == {3, 4}
    assert seen["kinds"] == set(REF_FAULT_KINDS)
    assert seen["mixed"] >= 50


def test_constant_schedule_equals_the_default_policy():
    policy = RefRetryPolicy()
    assert MAX_ATTEMPTS == policy.max_attempts
    for attempt in (1, 2, 3):
        assert BACKOFF_BASE * BACKOFF_MULTIPLIER ** (attempt - 1) == policy.backoff(
            attempt
        )

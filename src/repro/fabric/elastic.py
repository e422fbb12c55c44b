"""Utilization-driven replica scaling for the serving fabric.

The policy is deliberately boring — hysteresis thresholds plus a
cooldown — because the point of this layer is determinism, not
cleverness: the decision at every heartbeat is a pure function of the
replica states and loads at that tick, so an MMPP burst schedule maps to
exactly one scale-event schedule per seed.

* **utilization** = total in-flight over active replicas / their total
  worker slots (queue depth excluded: queued work is *pressure*, and
  counting it would double-trigger);
* utilization > :data:`HIGH_WATER` for one tick → wake the lowest-id
  ``standby`` replica (state transfer takes :data:`SCALE_DELAY`
  simulated seconds before it turns ``active``);
* utilization < :data:`LOW_WATER` → drain the highest-id ``active``
  replica (never below ``min_replicas``); it finishes its in-flight
  queries and parks ``standby``;
* :data:`COOLDOWN_TICKS` heartbeats must pass between decisions, so one
  burst edge produces one decision, not a flap per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.replica import ACTIVE, STANDBY

__all__ = [
    "COOLDOWN_TICKS",
    "HIGH_WATER",
    "LOW_WATER",
    "SCALE_DELAY",
    "ElasticEvent",
    "ElasticPolicy",
]

#: scale up above this worker-slot utilization
HIGH_WATER = 0.8
#: scale down below this worker-slot utilization
LOW_WATER = 0.2
#: heartbeats that must pass between two decisions
COOLDOWN_TICKS = 2
#: simulated seconds of state transfer before a woken replica serves
SCALE_DELAY = 0.02


@dataclass(frozen=True)
class ElasticEvent:
    """One scaling decision, for the report's audit trail."""

    at: float
    action: str  #: ``"scale_up"`` | ``"scale_down"``
    replica: int
    utilization: float


class ElasticPolicy:
    """Hysteresis + cooldown scaling over a replica set."""

    def __init__(self, *, min_replicas: int = 1) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        self.min_replicas = min_replicas
        self._since_decision = COOLDOWN_TICKS  # allow a first-tick decision

    @staticmethod
    def utilization(replicas: dict, t: float) -> float:
        """Worker-slot utilization over active replicas at ``t``."""
        slots = 0
        busy = 0
        for rid in sorted(replicas):
            replica = replicas[rid]
            if replica.state == ACTIVE:
                slots += replica.workers
                busy += min(replica.load_at(t), replica.workers)
        return busy / slots if slots else 1.0

    def decide(self, replicas: dict, t: float) -> tuple[str, int] | None:
        """The decision for the heartbeat at ``t`` (``None`` = hold).

        Returns ``("scale_up", standby_id)`` or ``("scale_down",
        active_id)``.  The caller performs the transition; this method
        only picks it (and restarts the cooldown when it does).
        """
        self._since_decision += 1
        if self._since_decision <= COOLDOWN_TICKS:
            return None
        util = self.utilization(replicas, t)
        active = sorted(
            rid for rid, r in replicas.items() if r.state == ACTIVE
        )
        if util > HIGH_WATER:
            standby = sorted(
                rid for rid, r in replicas.items() if r.state == STANDBY
            )
            if standby:
                self._since_decision = 0
                return ("scale_up", standby[0])
        elif util < LOW_WATER and len(active) > self.min_replicas:
            self._since_decision = 0
            return ("scale_down", active[-1])
        return None

"""Arrival processes: *when* queries hit the server.

Three open-loop generators (arrivals keep coming regardless of how the
server is doing — the model for internet-facing traffic) plus the
closed-loop population spec (users wait for their answer and think
before asking again — the model for sessions; implemented by the
serving event loop, which is where completions live):

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate, the
  baseline open-loop model;
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process:
  exponential dwell times in a *low* and a *high* state, Poisson
  arrivals at the state's rate — the standard bursty-traffic model;
* :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose rate
  follows a sinusoid (day/night load), generated by Lewis–Shedler
  thinning against the peak rate;
* :class:`ClosedLoop` — ``users`` simulated users with exponential think
  times; in-flight queries can never exceed the population, which is the
  defining property (and the tested invariant) of closed-loop load.

Every generator draws from a caller-supplied ``random.Random`` — the
processes own no seeds, the serving loop does (see "The seeding contract" in
``docs/load_testing.md``).  Times are simulated seconds from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterator

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "ClosedLoop",
    "arrival_process",
]


class ArrivalProcess:
    """Base: a seeded stream of arrival instants on ``[0, horizon)``."""

    #: registry key (set by subclasses)
    kind = ""

    def arrivals(self, rng: Random, horizon: float) -> Iterator[float]:
        """Yield strictly increasing arrival times below ``horizon``."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run arrivals per second (capacity tables sort by this)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: interarrivals ~ Exp(rate)."""

    rate: float

    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0")

    def arrivals(self, rng: Random, horizon: float) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= horizon:
                return
            yield t

    def mean_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state MMPP: bursts of ``rate_high`` over a ``rate_low`` floor.

    The modulating chain starts in the low state; dwell time in each
    state is exponential with the given mean.  Within a state, arrivals
    are Poisson at the state's rate.  Because the exponential is
    memoryless, restarting the interarrival draw at a state switch
    leaves the within-state process exactly Poisson.
    """

    rate_low: float
    rate_high: float
    dwell_low: float
    dwell_high: float

    kind = "mmpp"

    def __post_init__(self) -> None:
        if min(self.rate_low, self.rate_high) <= 0:
            raise ValueError("rates must be > 0")
        if min(self.dwell_low, self.dwell_high) <= 0:
            raise ValueError("dwell means must be > 0")

    def phases(self, rng: Random, horizon: float) -> Iterator[tuple[float, float, float]]:
        """The modulating chain as ``(start, end, rate)`` segments.

        Exposed so the dwell-time statistics are testable independently
        of the arrival stream.
        """
        t = 0.0
        high = False
        while t < horizon:
            dwell_mean = self.dwell_high if high else self.dwell_low
            end = min(horizon, t + rng.expovariate(1.0 / dwell_mean))
            yield t, end, self.rate_high if high else self.rate_low
            t = end
            high = not high

    def arrivals(self, rng: Random, horizon: float) -> Iterator[float]:
        for start, end, rate in self.phases(rng, horizon):
            t = start
            while True:
                t += rng.expovariate(rate)
                if t >= end:
                    break
                yield t

    def mean_rate(self) -> float:
        # long-run state occupancy is proportional to the dwell means
        total = self.dwell_low + self.dwell_high
        return (
            self.rate_low * self.dwell_low + self.rate_high * self.dwell_high
        ) / total


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoid-modulated Poisson: rate(t) = base·(1 + amp·sin(2πt/period)).

    Generated by thinning: draw a homogeneous stream at the peak rate
    ``base·(1 + amp)`` and accept each point with probability
    ``rate(t) / peak`` — exact for any bounded rate function.
    """

    base_rate: float
    amplitude: float
    period: float

    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.period <= 0:
            raise ValueError("base_rate and period must be > 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")

    def rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def arrivals(self, rng: Random, horizon: float) -> Iterator[float]:
        peak = self.base_rate * (1.0 + self.amplitude)
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= horizon:
                return
            if rng.random() * peak <= self.rate_at(t):
                yield t

    def mean_rate(self) -> float:
        return self.base_rate  # the sinusoid averages out over a period


@dataclass(frozen=True)
class ClosedLoop:
    """A closed-loop user population (interpreted by the serving loop).

    Each of ``users`` simulated users loops issue → wait for the answer
    → think (exponential, mean ``think_mean``) → issue again; a user
    whose query was shed or expired backs off for one think time.
    Initial wake-ups are spread uniformly over one mean think time so a
    million users don't all fire at t=0.

    Not an :class:`ArrivalProcess`: arrival times depend on completion
    times, so the schedule only exists inside the serving loop.
    """

    users: int
    think_mean: float

    kind = "closed"

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.think_mean <= 0:
            raise ValueError("think_mean must be > 0")

    def mean_rate(self) -> float:
        """Offered load if service were instant: users / think_mean."""
        return self.users / self.think_mean


#: CLI / run-table spec names → constructor
ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "mmpp": MMPPArrivals,
    "diurnal": DiurnalArrivals,
    "closed": ClosedLoop,
}


def arrival_process(spec: dict) -> ArrivalProcess | ClosedLoop:
    """Build a traffic pattern from a plain-dict spec.

    >>> arrival_process({"kind": "poisson", "rate": 50.0})
    PoissonArrivals(rate=50.0)

    The dict form is what run tables and ``peek-load`` serialize; keys
    other than ``kind`` are the dataclass fields.
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown traffic kind {kind!r}; choose from {sorted(ARRIVAL_KINDS)}"
        ) from None
    return cls(**spec)

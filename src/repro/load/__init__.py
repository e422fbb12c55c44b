"""Workload generation and capacity experiments on simulated time.

The load layer answers "what happens to this serving configuration
under *that* traffic?" reproducibly: arrival processes and query mixes
(:mod:`~repro.load.arrivals`, :mod:`~repro.load.mixes`) feed the
discrete-event serving loop (:class:`~repro.fabric.fabric.ServingFabric`)
that drives a real :class:`~repro.serve.QueryServer` on a
:class:`~repro.load.simclock.SimClock`, :mod:`~repro.load.harness` holds
the run records, and the experiment runner (:mod:`~repro.load.runner`)
sweeps run tables into ``BENCH_serving.json``.  See
``docs/load_testing.md``.
"""

from repro.load.arrivals import (
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    arrival_process,
)
from repro.load.harness import QueryLog
from repro.load.mixes import HotspotMix, KSampler, QueryMix, UniformMix, make_mix
from repro.load.runner import RunTable, ServerConfig, capacity_summary, run_table
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.load.trace import dump_trace, load_trace, record_open_loop

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "ClosedLoop",
    "arrival_process",
    "QueryMix",
    "UniformMix",
    "HotspotMix",
    "KSampler",
    "make_mix",
    "SimClock",
    "CostModel",
    "virtual_time",
    "QueryLog",
    "RunTable",
    "ServerConfig",
    "run_table",
    "capacity_summary",
    "dump_trace",
    "load_trace",
    "record_open_loop",
]

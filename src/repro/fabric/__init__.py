"""The serving fabric: replicated, sharded KSP serving that survives kills.

``repro.fabric`` composes the layers the previous milestones built —
deadline-aware :class:`~repro.serve.QueryServer` replicas (PR 4/7), the
BSP-accounted :class:`~repro.distributed.comm.SimComm` substrate with
seeded :class:`~repro.distributed.comm.FaultPlan` kills and the
checksummed :class:`~repro.distributed.checkpoint.CheckpointStore`
(PR 5), virtual-clock load generation (PR 8) and live graphs with
snapshot versions (PR 9) — into one coordination layer:

* :class:`~repro.fabric.ring.HashRing` /
  :class:`~repro.fabric.router.Router` — consistent-hash query placement
  with the bounded-load variant, so hot shards spill deterministically;
* :class:`~repro.fabric.replica.Replica` — one server plus its station
  bookkeeping and serving-state machine;
* :class:`~repro.fabric.supervisor.FabricSupervisor` — per-shard
  checkpoint/restore over the CRC-verified store;
* :class:`~repro.fabric.elastic.ElasticPolicy` — utilization-driven
  scale up/down under bursty (MMPP) load;
* :class:`~repro.fabric.fabric.ServingFabric` — the repo's one
  deterministic serving loop, tying heartbeats, kills, hedged retries,
  recoveries, mutations and open- or closed-loop queries onto one
  simulated timeline, for a fleet of one replica or more.  Every
  replica is built by one recipe,
  :class:`~repro.load.runner.ServerConfig`.

Everything is a pure function of the seeds: two runs of the same
configuration produce byte-identical reports (the CI ``fabric-faults``
job asserts this with ``cmp``).  See ``docs/fabric.md`` for the topology
and the recovery timeline.
"""

from repro.fabric.elastic import ElasticEvent, ElasticPolicy
from repro.fabric.fabric import (
    FabricConfig,
    FabricReport,
    KillRecord,
    ServingFabric,
    report_row,
    slo_text,
)
from repro.fabric.replica import REPLICA_STATES, Replica
from repro.fabric.ring import HashRing
from repro.fabric.router import Router, ShardMap
from repro.fabric.supervisor import FabricSupervisor

__all__ = [
    "HashRing",
    "ShardMap",
    "Router",
    "Replica",
    "REPLICA_STATES",
    "FabricSupervisor",
    "ElasticPolicy",
    "ElasticEvent",
    "FabricConfig",
    "KillRecord",
    "FabricReport",
    "ServingFabric",
    "report_row",
    "slo_text",
]

"""Shard-aware query placement with consistent hashing and bounded load.

``ShardMap`` reuses the distributed layer's edge-balanced 1-D
:class:`~repro.distributed.partition.RowPartition` to assign every
vertex to a *shard*; a query belongs to the shard of its source vertex.
``Router`` then places the shard on a replica by walking the shard's
:class:`~repro.fabric.ring.HashRing` preference list under the
**bounded-load** rule (Mirrokni–Thorup–Zadimoghaddam, "consistent
hashing with bounded loads"): a replica may take the query only while
its in-flight count is below

    cap = ceil(LOAD_FACTOR · (total_in_flight + 1) / routable_replicas)

so a hot shard *spills* down its preference list — deterministically,
because the list, the loads, and the walk order are all pure functions
of the run's seeds — instead of melting its home replica while the rest
idle.  A second pass under each replica's hard capacity (workers +
queue depth) is the router-level admission control: when that fails too
the query is shed at the router, before any replica burns work on it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributed.partition import RowPartition
from repro.fabric.ring import HashRing

__all__ = ["LOAD_FACTOR", "ShardMap", "Router"]

#: bounded-load factor c (1 = perfectly even; Google's canonical 1.25)
LOAD_FACTOR = 1.25


class ShardMap:
    """Vertex → shard assignment (an edge-balanced ``RowPartition``)."""

    def __init__(self, graph, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.partition = RowPartition.build(graph, num_shards)

    def shard_of(self, vertex: int) -> int:
        return int(
            self.partition.owner_of(np.asarray([vertex], dtype=np.int64))[0]
        )

    def shard_range(self, shard: int) -> tuple[int, int]:
        """The vertex range ``[lo, hi)`` shard ``shard`` covers."""
        return self.partition.local_range(shard)

    def shards_touching(self, vertices) -> list[int]:
        """Sorted shard ids owning any of ``vertices`` (mutation routing)."""
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size == 0:
            return []
        return sorted(set(self.partition.owner_of(vs).tolist()))


class Router:
    """Bounded-load consistent-hash placement over live replicas."""

    def __init__(self, ring: HashRing, replicas: dict) -> None:
        self.ring = ring
        #: replica id -> :class:`~repro.fabric.replica.Replica`
        self.replicas = replicas
        #: placements that spilled past the shard's home replica
        self.spills = 0
        #: placements refused (router-level admission control)
        self.rejected = 0
        #: preference lists are static per ring membership — cache them
        self._pref: dict[int, list[int]] = {}

    def preference(self, shard: int) -> list[int]:
        pref = self._pref.get(shard)
        if pref is None:
            pref = self.ring.preference(f"shard{shard}")
            self._pref[shard] = pref
        return pref

    def place(self, shard: int, t: float) -> int | None:
        """Pick the replica to serve a ``shard`` query arriving at ``t``.

        Returns the replica id, or ``None`` to shed.  Walks the shard's
        preference list twice: first under the bounded-load cap (even
        spread, deterministic spill), then under hard capacity only (a
        loaded fabric still prefers queueing near home over shedding).
        """
        routable = [
            r for rid in self.preference(shard)
            if (r := self.replicas[rid]).routable
        ]
        if not routable:
            self.rejected += 1
            return None
        loads = [r.load_at(t) for r in routable]
        total = sum(loads)
        cap = math.ceil(LOAD_FACTOR * (total + 1) / len(routable))
        for pos, (replica, load) in enumerate(zip(routable, loads)):
            if load < min(cap, replica.slots):
                if pos > 0:
                    self.spills += 1
                return replica.id
        for pos, (replica, load) in enumerate(zip(routable, loads)):
            if load < replica.slots:
                if pos > 0:
                    self.spills += 1
                return replica.id
        self.rejected += 1
        return None

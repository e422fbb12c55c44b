"""Consistent hashing for shard → replica placement.

The ring maps every provisioned replica to :data:`VNODES` pseudo-random
positions on a 32-bit circle; a shard's *preference list* is the
sequence of distinct replicas encountered walking clockwise from the
shard's own position.  Two properties the router relies on:

* **stability** — adding or removing one replica moves only the shards
  whose preference prefix passed through that replica's vnodes, so a
  scale event does not reshuffle the whole placement (and therefore
  does not cold-start every replica's SSSP cache);
* **determinism** — positions are ``zlib.crc32`` of printable keys, not
  Python's salted ``hash()``, so the placement is identical across
  processes and runs (the byte-identity contract of every report).

The ring itself is membership-only: it never knows which replicas are
alive.  Liveness filtering and the bounded-load capacity rule live in
:class:`~repro.fabric.router.Router`, which walks the preference list.
"""

from __future__ import annotations

import bisect
import zlib

__all__ = ["HashRing", "VNODES"]

#: ring positions per replica
VNODES = 64


def _position(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


class HashRing:
    """A consistent-hash ring over integer replica ids."""

    def __init__(self, members) -> None:
        members = sorted(set(int(m) for m in members))
        if not members:
            raise ValueError("a hash ring needs at least one member")
        self.members = members
        points: list[tuple[int, int]] = []
        for m in members:  # contracts: disable=CTR201 (bounded)
            for v in range(VNODES):
                points.append((_position(f"replica{m}#{v}"), m))
        # CRC collisions between vnode keys are possible in principle;
        # the member id tiebreak keeps the walk order total and stable
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def __len__(self) -> int:
        return len(self.members)

    def preference(self, key: str, limit: int | None = None) -> list[int]:
        """Distinct members in clockwise order from ``key``'s position.

        The full list is a permutation of ``members``; ``limit`` truncates
        it.  This is the classic "walk the ring" successor list — entry 0
        is the shard's home replica, the rest are its spill order.
        """
        want = len(self.members) if limit is None else min(limit, len(self.members))
        start = bisect.bisect_right(self._positions, _position(key))
        seen: set[int] = set()
        order: list[int] = []
        n = len(self._points)
        for i in range(n):
            member = self._points[(start + i) % n][1]
            if member not in seen:
                seen.add(member)
                order.append(member)
                if len(order) == want:
                    break
        return order

    def owner(self, key: str) -> int:
        """The home member for ``key`` (preference entry 0)."""
        return self.preference(key, limit=1)[0]

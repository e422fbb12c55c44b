"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same work runs at very different speeds from minute to
minute: a fixed K=8 query pool ran at 78 ms per query and, a few minutes
later, at 125 ms, and a K=128 pool at 150 ms and at 320 ms. No run length
averages out drift that slow, so every timing the benchmark reports is
normalised by the host's current speed, measured with this kernel.

The kernel is a SciPy Dijkstra over a fixed sparse random graph: irregular
memory access in compiled code, the kind of work that dominates a PeeK
query. Its input is fixed and it calls nothing in ``repro``, so a change to
the program never changes the kernel's own work; only the host's speed
does. Over 25 s windows of an 8-minute run in which the host's speed
changed by a factor of 1.9, the median K=8 and K=128 query latency moved by
17-20 % (coefficient of variation), and its ratio to this kernel's time by
3-4.5 %. A NumPy scatter/gather kernel tracked the queries slightly worse,
and a pure-Python heap loop (7 %) clearly worse, so neither is mixed in.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: the speed every timing is normalised to: a timing reads as it would on a
#: host where one run of the kernel takes REF_MS, that is ``raw * REF_MS /
#: measured``. A round figure near the kernel's time on a quiet host of the
#: kind the benchmark was tuned on (2 vCPUs of an Intel Xeon): 5.0 ms there.
REF_MS = 5.0
#: the timed phase runs the kernel once per this much wall time
EVERY_S = 0.5


class HostRef:
    """The reference kernel and its fixed input."""

    def __init__(self) -> None:
        n, m = 16_000, 160_000
        rng = np.random.default_rng(20231112)
        edges = (rng.integers(0, n, m), rng.integers(0, n, m))
        self.graph = csr_matrix((rng.random(m) + 0.1, edges), shape=(n, n))
        self.last = -float("inf")

    def run(self) -> None:
        dijkstra(self.graph, indices=0)

    def sample(self, into: list[float]) -> None:
        """Time one run of the kernel into ``into``.

        The run before it brings the kernel's inputs back into the caches,
        so the sample measures the host's speed rather than how much of the
        caches the program's last query took over.
        """
        self.run()
        t0 = time.perf_counter()
        self.run()
        t1 = time.perf_counter()
        into.append(t1 - t0)
        self.last = t1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= EVERY_S


def factor(samples: list[float]) -> float:
    """Multiplier that takes a timing measured beside ``samples`` to REF_MS speed."""
    return REF_MS / (statistics.median(samples) * 1e3)

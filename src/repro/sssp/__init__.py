"""Single-source shortest path kernels.

Four kernels with one result contract (:class:`SSSPResult`):

* :mod:`repro.sssp.dijkstra` — binary-heap Dijkstra; the workhorse used
  inside every KSP algorithm (supports target early-stop and banned
  vertices/edges for Yen-style deviations; banned vertices are a
  collection of ids).  One scalar loop, always run
  on an :class:`SSSPWorkspace` — the caller's, or a throwaway one — plus
  :func:`dijkstra_tree`, its compiled full-tree twin (SciPy, pinned
  bitwise to the loop), which PeeK's pruning stage runs by default.
* :mod:`repro.sssp.delta_stepping` — Meyer–Sanders Δ-stepping, the
  "parallel SSSP" of the paper; a frontier-centric bucket driver with
  two bitwise-equivalent relax engines selected by ``backend=``
  (``"vectorized"`` numpy frontier kernel, the default, and ``"scalar"``,
  the per-edge reference loop).  Emits a per-phase work log for the
  parallel simulator.  It takes no vertex mask: a status-array
  compaction view drops vertices through the traversal protocol.
* :mod:`repro.sssp.bellman_ford` — reference implementation for tests.
* :mod:`repro.sssp.lazy_dijkstra` — pausable/resumable Dijkstra used by the
  SB* algorithm's SSSP-reuse optimisation (bans, too, are vertex ids).
* :mod:`repro.sssp.repair` — carries a compiled tree across one live-graph
  mutation batch, recomputing only what the batch changed.

Plus the reuse layer the KSP hot path is built on:

* :mod:`repro.sssp.workspace` — epoch-stamped :class:`SSSPWorkspace` state
  that ``dijkstra(..., workspace=...)`` reuses across back-to-back queries,
  making per-query setup O(1) instead of O(n).
"""

from repro.sssp.result import SSSPResult, SSSPStats
from repro.sssp.workspace import SSSPWorkspace, WorkspaceResult
from repro.sssp.dijkstra import dijkstra, dijkstra_tree
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.bellman_ford import bellman_ford
from repro.sssp.lazy_dijkstra import LazyDijkstra

__all__ = [
    "SSSPResult",
    "SSSPStats",
    "SSSPWorkspace",
    "WorkspaceResult",
    "dijkstra",
    "dijkstra_tree",
    "delta_stepping",
    "bellman_ford",
    "LazyDijkstra",
]

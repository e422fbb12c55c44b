"""PeeK's core: K-upper-bound pruning, adaptive compaction, the driver.

* :mod:`repro.core.pruning` — Algorithm 2: two SSSPs, the ``spSum`` array,
  validated K-th-distance upper bound, vertex/edge pruning.
* :mod:`repro.core.validation` — the combined-path validity check
  (Figure 3(e)'s loop detection) with hash-set O(1) membership.
* :mod:`repro.core.compaction` — the three compaction strategies of §5
  (status array, edge swap, regeneration) and the adaptive α-rule.
* :mod:`repro.core.batch` — ``prepare_remnant``, the one compact →
  remnant-solver stage every front end shares, and batched PeeK.
* :mod:`repro.core.peek` — the PeeK pipeline: prune → compact → KSP.
* :mod:`repro.core.integrate` — PeeK's pipeline in front of any registry
  algorithm.
"""

from repro.core.pruning import PruneResult, k_upper_bound_prune
from repro.core.compaction import (
    StatusArrayView,
    EdgeSwapView,
    RegeneratedGraph,
    CompactionResult,
    adaptive_compact,
    compact_status_array,
    compact_edge_swap,
    compact_regenerate,
)
from repro.core.peek import PeeK, PeeKResult, peek_ksp

__all__ = [
    "PruneResult",
    "k_upper_bound_prune",
    "StatusArrayView",
    "EdgeSwapView",
    "RegeneratedGraph",
    "CompactionResult",
    "adaptive_compact",
    "compact_status_array",
    "compact_edge_swap",
    "compact_regenerate",
    "PeeK",
    "PeeKResult",
    "peek_ksp",
]

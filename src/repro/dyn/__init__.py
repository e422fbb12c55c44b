"""Dynamic graphs: the Terrace container (Fig 12) and live-graph serving.

:class:`TerraceGraph` is the hierarchical container of Fig 12;
:class:`LiveGraph` is a CSR snapshot of monotone version plus an alive
mask, updated with Terrace's semantics;
:class:`MutationBatch` / :class:`IncidentStream` are the mutation-stream
API the serving loop feeds through
:meth:`QueryServer.apply_mutations <repro.serve.QueryServer.apply_mutations>`.
"""

from repro.dyn.live import LiveGraph, Snapshot
from repro.dyn.stream import IncidentStream, MutationBatch, MutationSummary
from repro.dyn.terrace import TerraceGraph

__all__ = [
    "TerraceGraph",
    "LiveGraph",
    "Snapshot",
    "MutationBatch",
    "MutationSummary",
    "IncidentStream",
]

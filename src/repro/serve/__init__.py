"""The deadline-aware serving layer (see ``docs/serving.md``).

:class:`QueryServer` is the production front end over
:class:`~repro.core.batch.BatchPeeK`: every query carries a real time
budget that all pipeline stages observe cooperatively, and every query
gets a defined outcome — ``complete``, ``degraded`` (exact results via the
plain-OptYen fallback), ``partial`` (an exact prefix of the K list), or
``failed`` — instead of an unbounded hang or an exception from deep inside
a kernel.

:mod:`repro.serve.faults` is the deterministic fault-injection harness the
degradation paths are tested with: one seeded :class:`FaultPlan` fires
stage faults at checkpoints and rank kills at
:class:`~repro.distributed.comm.SimComm` collectives.
"""

from repro.serve.faults import FaultPlan, FaultRule, InjectedFault
from repro.serve.query import Query, validate_query
from repro.serve.server import (
    COMPLETE,
    DEGRADED,
    FAILED,
    OUTCOMES,
    PARTIAL,
    QueryServer,
    ServeResult,
)

__all__ = [
    "Query",
    "validate_query",
    "QueryServer",
    "ServeResult",
    "OUTCOMES",
    "COMPLETE",
    "DEGRADED",
    "PARTIAL",
    "FAILED",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
]

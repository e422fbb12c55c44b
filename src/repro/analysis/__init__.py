"""Correctness tooling: static analysis, runtime sanitizers, race detection.

Three legs, one shared :class:`~repro.analysis.findings.Finding` record
(see ``docs/correctness_tooling.md`` for the full catalogue):

* :mod:`repro.analysis.contracts` — the static analyzer: interprocedural
  rules CTR101–CTR501 and module-local rules RPR001–RPR005
  (``python -m repro.analysis.contracts src/repro`` or the
  ``repro-contracts`` console script);
* :mod:`repro.analysis.sanitize` — runtime invariant checks enabled by
  ``repro.solve(..., sanitize=True)`` or ``RPR_SANITIZE=1``;
* :mod:`repro.analysis.race` — vector-clock race detection over declared
  phase footprints of the parallel/distributed simulators.
"""

from repro.analysis.findings import (
    Finding,
    findings_to_json,
    render_findings,
)
from repro.analysis.race import (
    DeltaSteppingFootprints,
    RaceDetector,
    check_workload,
)
from repro.analysis.sanitize import run_sanitized, sanitize_enabled_from_env

__all__ = [
    "Finding",
    "render_findings",
    "findings_to_json",
    "RaceDetector",
    "DeltaSteppingFootprints",
    "check_workload",
    "run_sanitized",
    "sanitize_enabled_from_env",
]

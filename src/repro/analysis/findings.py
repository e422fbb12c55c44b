"""The common finding record shared by every correctness tool.

The three legs of :mod:`repro.analysis` — the static analyzer, the runtime
sanitizer, and the simulated-race detector — all report through one
structured :class:`Finding` type, so a CI job, a test helper, or a human
reading a terminal sees the same shape regardless of which tool spoke:

    src/repro/ksp/yen.py:42:8: RPR003 error [contracts] np.zeros(...) inside ...

Nothing here imports the rest of the library — the analyzer CLI must be
runnable on a tree that does not import cleanly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "Finding",
    "SEVERITIES",
    "render_findings",
    "findings_to_json",
]

#: Recognised severities, most severe first.
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from a correctness tool.

    Attributes
    ----------
    tool:
        Which leg produced it: ``"contracts"``, ``"sanitize"`` or ``"race"``.
    rule:
        Stable identifier — an analyzer rule id (``CTR201``,
        ``RPR001``...), a sanitizer check id (``SAN-...``), or a race
        class (``RACE-WW`` / ``RACE-RW``).
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable description naming the offending object (vertex,
        edge, expression) so the report is actionable without re-running.
    path, line, column:
        Source location for static findings (``None`` for runtime findings).
    context:
        Free-form extra detail — the conflicting tasks of a race, the
        resource key, the epoch numbers of a stale workspace read.
    """

    tool: str
    rule: str
    severity: str
    message: str
    path: str | None = None
    line: int | None = None
    column: int | None = None
    context: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format(self) -> str:
        """One-line rendering: ``path:line:col: RULE severity [tool] message``."""
        loc = ""
        if self.path is not None:
            loc = self.path
            if self.line is not None:
                loc += f":{self.line}"
                if self.column is not None:
                    loc += f":{self.column}"
            loc += ": "
        return f"{loc}{self.rule} {self.severity} [{self.tool}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready dict (``context`` preserved verbatim)."""
        return asdict(self)


def render_findings(findings, *, header: str | None = None) -> str:
    """Multi-line text report, stable order (path, line, rule)."""
    items = sorted(
        findings,
        key=lambda f: (f.path or "", f.line or 0, f.column or 0, f.rule),
    )
    lines = [f.format() for f in items]
    if header is not None:
        lines.insert(0, header)
    return "\n".join(lines)


def findings_to_json(findings) -> str:
    """The findings as a JSON array (the analyzer CLI's ``--format json``)."""
    return json.dumps([f.to_dict() for f in findings], indent=2)

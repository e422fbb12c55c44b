"""The pass catalogue and the context handed to every pass.

Each pass is a module exposing ``run(ctx) -> list[Finding]``; the
context carries the whole parsed project and its call graph, so a pass
reads whichever of the two it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.contracts import (
    cancellation,
    determinism,
    entrypoints,
    footprints,
    local,
    spans,
)
from repro.analysis.contracts.callgraph import CallGraph
from repro.analysis.contracts.config import ContractConfig
from repro.analysis.contracts.model import Project

__all__ = ["PassContext", "PassInfo", "PASSES", "RULES"]


@dataclass
class PassContext:
    project: Project
    graph: CallGraph
    config: ContractConfig


@dataclass(frozen=True)
class PassInfo:
    pass_id: str
    title: str
    rules: tuple[str, ...]
    run: object  # run(ctx) -> list[Finding]


PASSES: tuple[PassInfo, ...] = (
    PassInfo(
        "determinism",
        "determinism discipline",
        ("CTR101", "CTR102", "CTR103"),
        determinism.run,
    ),
    PassInfo(
        "cancellation",
        "cancellation coverage",
        ("CTR201",),
        cancellation.run,
    ),
    PassInfo(
        "spans",
        "interprocedural span pairing",
        ("CTR301",),
        spans.run,
    ),
    PassInfo(
        "footprints",
        "static footprint audit",
        ("CTR401", "CTR402"),
        footprints.run,
    ),
    PassInfo(
        "entrypoints",
        "entry-point contracts",
        ("CTR501",),
        entrypoints.run,
    ),
    PassInfo(
        "local",
        "module-local rules",
        ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"),
        local.run,
    ),
)

#: rule id → one-line description (drives --list-rules and SARIF metadata)
RULES: dict[str, str] = {
    "CTR101": "entry-reachable use of module-level RNG state",
    "CTR102": "wall-clock read outside the injectable clock module",
    "CTR103": "RNG object stored in a module global",
    "CTR201": "unbounded loop reachable from solve()/serve() never checkpoints",
    "CTR301": "manually opened span not closed on every CFG path",
    "CTR401": "parallel phase writes a shared array its recorder never declares",
    "CTR402": "recorder declares a write no audited phase performs",
    "CTR501": "public entry reaches kernel code before validate_query()",
    "RPR001": "CSRGraph backing array mutated outside repro/graph/ and compaction",
    "RPR002": "Tracer.span used outside a `with` statement (repro/obs/ exempt)",
    "RPR003": "O(n) numpy allocation inside a loop on the hot path",
    "RPR004": "float cost or time compared with == / != (use costs_close)",
    "RPR005": "registry alias is not a thin alias of repro.solve",
}

"""Orchestration: load → call graph → passes → suppression.

Every run parses every module, builds the call graph, runs the six
passes over the whole project, and drops findings silenced by a
``# contracts: disable=`` pragma.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.contracts.callgraph import build_callgraph
from repro.analysis.contracts.config import ContractConfig, default_config
from repro.analysis.contracts.model import Project, load_project
from repro.analysis.contracts.registry import PASSES, PassContext
from repro.analysis.findings import Finding

__all__ = ["AnalysisResult", "analyze_paths"]


@dataclass
class AnalysisResult:
    findings: list[Finding]
    suppressed: int
    stats: dict
    project: Project


def _suppress(findings, project) -> tuple[list[Finding], int]:
    """Apply ``# contracts: disable=`` pragmas; returns kept + suppressed count."""
    by_module = project.by_module()
    kept: list[Finding] = []
    suppressed = 0
    for f in findings:
        module = str(f.context.get("module", ""))
        mod = by_module.get(module)
        rules = (
            mod.disabled.get(f.line, frozenset())
            if mod is not None and f.line is not None
            else frozenset()
        )
        if f.rule in rules or "ALL" in rules:
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


def _count_loops(project) -> int:
    n = 0
    for fn in project.functions():
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                n += 1
    return n


def _sort_key(f: Finding):
    return (f.path or "", f.line or 0, f.column or 0, f.rule, f.message)


def analyze_paths(paths, *, config: ContractConfig | None = None) -> AnalysisResult:
    """Run every pass over ``paths`` and apply the suppression pragmas."""
    config = config or default_config()
    project = load_project(paths)
    for mod in project.modules:
        if mod.syntax_error:
            raise SyntaxError(f"{mod.path}: {mod.syntax_error}")
    graph = build_callgraph(project, config)
    ctx = PassContext(project=project, graph=graph, config=config)

    findings: list[Finding] = []
    for info in PASSES:
        # a bare-name call: the call graph resolves `info.run(...)` to
        # every method named `run`, the KSP solvers' included, and would
        # report this CLI path as reaching kernel code unvalidated
        run_pass = info.run
        findings.extend(run_pass(ctx))
    findings, suppressed = _suppress(findings, project)
    findings.sort(key=_sort_key)
    rule_counts: dict[str, int] = {}
    for f in findings:
        rule_counts[f.rule] = rule_counts.get(f.rule, 0) + 1
    pass_of_rule = {r: info.pass_id for info in PASSES for r in info.rules}
    pass_counts = {info.pass_id: 0 for info in PASSES}
    for f in findings:
        pass_counts[pass_of_rule.get(f.rule, "other")] = (
            pass_counts.get(pass_of_rule.get(f.rule, "other"), 0) + 1
        )
    stats = {
        "modules": len(project.modules),
        "functions": sum(1 for _ in project.functions()),
        "loops": _count_loops(project),
        "call_edges": sum(len(v) for v in graph.edges.values()),
        "registry_factories": len(graph.registry_factories),
        "entry_points": len(graph.entry_keys),
        "findings": len(findings),
        "suppressed": suppressed,
        "by_rule": {k: rule_counts[k] for k in sorted(rule_counts)},
        "by_pass": pass_counts,
    }
    return AnalysisResult(
        findings=findings,
        suppressed=suppressed,
        stats=stats,
        project=project,
    )

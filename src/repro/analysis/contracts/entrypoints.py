"""Pass 5 — entry-point contracts (CTR501).

Every public door into the system — ``solve()``, ``serve()``, the CLI
``main``s — must reach :func:`repro.serve.query.validate_query` before
any KSP kernel code runs.  The kernels index raw arrays with the query's
vertices; validation is the only thing standing between a malformed
request and an out-of-bounds read three frames deep.

The check is a forward *must* dataflow over each entry's CFG: a
``validated`` bit starts ``False``, is set by a statement that calls a
validator (or a callee whose summary says it validates on every normal
return), and is met with AND at joins — a query validated on only one
branch is not validated.  Kernel touches are calls into a
``kernel_prefixes`` module or into a callee summarised as touching the
kernel while unvalidated; summaries are computed over the call graph to
a fixpoint, so ``main → run_experiment → time_run → make_algorithm``
is traced through three hops and reported at the entry's offending
call site.
"""

from __future__ import annotations

import ast

from repro.analysis.contracts.cfg import ENTRY, EXIT, build_cfg, own_region
from repro.analysis.findings import Finding

__all__ = ["run", "compute_validation_summaries", "NONE", "VALIDATES", "TOUCHES"]

NONE = "none"
VALIDATES = "validates"
TOUCHES = "touches"

_MAX_ROUNDS = 25


def _is_kernel(module: str, config) -> bool:
    return module.startswith(tuple(config.kernel_prefixes))


def _stmt_sites(stmt: ast.stmt, fn):
    site_by_node = {site.node: site for site in fn.calls}
    for root in own_region(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                site = site_by_node.get(node)
                if site is not None:
                    yield site


def _classify_nodes(cfg, fn, ctx, summaries):
    """Per CFG node: (validating, touching, touch_label)."""
    info: dict[int, tuple[bool, bool, str | None]] = {}
    for nid, stmt in cfg.stmts.items():
        validating = False
        touching = False
        label: str | None = None
        for site in _stmt_sites(stmt, fn):
            if site.name in ctx.config.validator_names:
                validating = True
                continue
            callees = ctx.graph.resolve(fn, site)
            for callee in callees:
                callee_fn = ctx.graph.by_key.get(callee)
                if callee_fn is not None and _is_kernel(
                    callee_fn.module.module, ctx.config
                ):
                    touching = True
                    label = label or site.name or callee_fn.name
                elif summaries.get(callee) == TOUCHES:
                    touching = True
                    label = label or site.name or (
                        callee_fn.name if callee_fn else callee
                    )
            if callees and all(
                summaries.get(c) == VALIDATES for c in callees
            ):
                validating = True
        info[nid] = (validating, touching, label)
    return info


def _dataflow(cfg, node_info):
    """Must-validated bit per node entry; returns ``in`` map."""
    preds: dict[int, set[int]] = {}
    for a, succs in cfg.succ.items():
        for b in succs:
            preds.setdefault(b, set()).add(a)
    nodes = set(cfg.stmts) | {ENTRY, EXIT}
    in_map = {n: True for n in nodes}
    in_map[ENTRY] = False
    out_map: dict[int, bool] = {}

    def out_of(n: int) -> bool:
        if n == ENTRY:
            return False
        validating = node_info.get(n, (False, False, None))[0]
        return in_map[n] or validating

    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == ENTRY:
                continue
            ps = preds.get(n, set())
            new_in = all(out_of(p) for p in ps) if ps else False
            if new_in != in_map[n]:
                in_map[n] = new_in
                changed = True
    for n in nodes:
        out_map[n] = out_of(n)
    return in_map, out_map


def _analyze_function(fn, ctx, summaries):
    """(summary, violations) for one non-kernel function.

    Violations are ``(stmt, label)`` pairs: kernel touches executed while
    the validated bit may still be False — i.e. when the function itself
    is entered unvalidated, which is exactly an entry's situation.
    """
    cfg = build_cfg(fn.node)
    node_info = _classify_nodes(cfg, fn, ctx, summaries)
    in_map, _ = _dataflow(cfg, node_info)
    violations = []
    for nid, (validating, touching, label) in node_info.items():
        if touching and not validating and not in_map.get(nid, False):
            violations.append((cfg.stmts[nid], label))
    if violations:
        return TOUCHES, violations
    validating_nodes = {
        n for n, (v, _, _) in node_info.items() if v
    }
    starts = set(cfg.succ.get(ENTRY, ()))
    escaped = cfg.paths_avoid(starts, validating_nodes)
    if validating_nodes and EXIT not in escaped:
        return VALIDATES, []
    return NONE, []


def compute_validation_summaries(ctx) -> dict[str, str]:
    """Fixpoint NONE/VALIDATES/TOUCHES summary per function key."""
    summaries: dict[str, str] = {}
    analyzed: list = []
    for fn in ctx.project.functions():
        if _is_kernel(fn.module.module, ctx.config):
            summaries[fn.key] = TOUCHES
        elif fn.name in ctx.config.validator_names:
            summaries[fn.key] = VALIDATES
        else:
            summaries[fn.key] = NONE
            analyzed.append(fn)
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fn in analyzed:
            new, _ = _analyze_function(fn, ctx, summaries)
            if summaries[fn.key] != new:
                summaries[fn.key] = new
                changed = True
        if not changed:
            break
    return summaries


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    summaries = compute_validation_summaries(ctx)
    for fn in ctx.project.functions():
        if fn.name not in ctx.config.entry_names:
            continue
        if _is_kernel(fn.module.module, ctx.config):
            continue
        _, violations = _analyze_function(fn, ctx, summaries)
        for stmt, label in violations:
            via = f" via {label}()" if label else ""
            findings.append(
                Finding(
                    tool="contracts",
                    rule="CTR501",
                    severity="error",
                    message=(
                        f"entry {fn.qname}() reaches kernel code{via} on a "
                        "path where validate_query() has not run; a "
                        "malformed query goes straight to array indexing"
                    ),
                    path=fn.module.path,
                    line=stmt.lineno,
                    column=stmt.col_offset,
                    context={"module": fn.module.module, "function": fn.qname},
                )
            )
    return findings

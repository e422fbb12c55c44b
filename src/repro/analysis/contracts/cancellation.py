"""Pass 2 — cancellation coverage (CTR201).

``solve(deadline=...)`` and ``serve()`` promise bounded response time;
the mechanism is cooperative: long-running loops call
:func:`repro.cancel.checkpoint`, which raises once the deadline passes.
The promise silently breaks when someone adds a hot loop three calls
below ``solve`` and forgets the checkpoint — nothing fails, the server
just stops honouring deadlines on that path.

This pass walks every function reachable from a cancellation root and
inspects each loop in its body.  A loop is *unbounded work* when its
body (or a ``for``'s iterator expression) contains another loop, calls a
function that transitively loops, or spins on a constant-true ``while``.
Such a loop must be *covered*: its body checkpoints directly, or calls
something whose call tree reaches a checkpoint.  Bounded housekeeping
loops (unpacking a tuple of arrays, a fixed-arity dispatch) are left
alone — flagging those would train people to sprinkle pragmas.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

__all__ = ["run", "cancellation_reachable"]


def cancellation_reachable(ctx) -> set[str]:
    """Function keys reachable from the configured cancellation roots."""
    roots = {
        fn.key
        for fn in ctx.project.functions()
        if fn.name in ctx.config.cancellation_roots
    }
    seen = set(roots)
    stack = list(roots)
    while stack:
        k = stack.pop()
        for c in ctx.graph.edges.get(k, ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _walk_region(nodes, *, skip_defs: bool = True):
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if skip_defs and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _loop_region(loop: ast.stmt):
    region = list(loop.body) + list(getattr(loop, "orelse", []))
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        region.append(loop.iter)
    return region


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    covered_keys = cancellation_reachable(ctx)
    for fn in ctx.project.functions():
        if fn.key not in covered_keys:
            continue
        # call sites by AST node identity, for per-loop attribution
        site_by_node = {site.node: site for site in fn.calls}
        for node in _walk_region(fn.node.body):
            if not isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                continue
            region = _loop_region(node)
            unbounded = isinstance(node, ast.While) and _const_true(node.test)
            checkpointed = False
            for sub in _walk_region(region):
                if isinstance(sub, (ast.For, ast.While, ast.AsyncFor)):
                    unbounded = True
                if not isinstance(sub, ast.Call):
                    continue
                site = site_by_node.get(sub)
                if site is None:
                    continue
                if site.name in ctx.config.checkpoint_names:
                    checkpointed = True
                    continue
                for callee in ctx.graph.resolve(fn, site):
                    if ctx.graph.does_loop_work.get(callee, False):
                        unbounded = True
                    if ctx.graph.reaches_checkpoint.get(callee, False):
                        checkpointed = True
            if unbounded and not checkpointed:
                findings.append(
                    Finding(
                        tool="contracts",
                        rule="CTR201",
                        severity="error",
                        message=(
                            f"unbounded loop in {fn.qname}() is reachable "
                            "from a deadline-carrying entry but neither it "
                            "nor its callees reach checkpoint(); the "
                            "deadline cannot fire on this path"
                        ),
                        path=fn.module.path,
                        line=node.lineno,
                        column=node.col_offset,
                        context={
                            "module": fn.module.module,
                            "function": fn.qname,
                        },
                    )
                )
    return findings

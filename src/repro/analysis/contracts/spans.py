"""Pass 3 — interprocedural span pairing (CTR301).

The local rule RPR002 bans manually held spans outside ``repro/obs/``;
where one is held anyway (inside ``repro/obs/``, or under a pragma), a
span handle may be opened in one function and handed to a helper that
closes it, or stashed until a later phase.  This pass checks the
pairing along CFG paths across function boundaries:

* a *manual open* is ``handle = <obj>.span(...)`` (optionally chained
  with ``.__enter__()``) outside a ``with`` header — ``with`` pairs
  natively and is exempt;
* a *close* is ``handle.__exit__(...)`` / ``handle.close()``, or passing
  the handle to a function whose summary says it closes that parameter
  (computed to a fixpoint, so a helper that delegates to another helper
  still counts);
* returning or yielding the handle, or storing it into an attribute,
  container, or another name, transfers ownership — the pass stops
  tracking rather than guessing;
* the finding fires when some CFG path from the open reaches the
  function's normal or exceptional exit without passing a close — the
  classic miss is an exception edge skipping the ``__exit__`` because
  the open/close pair is not wrapped in ``try/finally``.
"""

from __future__ import annotations

import ast

from repro.analysis.contracts.cfg import EXC_EXIT, EXIT, build_cfg, own_region
from repro.analysis.findings import Finding

__all__ = ["run", "compute_close_summaries"]


def _unwrap_enter(value: ast.expr) -> ast.expr:
    """``x.span(...).__enter__()`` → the inner ``x.span(...)`` call."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "__enter__"
    ):
        return value.func.value
    return value


def _open_target(stmt: ast.stmt, open_attr: str) -> str | None:
    """The variable name bound to a manual span open, if ``stmt`` is one."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    value = _unwrap_enter(stmt.value)
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == open_attr
    ):
        return target.id
    return None


def _param_names(fn) -> list[str]:
    args = fn.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if fn.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _direct_closes(fn, close_attrs: frozenset[str]) -> set[str]:
    """Names ``x`` with a literal ``x.__exit__()`` / ``x.close()`` in ``fn``."""
    closed: set[str] = set()
    for site in fn.calls:
        func = site.node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in close_attrs
            and isinstance(func.value, ast.Name)
        ):
            closed.add(func.value.id)
    return closed


def compute_close_summaries(ctx) -> dict[str, frozenset[int]]:
    """Per-function: which parameter indices it (transitively) closes."""
    graph = ctx.graph
    close_attrs = ctx.config.span_close_attrs
    params: dict[str, list[str]] = {}
    closes: dict[str, set[int]] = {}
    for fn in ctx.project.functions():
        names = _param_names(fn)
        params[fn.key] = names
        direct = _direct_closes(fn, close_attrs)
        closes[fn.key] = {i for i, n in enumerate(names) if n in direct}

    changed = True
    while changed:
        changed = False
        for fn in ctx.project.functions():
            names = params[fn.key]
            if not names:
                continue
            for site in fn.calls:
                for callee in graph.resolve(fn, site):
                    callee_closed = closes.get(callee)
                    if not callee_closed:
                        continue
                    passed = _args_by_param(site.node, params.get(callee, []))
                    for idx in callee_closed:
                        arg = passed.get(idx)
                        if isinstance(arg, ast.Name) and arg.id in names:
                            pidx = names.index(arg.id)
                            if pidx not in closes[fn.key]:
                                closes[fn.key].add(pidx)
                                changed = True
    return {k: frozenset(v) for k, v in closes.items()}


def _args_by_param(call: ast.Call, param_names: list[str]) -> dict[int, ast.expr]:
    out: dict[int, ast.expr] = {}
    for i, arg in enumerate(call.args):
        out[i] = arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in param_names:
            out[param_names.index(kw.arg)] = kw.value
    return out


def _name_used(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(expr)
    )


def _stmt_closes(
    stmt: ast.stmt, name: str, ctx, fn, closes: dict[str, frozenset[int]]
) -> bool:
    """Whether executing ``stmt`` closes (or takes ownership of) ``name``."""
    # ownership transfer: return/yield/raise mentioning the handle
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        if _name_used(stmt.value, name):
            return True
    if isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, (ast.Yield, ast.YieldFrom)
    ):
        if stmt.value.value is not None and _name_used(stmt.value.value, name):
            return True
    # escape: stored into an attribute / subscript / other name
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = getattr(stmt, "value", None)
        if value is not None and _name_used(value, name):
            return True
    site_by_node = {site.node: site for site in fn.calls}
    calls = [
        node
        for root in own_region(stmt)
        for node in ast.walk(root)
        if isinstance(node, ast.Call)
    ]
    for node in calls:
        func = node.func
        # direct close: handle.__exit__() / handle.close()
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ctx.config.span_close_attrs
            and isinstance(func.value, ast.Name)
            and func.value.id == name
        ):
            return True
        site = site_by_node.get(node)
        if site is None:
            continue
        for callee in ctx.graph.resolve(fn, site):
            callee_closed = closes.get(callee)
            if not callee_closed:
                continue
            callee_fn = ctx.graph.by_key.get(callee)
            pnames = _param_names(callee_fn) if callee_fn else []
            passed = _args_by_param(node, pnames)
            for idx in callee_closed:
                arg = passed.get(idx)
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
    return False


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    closes = compute_close_summaries(ctx)
    open_attr = ctx.config.span_open_attr
    for fn in ctx.project.functions():
        has_open = any(
            isinstance(site.node.func, ast.Attribute)
            and site.node.func.attr == open_attr
            for site in fn.calls
        )
        if not has_open:
            continue
        cfg = build_cfg(fn.node)
        for nid, stmt in list(cfg.stmts.items()):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                continue  # native pairing
            name = _open_target(stmt, open_attr)
            if name is None:
                continue
            blockers = {
                n
                for n, s in cfg.stmts.items()
                if n != nid and _stmt_closes(s, name, ctx, fn, closes)
            }
            starts = set(cfg.succ.get(nid, ())) - {
                cfg.exc_target.get(nid, -1)
            }
            escaped = cfg.paths_avoid(starts, blockers)
            if not escaped:
                continue
            how = []
            if EXIT in escaped:
                how.append("a normal return")
            if EXC_EXIT in escaped:
                how.append("an exception path")
            findings.append(
                Finding(
                    tool="contracts",
                    rule="CTR301",
                    severity="error",
                    message=(
                        f"span handle {name!r} opened in {fn.qname}() can "
                        f"leave the function via {' and '.join(how)} without "
                        "being closed by any caller-visible close; wrap in "
                        "try/finally or hand it to a closing helper"
                    ),
                    path=fn.module.path,
                    line=stmt.lineno,
                    column=stmt.col_offset,
                    context={"module": fn.module.module, "function": fn.qname},
                )
            )
    return findings

"""Pass 4 — static footprint audit (CTR401, CTR402).

The simulated race detector (:mod:`repro.analysis.race`) is only as good
as the footprints the recorders *declare*: ``record_step`` says "the
commit phase writes ``dist``/``parent``", and the detector checks those
claims against each other — not against the code.
An array the kernel writes but the recorder never mentions is invisible
to every race the detector could have caught on it.

This pass closes that loop statically.  For each configured audit group
it

1. extracts the *declared* write resources from the recorder class in
   the declarations module — string constants flowing into
   ``writes[...].add((name, ...))`` (through aliases like
   ``w = writes[...]``) and into ``comm.record_writes(rank, ((name, v)
   for ...))`` generators;
2. *infers* the arrays the phase functions actually write — subscript
   stores, ``.fill(...)``, ``out=`` keywords — tracking aliases
   (``dist = arrays["dist"]``, ``d = self._dist``) and propagating
   through calls via a parameter-write summary computed to a fixpoint
   (``_relax_batch(self.dist, ...)`` writes its first two parameters);
3. diffs the two: an inferred-but-undeclared write is **CTR401** (the
   detector is blind to races on it); a declared-but-never-written
   resource is **CTR402** (the declaration drifted from the code and
   the detector checks fiction).

Private scratch arrays — anything not in the group's shared set — are
ignored on purpose; the contract covers shared state only.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

__all__ = ["run", "declared_writes"]


# ----------------------------------------------------------------------
# declared side


def _const_resource(elt: ast.expr) -> str | None:
    """The resource name of one footprint tuple: ``("dist", v)`` → dist."""
    if isinstance(elt, ast.Tuple) and elt.elts:
        first = elt.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def declared_writes(decl_mod, recorder: str) -> tuple[set[str], int] | None:
    """Write resource names declared by ``recorder`` in the decl module.

    Returns ``(names, class_lineno)`` or ``None`` when the class is
    missing from the declarations module.
    """
    cls_node = None
    for node in decl_mod.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == recorder:
            cls_node = node
            break
    if cls_node is None:
        return None
    names: set[str] = set()
    # names aliased to ``writes[...]`` subscript cells, e.g. ``w = writes[t]``
    write_aliases: set[str] = {"writes"}
    for node in ast.walk(cls_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt, val = node.targets[0], node.value
            if (
                isinstance(tgt, ast.Name)
                and isinstance(val, ast.Subscript)
                and isinstance(val.value, ast.Name)
                and val.value.id in write_aliases
            ):
                write_aliases.add(tgt.id)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        # writes[t].add((name, ...)) / w.add((name, ...))
        if func.attr == "add" and node.args:
            base = func.value
            is_writes = (
                isinstance(base, ast.Subscript)
                and isinstance(base.value, ast.Name)
                and base.value.id in write_aliases
            ) or (isinstance(base, ast.Name) and base.id in write_aliases)
            if is_writes:
                r = _const_resource(node.args[0])
                if r is not None:
                    names.add(r)
        # comm.record_writes(rank, ((name, v) for ...)) / tuple literal
        if func.attr == "record_writes" and len(node.args) >= 2:
            payload = node.args[1]
            elts: list[ast.expr] = []
            if isinstance(payload, ast.GeneratorExp):
                elts = [payload.elt]
            elif isinstance(payload, (ast.Tuple, ast.List, ast.Set)):
                elts = list(payload.elts)
            for elt in elts:
                r = _const_resource(elt)
                if r is not None:
                    names.add(r)
    return names, cls_node.lineno


# ----------------------------------------------------------------------
# inferred side


def _param_names(fn) -> list[str]:
    args = fn.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if fn.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _written_names(fn) -> set[str]:
    """Bare names ``fn`` writes through: ``x[...] = ``, ``x.fill``, ``out=x``."""
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for tgt in targets:
                if isinstance(tgt, ast.Subscript) and isinstance(
                    tgt.value, ast.Name
                ):
                    out.add(tgt.value.id)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "fill"
                and isinstance(func.value, ast.Name)
            ):
                out.add(func.value.id)
            for kw in node.keywords:
                if kw.arg == "out" and isinstance(kw.value, ast.Name):
                    out.add(kw.value.id)
    return out


def compute_param_writes(ctx) -> dict[str, frozenset[int]]:
    """Per-function: parameter indices whose arrays it (transitively) writes."""
    params: dict[str, list[str]] = {}
    writes: dict[str, set[int]] = {}
    for fn in ctx.project.functions():
        names = _param_names(fn)
        params[fn.key] = names
        direct = _written_names(fn)
        writes[fn.key] = {i for i, n in enumerate(names) if n in direct}
    changed = True
    while changed:
        changed = False
        for fn in ctx.project.functions():
            names = params[fn.key]
            if not names:
                continue
            for site in fn.calls:
                for callee in ctx.graph.resolve(fn, site):
                    callee_writes = writes.get(callee)
                    if not callee_writes:
                        continue
                    cparams = params.get(callee, [])
                    passed = _args_by_param(site.node, cparams)
                    for idx in callee_writes:
                        arg = passed.get(idx)
                        if isinstance(arg, ast.Name) and arg.id in names:
                            pidx = names.index(arg.id)
                            if pidx not in writes[fn.key]:
                                writes[fn.key].add(pidx)
                                changed = True
    return {k: frozenset(v) for k, v in writes.items()}


def _args_by_param(call: ast.Call, param_names: list[str]) -> dict[int, ast.expr]:
    out: dict[int, ast.expr] = {}
    for i, arg in enumerate(call.args):
        out[i] = arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in param_names:
            out[param_names.index(kw.arg)] = kw.value
    return out


def _attr_resource(expr: ast.expr, group) -> str | None:
    """``self._frontier`` / ``self.dist`` → the shared resource name."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
    ):
        return group.resource_of(expr.attr)
    return None


def _alias_map(fn, group) -> dict[str, str]:
    """Local name → shared resource, from params and alias assignments."""
    aliases: dict[str, str] = {}
    for name in _param_names(fn):
        r = group.resource_of(name)
        if r is not None:
            aliases[name] = r
    for node in ast.walk(fn.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        tgt, val = node.targets[0], node.value
        if not isinstance(tgt, ast.Name):
            continue
        # dist = self._dist
        r = _attr_resource(val, group)
        # dist = arrays["dist"]
        if (
            r is None
            and isinstance(val, ast.Subscript)
            and isinstance(val.slice, ast.Constant)
            and isinstance(val.slice.value, str)
        ):
            r = group.resource_of(val.slice.value)
        # dist = frontier  (alias of an alias)
        if r is None and isinstance(val, ast.Name) and val.id in aliases:
            r = aliases[val.id]
        if r is not None:
            aliases[tgt.id] = r
    return aliases


def infer_writes(ctx, fn, group, param_writes) -> dict[str, int]:
    """Shared resources ``fn`` writes → first offending line."""
    aliases = _alias_map(fn, group)
    found: dict[str, int] = {}

    def record(resource: str | None, lineno: int) -> None:
        if resource is not None and resource not in found:
            found[resource] = lineno

    def resolve(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            hit = aliases.get(expr.id)
            if hit is not None:
                return hit
            # rank-local arrays named for the resource they realise
            # (``dist = np.full(n, INF)`` in the distributed kernel)
            return group.resource_of(expr.id)
        return _attr_resource(expr, group)

    site_by_node = {site.node: site for site in fn.calls}
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    record(resolve(tgt.value), tgt.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "fill":
                record(resolve(func.value), node.lineno)
            for kw in node.keywords:
                if kw.arg == "out":
                    record(resolve(kw.value), node.lineno)
            site = site_by_node.get(node)
            if site is None:
                continue
            for callee in ctx.graph.resolve(fn, site):
                widx = param_writes.get(callee)
                if not widx:
                    continue
                callee_fn = ctx.graph.by_key.get(callee)
                pnames = _param_names(callee_fn) if callee_fn else []
                passed = _args_by_param(node, pnames)
                for idx in widx:
                    arg = passed.get(idx)
                    if arg is not None:
                        record(resolve(arg), node.lineno)
    return found


def _audit_functions(ctx, group):
    """The group's phase functions, nested defs included."""
    for suffix, qname in group.functions:
        mod = ctx.project.find_module(suffix)
        if mod is None:
            continue
        for fn in mod.functions:
            if fn.qname == qname or fn.qname.startswith(qname + "."):
                yield fn


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    decl_mod = ctx.project.find_module(ctx.config.declarations_module)
    if decl_mod is None:
        return findings
    param_writes = compute_param_writes(ctx)
    for group in ctx.config.audits:
        decl = declared_writes(decl_mod, group.recorder)
        if decl is None:
            continue
        declared, cls_line = decl
        inferred: dict[str, tuple[int, object]] = {}
        for fn in _audit_functions(ctx, group):
            for resource, lineno in infer_writes(ctx, fn, group, param_writes).items():
                if resource not in inferred:
                    inferred[resource] = (lineno, fn)
        for resource in sorted(set(inferred) - declared):
            lineno, fn = inferred[resource]
            findings.append(
                Finding(
                    tool="contracts",
                    rule="CTR401",
                    severity="error",
                    message=(
                        f"{fn.qname}() writes shared array {resource!r} but "
                        f"{group.recorder} never declares that write; the "
                        "race detector is blind to conflicts on it"
                    ),
                    path=fn.module.path,
                    line=lineno,
                    column=0,
                    context={
                        "module": fn.module.module,
                        "function": fn.qname,
                        "audit": group.label,
                        "resource": resource,
                    },
                )
            )
        shared_resources = {
            group.resource_of(n) for n in group.shared
        } - {None}
        for resource in sorted((declared & shared_resources) - set(inferred)):
            findings.append(
                Finding(
                    tool="contracts",
                    rule="CTR402",
                    severity="error",
                    message=(
                        f"{group.recorder} declares writes to {resource!r} "
                        "but no audited phase function writes it; the "
                        "declaration has drifted from the code"
                    ),
                    path=decl_mod.path,
                    line=cls_line,
                    column=0,
                    context={
                        "module": decl_mod.module,
                        "function": group.recorder,
                        "audit": group.label,
                        "resource": resource,
                    },
                )
            )
    return findings

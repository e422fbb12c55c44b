"""Pass 6 — local rules (RPR001–RPR005).

The other passes reason across functions; these rules need only one
module's AST and guard invariants specific to this codebase:

* **RPR001** — no mutation of CSRGraph backing arrays (``indptr`` /
  ``indices`` / ``weights``) outside ``repro/graph/`` and
  ``repro/core/compaction.py``.  Every kernel relies on graphs being
  frozen after construction; deletion goes through the compaction views.
* **RPR002** — ``Tracer.span`` only as a ``with`` context (or via the
  ``traced`` decorator); ``repro/obs/`` itself is exempt.  CTR301 proves
  a manually held span is closed on every CFG path, but it accepts a
  ``try/finally`` close, a returned handle and a bare ``tracer.span(...)``
  expression, all of which this rule rejects.
* **RPR003** — no O(n) ``np.full`` / ``np.zeros`` / ``np.ones`` /
  ``np.empty`` allocations lexically inside loops in ``repro/ksp/``,
  ``repro/sssp/``, ``repro/load/``, ``repro/serve/`` and ``repro/dyn/``
  (the serving/load event loops run one iteration per request and the
  Terrace update loops one rebuild per touched vertex, so a
  per-iteration O(n) alloc is a per-query tax exactly like a per-spur
  one); per-spur state must route through
  :class:`~repro.sssp.workspace.SSSPWorkspace`.  ``workspace.py`` is
  exempt, and small constant-size allocations (≤ 64 elements) are
  allowed.
* **RPR004** — no ``==`` / ``!=`` on float cost expressions; the
  identifier vocabulary covers path costs (dist/distance/cost/bound/
  total) and accumulated float times (latency/wait/elapsed/``*_time``).
  Use :func:`repro.paths.costs_close`.
* **RPR005** — the registry free functions (``yen_ksp`` ... ``peek_ksp``)
  in ``repro/ksp/`` and ``repro/core/peek.py`` must stay thin aliases of
  :func:`repro.solve` — a docstring, the solve import, at most simple
  name bindings, and one ``return solve(...)``.

Scoping uses the module path the project loader resolved (including a
``# contracts: module=`` override), and suppression goes through the
analyzer's ``# contracts: disable=`` handling like every other rule.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding

__all__ = ["run"]

_CSR_FIELDS = frozenset({"indptr", "indices", "weights"})
_ARRAY_MUTATORS = frozenset({"fill", "sort", "put", "partition", "resize", "itemset"})
_NP_ALLOCATORS = frozenset({"full", "zeros", "ones", "empty"})
#: constant-size allocations at or below this are not "O(n)" (RPR003)
_SMALL_ALLOC = 64
_COST_NAME_RE = re.compile(
    r"(^|_)(dist|dists|distance|distances|cost|costs|bound|total"
    r"|latency|latencies|wait|elapsed|time)($|_)"
)
#: the registry aliases RPR005 polices (must mirror repro.ksp.registry)
_ALIAS_FUNCTIONS = frozenset(
    {
        "yen_ksp",
        "nc_ksp",
        "optyen_ksp",
        "sb_ksp",
        "sb_star_ksp",
        "pnc_ksp",
        "psb_ksp",
        "peek_ksp",
    }
)


def _is_cost_expr(node: ast.expr) -> str | None:
    """The cost-looking identifier inside ``node``, or None.

    Matches a bare name, an attribute access, or a subscript whose base
    matches — ``prefix_dist``, ``path.distance``, ``dist[v]`` all count.
    """
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    elif isinstance(node, ast.Subscript):
        return _is_cost_expr(node.value)
    else:
        return None  # function results are the callee's responsibility
    return ident if _COST_NAME_RE.search(ident) else None


def _csr_attr_name(node: ast.expr) -> str | None:
    """``"x.weights"`` when ``node`` is an attribute access on a CSR field."""
    if isinstance(node, ast.Attribute) and node.attr in _CSR_FIELDS:
        return f"{ast.unparse(node.value)}.{node.attr}"
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, mod) -> None:
        self.mod = mod
        self.findings: list[Finding] = []
        self._loop_depth = 0
        self._with_contexts: set[int] = set()  # id() of with-item call nodes
        # rule applicability, decided once per module
        module = mod.module
        self.check_001 = not (
            module.startswith("repro/graph/") or module == "repro/core/compaction.py"
        )
        self.check_002 = not module.startswith("repro/obs/")
        self.check_003 = module.startswith(
            ("repro/ksp/", "repro/sssp/", "repro/load/", "repro/serve/", "repro/dyn/")
        ) and not module.endswith("workspace.py")
        self.check_005 = module.startswith("repro/ksp/") or module == "repro/core/peek.py"

    # ------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                tool="contracts",
                rule=rule,
                severity="error",
                message=message,
                path=self.mod.path,
                line=getattr(node, "lineno", None),
                column=getattr(node, "col_offset", None),
                context={"module": self.mod.module},
            )
        )

    # ------------------------------------------------------------------
    # RPR001 — CSR backing-array mutation
    # ------------------------------------------------------------------
    def _check_mutation_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_mutation_target(elt)
            return
        if isinstance(target, ast.Subscript):
            name = _csr_attr_name(target.value)
            if name:
                self._emit(
                    "RPR001",
                    target,
                    f"assignment into CSR backing array `{name}[...]`; "
                    "CSRGraph is immutable outside repro.graph / "
                    "repro.core.compaction — use a compaction view or "
                    "build a new graph",
                )
        # Plain attribute rebinding (`self.weights = ...`) is deliberately
        # not flagged: classes outside repro.graph own arrays with these
        # names (EdgeSwapView, SSSP kernels); the contract protects the
        # *contents* of a constructed CSR, not the attribute slot.

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.check_001:
            for t in node.targets:
                self._check_mutation_target(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.check_001:
            self._check_mutation_target(node.target)
            name = _csr_attr_name(node.target)
            if name:
                self._emit(
                    "RPR001",
                    node,
                    f"in-place update of CSR backing array `{name}`; "
                    "CSRGraph is immutable outside repro.graph / "
                    "repro.core.compaction",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # loops (RPR003 context)
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    # ------------------------------------------------------------------
    # with-items (RPR002 context)
    # ------------------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._with_contexts.add(id(item.context_expr))
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: RPR001 mutating methods, RPR002 span misuse, RPR003 allocs
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.check_001
            and isinstance(func, ast.Attribute)
            and func.attr in _ARRAY_MUTATORS
        ):
            name = _csr_attr_name(func.value)
            if name:
                self._emit(
                    "RPR001",
                    node,
                    f"mutating call `{name}.{func.attr}(...)` on a CSR "
                    "backing array; CSRGraph is immutable outside "
                    "repro.graph / repro.core.compaction",
                )
        if self.check_001:
            for kw in node.keywords:
                if kw.arg == "out" and kw.value is not None:
                    for sub in ast.walk(kw.value):
                        name = _csr_attr_name(sub)
                        if name:
                            self._emit(
                                "RPR001",
                                node,
                                f"`out={name}` writes into a CSR backing "
                                "array; CSRGraph is immutable outside "
                                "repro.graph / repro.core.compaction",
                            )
                            break

        if (
            self.check_002
            and isinstance(func, ast.Attribute)
            and func.attr == "span"
            and id(node) not in self._with_contexts
        ):
            self._emit(
                "RPR002",
                node,
                "Tracer.span(...) outside a `with` statement; a manually "
                "entered span that is not exited on every path corrupts "
                "the span stack — use `with tracer.span(...):` or @traced",
            )

        if (
            self.check_003
            and self._loop_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr in _NP_ALLOCATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            small = (
                bool(node.args)
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, int)
                and node.args[0].value <= _SMALL_ALLOC
            )
            if not small:
                self._emit(
                    "RPR003",
                    node,
                    f"np.{func.attr}(...) inside a loop on the KSP/SSSP hot "
                    "path; hoist the buffer out of the loop or route the "
                    "state through repro.sssp.workspace.SSSPWorkspace",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # RPR004 — float cost equality
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (node.left, right):
                ident = _is_cost_expr(side)
                if ident:
                    opname = "==" if isinstance(op, ast.Eq) else "!="
                    self._emit(
                        "RPR004",
                        node,
                        f"`{opname}` comparison on path cost `{ident}`; "
                        "float costs accumulate rounding error — use "
                        "repro.paths.costs_close (or math.isnan for "
                        "NaN probes)",
                    )
                    break
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # RPR005 — thin-alias contract
    # ------------------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.check_005 and node.name in _ALIAS_FUNCTIONS and node.col_offset == 0:
            self._check_alias(node)
        self.generic_visit(node)

    def _check_alias(self, node: ast.FunctionDef) -> None:
        returns = 0
        for i, stmt in enumerate(node.body):
            if (
                i == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue  # docstring
            if isinstance(stmt, ast.ImportFrom) and stmt.module in (
                "repro.api",
                "repro",
            ):
                continue
            if isinstance(stmt, ast.Assign) and not any(
                isinstance(n, ast.Call) for n in ast.walk(stmt.value)
            ):
                continue  # simple name binding (psb_ksp's variant table)
            if isinstance(stmt, ast.Return):
                returns += 1
                call = stmt.value
                if (
                    isinstance(call, ast.Call)
                    and (
                        (isinstance(call.func, ast.Name) and call.func.id == "solve")
                        or (
                            isinstance(call.func, ast.Attribute)
                            and call.func.attr == "solve"
                        )
                    )
                ):
                    continue
                self._emit(
                    "RPR005",
                    stmt,
                    f"registry alias `{node.name}` must return "
                    "`solve(...)` directly; route new behaviour through "
                    "repro.solve / the AlgorithmSpec registry instead",
                )
                return
            self._emit(
                "RPR005",
                stmt,
                f"registry alias `{node.name}` has non-trivial body "
                f"statement ({type(stmt).__name__}); it must stay a thin "
                "alias of repro.solve (docstring + solve import + return)",
            )
            return
        if returns != 1:
            self._emit(
                "RPR005",
                node,
                f"registry alias `{node.name}` must contain exactly one "
                f"`return solve(...)` (found {returns})",
            )


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    for mod in ctx.project.modules:
        checker = _Checker(mod)
        checker.visit(mod.tree)
        findings.extend(checker.findings)
    return findings

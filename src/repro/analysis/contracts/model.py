"""Project loading: modules, functions, and raw call sites.

The analyzer works on a *project* — a set of parsed modules treated as
one program.  Nothing here imports the library under analysis; a tree
that does not import cleanly must still analyze.

Module paths are repo-relative (``repro/serve/server.py``), anchored at
the last ``repro`` path component, and overridable per file with a
``# contracts: module=...`` pragma — the fixture corpora use that to
masquerade as library modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.pragmas import expand_disabled_lines, parse_pragmas

__all__ = ["CallSite", "FunctionInfo", "ModuleInfo", "Project", "load_project"]

@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its innermost enclosing function.

    ``kind`` is how the callee is named syntactically:

    * ``"name"`` — ``foo(...)``;
    * ``"self"`` — ``self.foo(...)`` / ``cls.foo(...)``;
    * ``"attr"`` — ``obj.foo(...)`` for any other receiver (``recv``
      holds the receiver's bare name when it is one, letting the call
      graph treat ``spans.run(...)`` as a module-function call);
    * ``"table"`` — ``TABLE[...](...)`` dispatch through a module-level
      dict literal (``table`` holds the dict's name).
    """

    kind: str
    name: str
    node: ast.Call
    table: str | None = None
    recv: str | None = None
    #: ``self.<attr>.foo(...)`` — the receiver's attribute name
    recv_self_attr: str | None = None
    #: ``Foo(...).foo(...)`` / ``make_algorithm(...).solve(...)`` — the
    #: constructor/indirection the receiver came from
    recv_ctor: str | None = None


@dataclass
class FunctionInfo:
    """One function or method (nested functions are separate entries)."""

    module: "ModuleInfo"
    qname: str  # "QueryServer.serve", "distributed_delta_stepping.run_bucket"
    name: str  # bare name
    cls: str | None  # immediately enclosing class, if any
    node: ast.AST
    calls: list[CallSite] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Project-unique id: ``module::qualname``."""
        return f"{self.module.module}::{self.qname}"

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    path: str  # path as given on the command line (stable across runs)
    module: str  # repo-relative module path used for scoping
    source: str
    tree: ast.Module
    functions: list[FunctionInfo] = field(default_factory=list)
    disabled: dict[int, frozenset[str]] = field(default_factory=dict)
    #: module-level ``NAME = {"k": fn, ...}`` dispatch tables
    dispatch_tables: dict[str, list[str]] = field(default_factory=dict)
    #: class name → list of syntactic base-class names
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: local name → (source module path, original name) for
    #: ``from repro.x.y import f [as g]`` imports (absolute or relative)
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    syntax_error: str | None = None


@dataclass
class Project:
    modules: list[ModuleInfo]

    def by_module(self) -> dict[str, ModuleInfo]:
        return {m.module: m for m in self.modules}

    def functions(self):
        for m in self.modules:
            yield from m.functions

    def find_module(self, suffix: str) -> ModuleInfo | None:
        """The module whose repo-relative path equals or ends with ``suffix``."""
        for m in self.modules:
            if m.module == suffix or m.module.endswith("/" + suffix):
                return m
        return None


def _collect_imports(mod: ModuleInfo) -> None:
    """Record ``from <module> import name [as alias]`` origin modules.

    Dotted module references are rewritten to repo-relative paths
    (``repro.sssp.delta_stepping`` → ``repro/sssp/delta_stepping.py``);
    relative imports resolve against the importing module's path.  Only
    top-of-tree ``repro`` imports are kept — external libraries cannot
    be call-graph targets anyway.
    """
    pkg_parts = mod.module.split("/")[:-1]  # containing package
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
            if node.level - 1 > len(pkg_parts):
                continue
            parts = base + (node.module.split(".") if node.module else [])
        else:
            if not node.module or not node.module.startswith("repro"):
                continue
            parts = node.module.split(".")
        source = "/".join(parts) + ".py"
        for alias in node.names:
            if alias.name == "*":
                continue
            mod.imports[alias.asname or alias.name] = (source, alias.name)


def _module_path(filename: str, override: str | None) -> str:
    if override:
        return override.strip()
    parts = Path(filename).as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1]


class _FunctionCollector(ast.NodeVisitor):
    """Collects functions (with nesting-aware qualnames) and their calls."""

    def __init__(self, mod: ModuleInfo) -> None:
        self.mod = mod
        self._cls_stack: list[str] = []
        self._fn_stack: list[FunctionInfo] = []

    # -- structure ------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = []
        for b in node.bases:
            if isinstance(b, ast.Name):
                bases.append(b.id)
            elif isinstance(b, ast.Attribute):
                bases.append(b.attr)
        self.mod.class_bases[node.name] = bases
        self._cls_stack.append(node.name)
        self.generic_visit(node)
        self._cls_stack.pop()

    def _visit_function(self, node) -> None:
        prefix = ""
        if self._fn_stack:
            prefix = self._fn_stack[-1].qname + "."
        elif self._cls_stack:
            prefix = ".".join(self._cls_stack) + "."
        info = FunctionInfo(
            module=self.mod,
            qname=prefix + node.name,
            name=node.name,
            cls=self._cls_stack[-1] if self._cls_stack and not self._fn_stack else None,
            node=node,
        )
        self.mod.functions.append(info)
        self._fn_stack.append(info)
        for stmt in node.body:
            self.visit(stmt)
        self._fn_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._fn_stack:
            site = _classify_call(node)
            if site is not None:
                self._fn_stack[-1].calls.append(site)
        self.generic_visit(node)

    # -- module-level dispatch tables -----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._fn_stack and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
                names = [
                    v.id for v in node.value.values if isinstance(v, ast.Name)
                ]
                if names:
                    self.mod.dispatch_tables[target.id] = names
        self.generic_visit(node)


def _classify_call(node: ast.Call) -> CallSite | None:
    func = node.func
    if isinstance(func, ast.Name):
        return CallSite("name", func.id, node)
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            return CallSite("self", func.attr, node)
        recv = recv_self_attr = recv_ctor = None
        if isinstance(base, ast.Name):
            recv = base.id
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in ("self", "cls")
        ):
            recv_self_attr = base.attr
        elif isinstance(base, ast.Call):
            if isinstance(base.func, ast.Name):
                recv_ctor = base.func.id
            elif isinstance(base.func, ast.Attribute):
                recv_ctor = base.func.attr
        return CallSite(
            "attr",
            func.attr,
            node,
            recv=recv,
            recv_self_attr=recv_self_attr,
            recv_ctor=recv_ctor,
        )
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return CallSite("table", "", node, table=func.value.id)
    return None


def load_source(
    source: str, filename: str, *, module: str | None = None
) -> ModuleInfo:
    """Parse one source string into a :class:`ModuleInfo`."""
    raw_disabled, override = parse_pragmas(source)
    mod_path = _module_path(filename, module or override)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return ModuleInfo(
            path=filename,
            module=mod_path,
            source=source,
            tree=ast.Module(body=[], type_ignores=[]),
            syntax_error=f"{exc.msg} (line {exc.lineno})",
        )
    mod = ModuleInfo(
        path=filename,
        module=mod_path,
        source=source,
        tree=tree,
        disabled=expand_disabled_lines(tree, raw_disabled),
    )
    _collect_imports(mod)
    _FunctionCollector(mod).visit(tree)
    return mod


def load_project(paths) -> Project:
    """Load files and directories (recursively) into one project.

    Paths are kept as given — relative invocations produce relative,
    machine-independent finding paths, which is what makes two runs of
    the analyzer byte-identical.
    """
    modules: list[ModuleInfo] = []
    for raw in paths:
        p = Path(raw)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            modules.append(
                load_source(f.read_text(encoding="utf-8"), f.as_posix())
            )
    modules.sort(key=lambda m: m.module)
    return Project(modules=modules)

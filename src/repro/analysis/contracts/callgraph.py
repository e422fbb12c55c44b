"""Project-wide call graph with registry-indirection resolution.

Resolution is *name-based and over-approximate*: a call may resolve to
several candidate functions, and passes treat "any candidate does X" or
"all candidates do X" as the pass semantics require.  The kinds:

* ``foo(...)`` — every top-level function named ``foo``; if none, every
  class named ``foo`` contributes its ``__init__``;
* ``self.foo(...)`` — resolved up the (syntactic) class hierarchy of the
  enclosing class, falling back to any method named ``foo`` project-wide
  when the hierarchy does not define it;
* ``obj.foo(...)`` — every *method* named ``foo`` anywhere (receiver
  types are unknown statically); when the receiver's bare name is a
  project module's basename that the caller's module imports and the
  caller does not bind itself (``spans.run(...)``), the module's
  top-level ``foo`` instead;
* ``TABLE[...](...)`` — the values of any module-level dict literal
  named ``TABLE`` (e.g. the ``ALL_EXPERIMENTS`` experiment table);
* ``make_algorithm(...)`` — the AlgorithmSpec registry indirection: the
  factory callables extracted from ``_spec(...)`` / ``AlgorithmSpec(...)``
  calls in the registry module, so the graph flows from an entry through
  the registry into every algorithm implementation.

On top of the edges, three interprocedural facts are computed to a
fixpoint (they are monotone boolean summaries, so iteration converges):
``contains_loop``, ``does_loop_work`` (has a loop here or in any
callee) and ``reaches_checkpoint``.  Reachability from the configured
entry roots is a plain BFS over the resolved edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.contracts.config import ContractConfig
from repro.analysis.contracts.model import CallSite, FunctionInfo, Project

__all__ = ["CallGraph", "build_callgraph"]

#: sentinel "class" for values produced by the registry indirection
_REGISTRY_TYPE = "@registry"


@dataclass
class CallGraph:
    project: Project
    config: ContractConfig
    #: function key → FunctionInfo
    by_key: dict[str, FunctionInfo] = field(default_factory=dict)
    #: function key → resolved callee keys (order-stable)
    edges: dict[str, list[str]] = field(default_factory=dict)
    #: callee key → caller keys
    redges: dict[str, list[str]] = field(default_factory=dict)
    #: factory function names extracted from the AlgorithmSpec registry
    registry_factories: list[str] = field(default_factory=list)
    # fixpoint summaries, per function key
    contains_loop: dict[str, bool] = field(default_factory=dict)
    does_loop_work: dict[str, bool] = field(default_factory=dict)
    reaches_checkpoint: dict[str, bool] = field(default_factory=dict)
    #: keys reachable from functions named in config.entry_names
    reachable_from_entries: set[str] = field(default_factory=set)
    #: entry root keys (functions whose bare name is an entry name)
    entry_keys: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    def resolve(self, caller: FunctionInfo, site: CallSite) -> list[str]:
        """Candidate callee keys for one call site (may be empty)."""
        return self._resolve_site(caller, site)

    def callees(self, key: str) -> list[str]:
        return self.edges.get(key, [])

    def callers(self, key: str) -> list[str]:
        return self.redges.get(key, [])

    def transitive_callees(self, key: str) -> set[str]:
        seen: set[str] = set()
        stack = list(self.edges.get(key, ()))
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(self.edges.get(k, ()))
        return seen

    def transitive_callers(self, keys: set[str]) -> set[str]:
        """All functions from which any of ``keys`` is reachable."""
        seen: set[str] = set(keys)
        stack = [c for k in keys for c in self.redges.get(k, ())]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(self.redges.get(k, ()))
        return seen

    # ------------------------------------------------------------------
    # internal: populated by build_callgraph
    def _index(self) -> None:
        self._top_level: dict[str, list[str]] = {}
        self._methods: dict[str, list[str]] = {}
        self._by_cls_method: dict[tuple[str, str], list[str]] = {}
        self._classes: dict[str, list[str]] = {}  # class name → modules
        self._tables: dict[str, list[str]] = {}
        self._module_basenames: dict[str, set[str]] = {}
        #: module → names its import statements bind
        self._imported_names: dict[str, set[str]] = {}
        self._by_module = self.project.by_module()
        self._local_types_cache: dict[str, dict[str, set[str]]] = {}
        #: (module, class, attr) → classes assigned via ``self.attr = Foo(...)``
        self._attr_types: dict[tuple[str, str, str], set[str]] = {}
        for mod in self.project.modules:
            base = mod.module.rsplit("/", 1)[-1].removesuffix(".py")
            self._module_basenames.setdefault(base, set()).add(mod.module)
            imported = self._imported_names.setdefault(mod.module, set())
            imported.update(mod.imports)
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Import):
                    imported.update(
                        a.asname or a.name.split(".", 1)[0] for a in node.names
                    )
        for mod in self.project.modules:
            for tbl, names in mod.dispatch_tables.items():
                self._tables.setdefault(tbl, []).extend(names)
            for cls in mod.class_bases:
                self._classes.setdefault(cls, []).append(mod.module)
        for fn in self.project.functions():
            self.by_key[fn.key] = fn
            if "." not in fn.qname:
                self._top_level.setdefault(fn.name, []).append(fn.key)
            elif fn.cls is not None:
                self._methods.setdefault(fn.name, []).append(fn.key)
                self._by_cls_method.setdefault((fn.cls, fn.name), []).append(
                    fn.key
                )
        # self.<attr> = Foo(...) anywhere in a class → attr's candidate types
        for fn in self.project.functions():
            if fn.cls is None:
                continue
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id in ("self", "cls")
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                func = node.value.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                cls = self._ctor_class(name, fn)
                marker = (
                    _REGISTRY_TYPE
                    if name in self.config.indirection_names
                    else cls
                )
                if marker is not None:
                    self._attr_types.setdefault(
                        (fn.module.module, fn.cls, node.targets[0].attr), set()
                    ).add(marker)

    def _resolve_site(self, caller: FunctionInfo, site: CallSite) -> list[str]:
        if site.kind == "name":
            if site.name in self.config.indirection_names:
                return self._resolve_registry()
            # same-module definitions shadow everything else
            local = [
                f.key
                for f in caller.module.functions
                if f.name == site.name
                and ("." not in f.qname or f.cls is None)
            ]
            if local:
                return _dedup(local)
            # an explicit ``from repro.x import name`` pins the target
            imp = caller.module.imports.get(site.name)
            if imp is not None:
                source, orig = imp
                m = self._by_module.get(source)
                if m is not None:
                    hits = [f.key for f in m.functions if f.qname == orig]
                    if not hits:  # class import → its __init__
                        hits = [
                            f.key
                            for f in m.functions
                            if f.qname == orig + ".__init__"
                        ]
                    if hits:
                        return _dedup(hits)
            hits = self._top_level.get(site.name, [])
            if not hits:
                # class instantiation → __init__
                hits = self._by_cls_method_all(site.name, "__init__")
            return _dedup(hits)
        if site.kind == "self":
            if caller.cls is None and "." in caller.qname:
                # method-nested helper: treat like attr
                return _dedup(self._methods.get(site.name, []))
            cls = caller.cls or caller.qname.split(".", 1)[0]
            hits = self._resolve_in_hierarchy(cls, site.name, caller)
            if hits:
                return hits
            return _dedup(self._methods.get(site.name, []))
        if site.kind == "attr":
            if site.name in self.config.indirection_names:
                return self._resolve_registry()
            types = self._receiver_types(caller, site)
            if types is not None:
                out: list[str] = []
                for cls in types:
                    if cls == _REGISTRY_TYPE:
                        out.extend(self._registry_method(site.name))
                    else:
                        out.extend(self._hierarchy_methods(cls, site.name))
                return _dedup(out)
            if site.recv is not None and self._is_module_name(caller, site.recv):
                mods = self._module_basenames[site.recv]
                return _dedup(
                    [
                        k
                        for k in self._top_level.get(site.name, [])
                        if k.split("::", 1)[0] in mods
                    ]
                )
            return _dedup(self._methods.get(site.name, []))
        if site.kind == "table":
            names = self._tables.get(site.table or "", [])
            out: list[str] = []
            for n in names:
                out.extend(self._top_level.get(n, []))
            return _dedup(out)
        return []

    def _is_module_name(self, caller: FunctionInfo, name: str) -> bool:
        """``name`` is a project module the caller's module imports and the
        caller does not bind (a local named like a module is a value)."""
        if name not in self._module_basenames:
            return False
        if name not in self._imported_names[caller.module.module]:
            return False
        return not any(
            (isinstance(node, ast.arg) and node.arg == name)
            or (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and node.id == name
            )
            for node in ast.walk(caller.node)
        )

    def _by_cls_method_all(self, cls: str, meth: str) -> list[str]:
        return self._by_cls_method.get((cls, meth), [])

    def _resolve_in_hierarchy(
        self, cls: str, meth: str, caller: FunctionInfo
    ) -> list[str]:
        seen: set[str] = set()
        queue = [cls]
        while queue:
            c = queue.pop(0)
            if c in seen:
                continue
            seen.add(c)
            hits = self._by_cls_method.get((c, meth))
            if hits:
                return list(hits)
            queue.extend(caller.module.class_bases.get(c, []))
            for mod in self.project.modules:
                if c in mod.class_bases and mod is not caller.module:
                    queue.extend(mod.class_bases[c])
        return []

    # -- receiver typing ------------------------------------------------
    def _ctor_class(self, name: str | None, caller: FunctionInfo) -> str | None:
        """The project class ``name`` names (directly or via import)."""
        if name is None:
            return None
        if name in self._classes:
            return name
        imp = caller.module.imports.get(name)
        if imp is not None and imp[1] in self._classes:
            return imp[1]
        return None

    def _receiver_types(
        self, caller: FunctionInfo, site: CallSite
    ) -> list[str] | None:
        """Candidate classes of an attr call's receiver (None = unknown).

        Sources, in order: a class used as the receiver itself
        (``RowPartition.build(...)``), a chained constructor
        (``PeeK(...).run(k)``), a local assigned from a constructor or
        the registry indirection, and a ``self.<attr>`` whose class
        assigns it from a constructor somewhere.
        """
        if site.recv is not None:
            cls = self._ctor_class(site.recv, caller)
            if cls is not None:
                return [cls]
            local = self._local_types(caller).get(site.recv)
            if local:
                return sorted(local)
            return None
        if site.recv_ctor is not None:
            if site.recv_ctor in self.config.indirection_names:
                return [_REGISTRY_TYPE]
            cls = self._ctor_class(site.recv_ctor, caller)
            if cls is not None:
                return [cls]
            return None
        if site.recv_self_attr is not None and caller.cls is not None:
            hit = self._attr_types.get(
                (caller.module.module, caller.cls, site.recv_self_attr)
            )
            if hit:
                return sorted(hit)
        return None

    def _annotation_class(self, ann, caller: FunctionInfo) -> str | None:
        """The project class an annotation names, unwrapping Optional/unions."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return self._ctor_class(ann.value.strip(), caller)
        if isinstance(ann, ast.Name):
            return self._ctor_class(ann.id, caller)
        if isinstance(ann, ast.Attribute):
            return self._ctor_class(ann.attr, caller)
        if isinstance(ann, ast.BinOp):  # X | None
            return self._annotation_class(
                ann.left, caller
            ) or self._annotation_class(ann.right, caller)
        if isinstance(ann, ast.Subscript):  # Optional[X]
            return self._annotation_class(ann.slice, caller)
        return None

    def _local_types(self, caller: FunctionInfo) -> dict[str, set[str]]:
        cached = self._local_types_cache.get(caller.key)
        if cached is not None:
            return cached
        types: dict[str, set[str]] = {}
        args = caller.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            cls = self._annotation_class(arg.annotation, caller)
            if cls is not None:
                types.setdefault(arg.arg, set()).add(cls)
        for node in ast.walk(caller.node):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = self._annotation_class(node.annotation, caller)
                if cls is not None:
                    types.setdefault(node.target.id, set()).add(cls)
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            func = node.value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            target = node.targets[0].id
            if name in self.config.indirection_names:
                types.setdefault(target, set()).add(_REGISTRY_TYPE)
            else:
                cls = self._ctor_class(name, caller)
                if cls is not None:
                    types.setdefault(target, set()).add(cls)
        self._local_types_cache[caller.key] = types
        return types

    def _hierarchy_methods(self, cls: str, meth: str) -> list[str]:
        """Methods named ``meth`` on ``cls`` or its (syntactic) ancestors."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            c = queue.pop(0)
            if c in seen:
                continue
            seen.add(c)
            hits = self._by_cls_method.get((c, meth))
            if hits:
                return list(hits)
            for mod in self.project.modules:
                if c in mod.class_bases:
                    queue.extend(mod.class_bases[c])
        return []

    def _registry_method(self, meth: str) -> list[str]:
        out: list[str] = []
        for name in self.registry_factories:
            if name in self._classes:
                out.extend(self._hierarchy_methods(name, meth))
        return out

    def _resolve_registry(self) -> list[str]:
        out: list[str] = []
        for name in self.registry_factories:
            out.extend(self._top_level.get(name, []))
            out.extend(self._by_cls_method_all(name, "__init__"))
        return _dedup(out)


def _dedup(keys: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for k in keys:
        if k not in seen:
            seen.add(k)
            out.append(k)
    return out


# ----------------------------------------------------------------------
# registry factory extraction


def _extract_registry_factories(project: Project, config: ContractConfig) -> list[str]:
    """Factory names from ``_spec(...)``/``AlgorithmSpec(...)`` calls.

    The registry's spec constructor takes the algorithm name first and
    the factory second (or as ``factory=``); we harvest the syntactic
    name of that argument wherever the call appears in the registry
    module — inside the ``ALGORITHMS`` table literal or anywhere else.
    """
    mod = project.find_module(config.registry_module)
    if mod is None:
        return []
    names: list[str] = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        if fname not in ("_spec", "AlgorithmSpec"):
            continue
        factory = None
        if len(node.args) >= 2:
            factory = node.args[1]
        for kw in node.keywords:
            if kw.arg == "factory":
                factory = kw.value
        if isinstance(factory, ast.Name):
            names.append(factory.id)
        elif isinstance(factory, ast.Attribute):
            names.append(factory.attr)
    return _dedup(names)


# ----------------------------------------------------------------------
# local structural facts feeding the fixpoint


def _has_loop(fn: FunctionInfo) -> bool:
    for node in ast.walk(fn.node):
        if node is fn.node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested functions are their own entries
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            return True
    return False


def _walk_own(fn: FunctionInfo):
    """Walk ``fn``'s body without descending into nested functions."""
    stack = list(getattr(fn.node, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def build_callgraph(project: Project, config: ContractConfig) -> CallGraph:
    cg = CallGraph(project=project, config=config)
    cg._index()
    cg.registry_factories = _extract_registry_factories(project, config)

    # edges -------------------------------------------------------------
    for fn in project.functions():
        resolved: list[str] = []
        for site in fn.calls:
            resolved.extend(cg._resolve_site(fn, site))
        cg.edges[fn.key] = _dedup(resolved)
    for caller, callees in cg.edges.items():
        for callee in callees:
            cg.redges.setdefault(callee, []).append(caller)

    # local facts --------------------------------------------------------
    calls_checkpoint: dict[str, bool] = {}
    for fn in project.functions():
        cg.contains_loop[fn.key] = _has_loop(fn)
        cg.does_loop_work[fn.key] = cg.contains_loop[fn.key]
        calls_checkpoint[fn.key] = any(
            site.name in config.checkpoint_names for site in fn.calls
        )
        cg.reaches_checkpoint[fn.key] = calls_checkpoint[fn.key]

    # fixpoint -----------------------------------------------------------
    changed = True
    while changed:
        changed = False
        for key, callees in cg.edges.items():
            if not cg.does_loop_work[key] and any(
                cg.does_loop_work.get(c, False) for c in callees
            ):
                cg.does_loop_work[key] = True
                changed = True
            if not cg.reaches_checkpoint[key] and any(
                cg.reaches_checkpoint.get(c, False) for c in callees
            ):
                cg.reaches_checkpoint[key] = True
                changed = True

    # entry reachability -------------------------------------------------
    cg.entry_keys = {
        fn.key
        for fn in project.functions()
        if fn.name in config.entry_names
    }
    seen = set(cg.entry_keys)
    stack = list(cg.entry_keys)
    while stack:
        k = stack.pop()
        for c in cg.edges.get(k, ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    cg.reachable_from_entries = seen
    return cg

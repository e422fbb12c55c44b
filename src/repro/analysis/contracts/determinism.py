"""Pass 1 — determinism discipline (CTR101, CTR102, CTR103).

Reproducibility here rests on two injection seams: RNGs are constructed
from explicit seeds and passed down, and every time read goes through
:func:`repro.cancel.now` so a simulated clock can be installed.  This
pass proves the seams are the *only* doors:

* **CTR101** — a function reachable from a public entry calls into
  module-level RNG state (``random.random()``, ``np.random.shuffle``),
  whose hidden global seed makes runs irreproducible;
* **CTR102** — a wall-clock read (``time.time``, ``time.perf_counter``,
  ``datetime.now``…) outside the injectable-clock module, invisible to
  an installed :class:`SimClock`;
* **CTR103** — an RNG object stored in a module global, smuggling
  nondeterminism across subsystem boundaries without appearing in any
  function signature.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

__all__ = ["run"]

#: functions on the stdlib/numpy RNG *modules* that read or mutate the
#: hidden global stream (constructors of seedable objects are exempt)
_RNG_CONSTRUCTORS = {
    "Random",
    "SystemRandom",
    "default_rng",
    "RandomState",
    "Generator",
    "PCG64",
    "SeedSequence",
}
_WALL_FUNCS = {"time", "perf_counter", "monotonic", "process_time", "clock"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _import_maps(tree: ast.Module):
    """Local aliases of the time/random/numpy modules and their functions."""
    time_mods: set[str] = set()
    random_mods: set[str] = set()
    numpy_mods: set[str] = set()
    datetime_mods: set[str] = set()
    wall_names: set[str] = set()  # ``from time import perf_counter as pc``
    rng_names: set[str] = set()  # ``from random import randint``
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "time":
                    time_mods.add(local)
                elif alias.name == "random":
                    random_mods.add(local)
                elif alias.name in ("numpy", "numpy.random"):
                    numpy_mods.add(local)
                elif alias.name == "datetime":
                    datetime_mods.add(local)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_FUNCS:
                        wall_names.add(alias.asname or alias.name)
            elif node.module == "random":
                for alias in node.names:
                    if alias.name not in _RNG_CONSTRUCTORS:
                        rng_names.add(alias.asname or alias.name)
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name == "datetime":
                        datetime_mods.add(alias.asname or "datetime")
            elif node.module in ("numpy.random",) and node.names:
                for alias in node.names:
                    if alias.name not in _RNG_CONSTRUCTORS:
                        rng_names.add(alias.asname or alias.name)
    return time_mods, random_mods, numpy_mods, datetime_mods, wall_names, rng_names


def _receiver_chain(node: ast.expr) -> list[str]:
    """``np.random.shuffle`` → ``["np", "random", "shuffle"]`` (or [])."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _classify_rng_call(call: ast.Call, maps) -> str | None:
    """``"module-state"`` for global-stream calls, else ``None``."""
    _, random_mods, numpy_mods, _, _, rng_names = maps
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in rng_names:
            return "module-state"
        return None
    chain = _receiver_chain(func)
    if len(chain) < 2:
        return None
    head, attr = chain[0], chain[-1]
    if attr in _RNG_CONSTRUCTORS:
        return None
    if head in random_mods and len(chain) == 2:
        return "module-state"
    if head in numpy_mods and len(chain) >= 3 and chain[1] == "random":
        return "module-state"
    return None


def _is_wall_clock(call: ast.Call, maps) -> str | None:
    time_mods, _, _, datetime_mods, wall_names, _ = maps
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in wall_names:
            return func.id
        return None
    chain = _receiver_chain(func)
    if len(chain) < 2:
        return None
    head, attr = chain[0], chain[-1]
    if head in time_mods and attr in _WALL_FUNCS:
        return f"{head}.{attr}"
    if attr in _DATETIME_FUNCS and (
        head in datetime_mods or "datetime" in chain[:-1]
    ):
        return ".".join(chain)
    return None


def _is_rng_construction(value: ast.expr, maps) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in _RNG_CONSTRUCTORS
    chain = _receiver_chain(func)
    return bool(chain) and chain[-1] in _RNG_CONSTRUCTORS


def run(ctx) -> list[Finding]:
    findings: list[Finding] = []
    for mod in ctx.project.modules:
        if mod.syntax_error:
            continue
        maps = _import_maps(mod.tree)
        clock_exempt = any(
            mod.module == m or mod.module.endswith("/" + m)
            for m in ctx.config.clock_modules
        )

        # CTR102: wall-clock calls anywhere in the module ----------------
        if not clock_exempt:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _is_wall_clock(node, maps)
                if name is not None:
                    findings.append(
                        Finding(
                            tool="contracts",
                            rule="CTR102",
                            severity="error",
                            message=(
                                f"wall-clock read {name}() bypasses the "
                                "injectable clock; route through "
                                "repro.cancel.now() / deadline_in()"
                            ),
                            path=mod.path,
                            line=node.lineno,
                            column=node.col_offset,
                            context={"module": mod.module},
                        )
                    )

        # CTR101: module-level RNG state in entry-reachable code ---------
        for fn in mod.functions:
            if fn.key not in ctx.graph.reachable_from_entries:
                continue
            for site in fn.calls:
                if _classify_rng_call(site.node, maps) is not None:
                    findings.append(
                        Finding(
                            tool="contracts",
                            rule="CTR101",
                            severity="error",
                            message=(
                                f"{fn.qname}() is reachable from a public "
                                "entry and draws from module-level RNG "
                                "state; construct a seeded Generator and "
                                "pass it down"
                            ),
                            path=mod.path,
                            line=site.node.lineno,
                            column=site.node.col_offset,
                            context={"module": mod.module, "function": fn.qname},
                        )
                    )

        # CTR103: RNG objects parked in module globals -------------------
        for stmt in mod.tree.body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_rng_construction(value, maps):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            label = ", ".join(names) or "<module global>"
            findings.append(
                Finding(
                    tool="contracts",
                    rule="CTR103",
                    severity="error",
                    message=(
                        f"RNG object bound to module global {label!r}; RNGs "
                        "crossing subsystem boundaries must be explicit "
                        "parameters, not ambient globals"
                    ),
                    path=mod.path,
                    line=stmt.lineno,
                    column=stmt.col_offset,
                    context={"module": mod.module},
                )
            )
    return findings

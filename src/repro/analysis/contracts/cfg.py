"""Per-function control-flow graphs with exception edges.

One node per simple statement; compound statements contribute structure
(branch/loop/handler edges) rather than nodes of their own.  Three
virtual nodes bracket the function: ``ENTRY``, ``EXIT`` (normal return,
including falling off the end) and ``EXC_EXIT`` (an exception escaping
the function).  Any statement that *may raise* — conservatively, one
containing a call, a ``raise``, or a subscript — gets an edge to the
innermost enclosing handler/finally, or to ``EXC_EXIT`` when there is
none; a ``return`` inside ``try/finally`` routes through every
enclosing finally body before reaching ``EXIT``.  That is exactly the structure the span-pairing pass needs to ask
"is this span closed on every path, including the unhappy ones?", and
the entry-contract pass needs for its must-validate dataflow.

``with`` statements are kept opaque on purpose: a ``with`` pairs enter
and exit natively on every path, so its context expressions are exempt
from manual-pairing analysis (the local rule RPR002 requires them).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "build_cfg", "own_region"]

ENTRY = 0
EXIT = 1
EXC_EXIT = 2


@dataclass
class CFG:
    """Statement-level flow graph for one function body."""

    stmts: dict[int, ast.stmt] = field(default_factory=dict)
    succ: dict[int, set[int]] = field(
        default_factory=lambda: {ENTRY: set(), EXIT: set(), EXC_EXIT: set()}
    )
    #: node → where *its own* raise lands (absent when it cannot raise)
    exc_target: dict[int, int] = field(default_factory=dict)

    def add_node(self, stmt: ast.stmt) -> int:
        nid = 3 + len(self.stmts)
        self.stmts[nid] = stmt
        self.succ[nid] = set()
        return nid

    def add_edge(self, a: int, b: int) -> None:
        if a not in (EXIT, EXC_EXIT):
            self.succ[a].add(b)

    def nodes_for(self, pred) -> set[int]:
        """Nodes whose statement satisfies ``pred``."""
        return {n for n, s in self.stmts.items() if pred(s)}

    def paths_avoid(self, starts: set[int], blockers: set[int]) -> set[int]:
        """Exits reachable from ``starts`` without passing a blocker node.

        Returns the subset of ``{EXIT, EXC_EXIT}`` reachable; empty means
        every path hits a blocker first.  ``starts`` themselves are not
        treated as blockers.
        """
        seen: set[int] = set()
        stack = [n for n in starts]
        reached: set[int] = set()
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n in (EXIT, EXC_EXIT):
                reached.add(n)
                continue
            if n in blockers:
                continue
            stack.extend(self.succ.get(n, ()))
        return reached


def own_region(stmt: ast.stmt) -> list[ast.AST]:
    """The AST a CFG node *itself* represents.

    Compound statements own only their header expressions — their body
    statements have nodes of their own, and walking the whole subtree
    would attribute a nested call to every enclosing header.  ``Try``
    headers (and the virtual handler-entry nodes sharing their stmt)
    own nothing.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return list(stmt.decorator_list)
    return [stmt]


def _may_raise(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Call, ast.Subscript, ast.Attribute)):
            return True
    return False


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        # stack of (break_sinks, continue_target) for enclosing loops
        self._loops: list[tuple[set[int], int | None, list[int]]] = []
        # per enclosing try-with-finally: return nodes deferred into it —
        # a ``return`` runs every enclosing finally before leaving
        self._fin_stack: list[set[int]] = []

    # ------------------------------------------------------------------
    def build(self, body: list[ast.stmt]) -> CFG:
        frontier = self._seq(body, {ENTRY}, EXC_EXIT)
        for n in frontier:
            self.cfg.add_edge(n, EXIT)
        return self.cfg

    # ------------------------------------------------------------------
    def _seq(
        self, body: list[ast.stmt], frontier: set[int], exc: int
    ) -> set[int]:
        """Wire ``body`` after ``frontier``; returns the new frontier.

        ``exc`` is where an exception raised in this region lands.
        """
        for stmt in body:
            frontier = self._stmt(stmt, frontier, exc)
            if not frontier:
                break  # unreachable tail (after return/raise/…)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: set[int], exc: int) -> set[int]:
        cfg = self.cfg
        if isinstance(stmt, (ast.If,)):
            nid = cfg.add_node(stmt)  # the test
            self._link(frontier, nid, exc, test_only=True)
            then = self._seq(stmt.body, {nid}, exc)
            other = self._seq(stmt.orelse, {nid}, exc) if stmt.orelse else {nid}
            return then | other
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg.add_node(stmt)  # test / iterator advance
            self._link(frontier, head, exc)
            breaks: set[int] = set()
            self._loops.append((breaks, head, []))
            body_out = self._seq(stmt.body, {head}, exc)
            self._loops.pop()
            for n in body_out:
                cfg.add_edge(n, head)  # back edge
            out = {head} | breaks  # condition-false / iterator-exhausted
            if stmt.orelse:
                out = self._seq(stmt.orelse, {head}, exc) | breaks
            return out
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier, exc)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            nid = cfg.add_node(stmt)  # the with header (context managers)
            self._link(frontier, nid, exc)
            return self._seq(stmt.body, {nid}, exc)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nid = cfg.add_node(stmt)
            self._link(frontier, nid, exc, test_only=True)
            return {nid}  # nested bodies are separate CFGs
        # simple statements
        nid = cfg.add_node(stmt)
        self._link(frontier, nid, exc)
        if isinstance(stmt, ast.Return):
            if self._fin_stack:
                self._fin_stack[-1].add(nid)
            else:
                cfg.add_edge(nid, EXIT)
            return set()
        if isinstance(stmt, ast.Raise):
            cfg.add_edge(nid, exc)
            return set()
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].add(nid)
            return set()
        if isinstance(stmt, ast.Continue):
            if self._loops and self._loops[-1][1] is not None:
                cfg.add_edge(nid, self._loops[-1][1])
            return set()
        return {nid}

    def _link(
        self, frontier: set[int], nid: int, exc: int, *, test_only: bool = False
    ) -> None:
        for n in frontier:
            self.cfg.add_edge(n, nid)
        stmt = self.cfg.stmts[nid]
        header = stmt
        if not test_only and _may_raise_header(header):
            self.cfg.add_edge(nid, exc)
            self.cfg.exc_target[nid] = exc

    # ------------------------------------------------------------------
    def _try(self, stmt: ast.Try, frontier: set[int], exc: int) -> set[int]:
        cfg = self.cfg
        # A virtual node for the try header keeps the frontier in one place.
        head = cfg.add_node(stmt)
        self._link(frontier, head, exc, test_only=True)

        if stmt.finalbody:
            self._fin_stack.append(set())
        handler_target_nodes: list[int] = []
        handler_entry = cfg.add_node(stmt)  # virtual: "an exception arrived"
        cfg.succ[handler_entry] = set()

        body_out = self._seq(stmt.body, {head}, handler_entry)
        if stmt.orelse:
            body_out = self._seq(stmt.orelse, body_out, handler_entry)

        handler_outs: set[int] = set()
        if stmt.handlers:
            for handler in stmt.handlers:
                h_out = self._seq(
                    handler.body,
                    {handler_entry},
                    exc if not stmt.finalbody else handler_entry,
                )
                handler_outs |= h_out
            handler_target_nodes.append(handler_entry)
        if stmt.finalbody:
            # normal completion, deferred returns, and exceptions (from
            # body or handlers) all run the finally; model it once,
            # entered from every region, exiting every way
            pending_returns = self._fin_stack.pop()
            fin_in = body_out | handler_outs | pending_returns
            if not stmt.handlers:
                fin_in = fin_in | {handler_entry}
            fin_out = self._seq(stmt.finalbody, fin_in, exc)
            # the exceptional pass through finally re-raises afterwards
            for n in fin_out:
                cfg.add_edge(n, exc)
            if pending_returns:
                # the deferred returns resume leaving after the finally,
                # via the next enclosing finally when there is one
                if self._fin_stack:
                    self._fin_stack[-1] |= fin_out
                else:
                    for n in fin_out:
                        cfg.add_edge(n, EXIT)
            return fin_out
        if not stmt.handlers:
            # try/else with no except and no finally (rare): propagate
            cfg.add_edge(handler_entry, exc)
        else:
            # an exception no handler matches propagates
            cfg.add_edge(handler_entry, exc)
        return body_out | handler_outs


def _may_raise_header(stmt: ast.stmt) -> bool:
    """Whether the *header* of ``stmt`` (not nested blocks) may raise."""
    if isinstance(stmt, (ast.If, ast.While, ast.Try)):
        return False  # tests handled conservatively by body statements
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return any(
            isinstance(n, (ast.Call, ast.Subscript, ast.Attribute))
            for n in ast.walk(stmt.iter)
        )
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return True
    return _may_raise(stmt)


def build_cfg(fn_node) -> CFG:
    """The CFG of one function's body (nested defs are opaque nodes)."""
    return _Builder().build(fn_node.body)

"""Suppression pragmas of the static analyzer (``repro-contracts``).

* ``# contracts: disable=ID1,ID2`` (or ``disable=all``) suppresses the
  named rules (``CTR201``, ``RPR003``, ...);
* ``# contracts: module=<path>`` overrides the inferred module path
  (the fixture corpora use it to exercise path-scoped rules such as
  ``repro/ksp/`` from outside the source tree).

Statement-span expansion
------------------------
A pragma suppresses findings on every line of the *statement* it is
attached to, not just its own physical line.  Concretely, a pragma
found on any line of

* a **simple statement** spanning several lines (a wrapped call, a
  parenthesised assignment) suppresses findings reported anywhere in
  that statement — tools report at the expression start, which is often
  not the line carrying the trailing comment;
* the **decorator or header lines of a ``def`` / ``class``** suppresses
  findings anywhere inside that definition — decorators shift
  ``node.lineno`` to the ``def`` line, and rules like RPR005 report on
  body statements;
* the **header of any other compound statement** (``for``, ``while``,
  ``if``, ``with``, ``try``) suppresses over the (possibly multi-line)
  header only, *not* the body — a pragma on a loop line must not blanket
  everything inside the loop.

A pragma on a line belonging to no statement (a standalone comment)
applies to that line alone, preserving the historical behaviour.
"""

from __future__ import annotations

import ast
import re

__all__ = ["parse_pragmas", "expand_disabled_lines"]

_COMPOUND = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Match,
)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


_PRAGMA_RE = re.compile(r"#\s*contracts:\s*(disable|module)\s*=\s*([\w./,\- ]+)")


def parse_pragmas(source: str) -> tuple[dict[int, frozenset[str]], str | None]:
    """Raw per-line disabled-rule sets and the optional module override.

    The returned mapping is *unexpanded* — pass it through
    :func:`expand_disabled_lines` with the parsed tree to apply the
    statement-span semantics documented above.
    """
    disabled: dict[int, frozenset[str]] = {}
    module_override: str | None = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if not m:
            continue
        kind, value = m.group(1), m.group(2)
        if kind == "module":
            module_override = value.strip()
        else:
            rules = frozenset(v.strip().upper() for v in value.split(","))
            disabled[lineno] = disabled.get(lineno, frozenset()) | rules
    return disabled, module_override


def _statement_spans(tree: ast.AST) -> list[tuple[int, int, int]]:
    """``(attach_start, attach_end, suppress_end)`` per statement.

    ``attach_*`` bound the lines a pragma may sit on to claim the
    statement; ``suppress_end`` bounds the lines its suppression covers
    (always starting at ``attach_start``).
    """
    spans: list[tuple[int, int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None)
        if end is None:  # pragma: no cover - py<3.8 only
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            start = min(start, min(d.lineno for d in decorators))
        if isinstance(node, _DEFS):
            # attach on decorators/signature; suppress the whole body
            body = node.body
            header_end = body[0].lineno - 1 if body else end
            spans.append((start, header_end, end))
        elif isinstance(node, _COMPOUND):
            # attach on (possibly multi-line) header; suppress header only
            first = node.body[0].lineno if node.body else end + 1
            header_end = max(start, first - 1)
            spans.append((start, header_end, header_end))
        else:
            # simple statement: the whole extent is both attach and span
            spans.append((start, end, end))
    return spans


def expand_disabled_lines(
    tree: ast.AST, raw: dict[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Expand raw pragma lines over the statements carrying them.

    For each pragma line, the innermost statement whose *attach* region
    contains it claims the pragma, and the pragma's rules are disabled
    on every line of that statement's *suppress* span.  Unclaimed pragma
    lines keep line-local scope.
    """
    spans = _statement_spans(tree)
    out: dict[int, frozenset[str]] = {}

    def add(line: int, rules: frozenset[str]) -> None:
        out[line] = out.get(line, frozenset()) | rules

    for pragma_line, rules in raw.items():
        claimed = [
            (start, attach_end, sup_end)
            for start, attach_end, sup_end in spans
            if start <= pragma_line <= attach_end
        ]
        if not claimed:
            add(pragma_line, rules)
            continue
        # innermost claimant: latest start, then tightest suppression span
        start, _, sup_end = max(claimed, key=lambda s: (s[0], -(s[2] - s[0])))
        for line in range(start, sup_end + 1):
            add(line, rules)
    return out

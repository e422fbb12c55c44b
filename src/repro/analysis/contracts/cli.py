"""The ``repro-contracts`` command line.

    repro-contracts src/repro                      # text, fail on findings
    repro-contracts --format sarif src/repro       # CI artifact
    repro-contracts --baseline contracts_baseline.json src/repro
    repro-contracts --report results/contracts_report.txt src/repro

Exit status: 0 when no *new* finding (new = not in the baseline, or any
finding when no baseline is given), 1 otherwise, 2 on usage/parse
errors.  Output is deterministic — two runs over the same tree produce
byte-identical text/JSON/SARIF.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.contracts.analyzer import analyze_paths
from repro.analysis.contracts.baseline import (
    load_baseline,
    split_by_baseline,
    stale_entries,
    write_baseline,
)
from repro.analysis.contracts.registry import PASSES, RULES
from repro.analysis.contracts.report import write_report
from repro.analysis.contracts.sarif import findings_to_sarif
from repro.analysis.findings import findings_to_json, render_findings

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-contracts",
        description="whole-program contract analyzer for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="known-findings file; only findings absent from it fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="also write the coverage/finding self-report to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the pass and rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for info in PASSES:
        lines.append(f"{info.pass_id}: {info.title}")
        for rule in info.rules:
            lines.append(f"  {rule}  {RULES[rule]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    for p in args.paths:
        if not Path(p).exists():
            print(f"repro-contracts: no such path: {p}", file=sys.stderr)
            return 2
    try:
        result = analyze_paths(args.paths)
    except SyntaxError as exc:
        print(f"repro-contracts: {exc}", file=sys.stderr)
        return 2

    if args.report:
        write_report(result, args.report)

    if args.baseline and args.write_baseline:
        write_baseline(args.baseline, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    new = result.findings
    known: list = []
    baseline_note = ""
    if args.baseline:
        if not Path(args.baseline).exists():
            print(
                f"repro-contracts: baseline not found: {args.baseline}",
                file=sys.stderr,
            )
            return 2
        entries = load_baseline(args.baseline)
        new, known = split_by_baseline(result.findings, entries)
        stale = stale_entries(result.findings, entries)
        if stale:
            baseline_note = (
                f"{len(stale)} baseline entr"
                f"{'y is' if len(stale) == 1 else 'ies are'} stale (fixed); "
                f"refresh with --write-baseline"
            )

    if args.format == "json":
        print(findings_to_json(new))
    elif args.format == "sarif":
        print(findings_to_sarif(new))
    else:
        if new:
            print(render_findings(new))
        summary = (
            f"repro-contracts: {len(new)} new finding(s)"
            + (f", {len(known)} baselined" if known else "")
            + (f", {result.suppressed} suppressed" if result.suppressed else "")
        )
        print(summary, file=sys.stderr)
    if baseline_note:
        print(f"repro-contracts: {baseline_note}", file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""``peek-serve`` — drive the serving layer from the command line.

A smoke/load driver for :class:`~repro.serve.QueryServer`: runs a batch of
seeded random queries against a benchmark-suite graph under a per-query
budget, optionally with an injected fault campaign, and prints the outcome
distribution.

Examples::

    peek-serve --graph GT --scale tiny --queries 20 --timeout 0.5 --k 8
    peek-serve --graph ER --queries 10 --inject prune.scan:timeout:1 --seed 7
"""

from __future__ import annotations

import argparse

from repro.serve.faults import FAULT_KINDS, RANKFAIL, FaultPlan, FaultRule, parse_fault_spec
from repro.serve.server import OUTCOMES, QueryServer

__all__ = ["main"]


def _checkpoint_rule(spec: str) -> FaultRule:
    """``--inject`` type: a checkpoint fault rule."""
    try:
        rule = parse_fault_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if rule.kind == RANKFAIL:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: rankfail fires at collectives, and peek-serve runs none"
        )
    return rule


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek-serve",
        description="Serve seeded random KSP queries under a deadline.",
    )
    p.add_argument("--graph", default="GT", help="suite graph name (default GT)")
    p.add_argument(
        "--scale",
        default="tiny",
        choices=("tiny", "small", "medium"),
        help="benchmark suite scale (default tiny)",
    )
    p.add_argument("--queries", type=int, default=10, help="query count")
    p.add_argument("--k", type=int, default=8, help="paths per query")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query budget in seconds (default: unbounded)",
    )
    p.add_argument("--seed", type=int, default=2023, help="query-pair seed")
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        type=_checkpoint_rule,
        metavar="STAGE:KIND[:AT_HIT]",
        help="checkpoint fault rule, e.g. prune.scan:timeout:1 or "
        "sssp:transient:3 (kinds: "
        f"{', '.join(k for k in FAULT_KINDS if k != RANKFAIL)}); repeatable",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.graph.suite import random_st_pairs, suite_graph

    g = suite_graph(args.graph, args.scale)
    server = QueryServer(g)
    pairs = random_st_pairs(g, args.queries, seed=args.seed)
    plan = FaultPlan(args.inject, seed=args.seed) if args.inject else None

    def run_all() -> None:
        for i, (s, t) in enumerate(pairs):
            res = server.serve(s, t, args.k, timeout=args.timeout)
            print(
                f"  #{i:<3d} {s}->{t}  outcome={res.outcome:<9s} "
                f"tier={res.tier or '-':<7s} paths={len(res.paths):<3d} "
                f"attempts={res.attempts} {res.elapsed * 1e3:8.1f} ms"
                + (f"  [{res.error}]" if res.error else "")
            )

    print(
        f"Serving {args.queries} queries on {args.graph} "
        f"(scale={args.scale}, K={args.k}, timeout={args.timeout}):"
    )
    if plan is not None:
        with plan.installed():
            run_all()
        print(f"faults fired: {plan.fired or 'none'}")
    else:
        run_all()
    dist = {o: server.counters[o] for o in OUTCOMES}
    print(f"outcomes: {dist}  retries={server.counters['retries']}")
    return 0 if server.counters["failed"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

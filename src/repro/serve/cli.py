"""``peek-serve`` — drive the serving layer from the command line.

A smoke/load driver for :class:`~repro.serve.QueryServer`: runs a batch of
seeded random queries against a benchmark-suite graph under a per-query
budget, optionally with an injected fault campaign, and prints the outcome
distribution.

Examples::

    peek-serve --graph GT --scale tiny --queries 20 --timeout 0.5 --k 8
    peek-serve --graph ER --queries 10 --inject prune.scan:timeout --seed 7
"""

from __future__ import annotations

import argparse

from repro.serve.faults import FAULT_KINDS, FaultInjector, FaultRule, parse_fault_spec
from repro.serve.server import OUTCOMES, QueryServer

__all__ = ["main"]


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
        metavar="STAGE:KIND[:AT_HIT][@RANK]",
        help="fault rule, e.g. prune.scan:timeout, sssp:transient:3 or "
        "dist.sssp.route:rankfail:5@2 "
        f"(kinds: {', '.join(FAULT_KINDS)}); repeatable",
    )
    return p


def _parse_rule(spec: str) -> FaultRule:
    try:
        return parse_fault_spec(spec)
    except ValueError as exc:
        raise SystemExit(f"bad --inject spec: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.graph.suite import random_st_pairs, suite_graph

    g = suite_graph(args.graph, args.scale)
    server = QueryServer(g)
    pairs = random_st_pairs(g, args.queries, seed=args.seed)

    rules = [_parse_rule(s) for s in args.inject]
    injector = FaultInjector(rules, seed=args.seed) if rules else None

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
    if injector is not None:
        with injector.installed():
            run_all()
        print(f"faults fired: {injector.fired or 'none'}")
    else:
        run_all()
    dist = {o: server.counters[o] for o in OUTCOMES}
    print(f"outcomes: {dist}  retries={server.counters['retries']}")
    return 0 if server.counters["failed"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""``peek-fabric`` — one seeded fabric run from the command line.

The CI ``fabric-faults`` job runs the same invocation twice and ``cmp``'s
the JSON outputs — byte identity is the contract::

    peek-fabric --graph LJ --replicas 3 --workload mmpp \\
        --inject "fabric.heartbeat:rankfail:3@R1" --json fabric.json

``--inject`` takes the shared fault grammar
``STAGE:KIND[:AT_HIT][@RANK | @R<N>]`` (see
:func:`repro.serve.faults.parse_fault_spec`): ``rankfail`` rules kill
replica ``N`` (rank ``N`` of the fleet) at a collective, every other
kind fires at the replicas' pipeline checkpoints.  ``--mutations`` adds
a seeded incident stream so kills race live-graph updates;
``--elastic`` enables the scaling policy.

:func:`run_scenario` is the one fleet recipe behind the CLI and
``benchmarks/bench_fabric.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.dyn.stream import IncidentStream
from repro.fabric.elastic import ElasticPolicy
from repro.fabric.fabric import (
    FLEET_SERVER,
    HEARTBEAT_INTERVAL,
    RECOVERY_BUDGET_HEARTBEATS,
    SHARDS,
    FabricConfig,
    ServingFabric,
    report_row,
    slo_text,
)
from repro.graph.suite import SCALES, suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.serve.faults import FaultPlan, parse_fault_spec

__all__ = ["main", "build_parser", "run_scenario", "scenario_label"]

#: the "medium MMPP" workload of the acceptance criteria: bursts to 4x
#: the floor rate, mean offered load sized for a 3-replica tiny fabric
MMPP_SPEC = {
    "kind": "mmpp",
    "rate_low": 200.0,
    "rate_high": 800.0,
    "dwell_low": 0.15,
    "dwell_high": 0.05,
}

#: hotspot traffic over the largest SCC: every sampled pair is
#: reachable, so availability measures the fabric, not the topology's
#: holes
MIX_SPEC = {"kind": "hotspot", "scc": True, "k": {"dist": "small_heavy", "k_max": 8}}


def _fault_spec(spec: str) -> str:
    """``--inject`` type: a spec :func:`parse_fault_spec` accepts, kept
    as written (the payload echoes it)."""
    try:
        parse_fault_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def scenario_label(workload: str, inject) -> str:
    """``<workload>`` plus ``+<kind>`` per injected fault kind, in spec
    order (a ``rankfail`` rule reads ``kill``): ``mmpp+timeout``."""
    kinds = [parse_fault_spec(spec).kind for spec in inject]
    kinds = ["kill" if kind == "rankfail" else kind for kind in kinds]
    return "+".join(dict.fromkeys([workload, *kinds]))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek-fabric",
        description="Replicated, sharded KSP serving with seeded kills.",
    )
    p.add_argument("--graph", default="LJ", help="suite graph name")
    p.add_argument("--scale", default="tiny", choices=SCALES)
    p.add_argument("--replicas", type=int, default=3, help="serving replicas")
    p.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        help="provisioned replica slots (default: --replicas, +2 with --elastic)",
    )
    p.add_argument(
        "--workload",
        default="mmpp",
        choices=("steady", "mmpp"),
        help="steady poisson or the bursty medium-MMPP pattern",
    )
    p.add_argument("--rate", type=float, default=300.0, help="steady rate (qps)")
    p.add_argument("--horizon", type=float, default=1.0, help="simulated seconds")
    p.add_argument("--max-queries", type=int, default=2000)
    p.add_argument("--timeout", type=float, default=0.5, help="per-query budget")
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        type=_fault_spec,
        metavar="SPEC",
        help="fault spec STAGE:KIND[:AT_HIT][@RANK | @R<N>] (repeatable)",
    )
    p.add_argument(
        "--mutations",
        action="store_true",
        help="race a seeded incident stream against the queries",
    )
    p.add_argument(
        "--elastic", action="store_true", help="enable the scaling policy"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write the report payload here")
    p.add_argument("--out", default=None, help="write the SLO text here")
    p.add_argument("--quiet", action="store_true", help="suppress the SLO table")
    return p


def run_scenario(
    scenario: str,
    graph,
    seed: int,
    *,
    workload: dict,
    replicas: int = 3,
    max_replicas: int | None = None,
    timeout: float = 0.5,
    inject=(),
    elastic: bool = False,
    mutations: bool = False,
    horizon: float = 1.0,
    max_queries: int = 2000,
) -> tuple[dict, FabricConfig]:
    """Build one fleet from the ``FLEET_SERVER`` recipe, run ``workload``
    on it and return its :func:`report_row` plus the fleet's config.

    ``max_replicas`` defaults to ``replicas``, plus two standby slots
    under ``elastic``; ``inject`` is a list of fault specs and
    ``mutations`` races a seeded incident stream against the queries.
    """
    if max_replicas is None:
        max_replicas = replicas + (2 if elastic else 0)
    config = FabricConfig(
        server=replace(FLEET_SERVER, timeout=timeout, replicas=replicas),
        max_replicas=max_replicas,
        elastic=ElasticPolicy(min_replicas=max(1, replicas - 1)) if elastic else None,
        seed=seed,
    )
    plan = FaultPlan.from_specs(inject, seed=seed) if inject else None
    fabric = ServingFabric(
        graph, make_mix(graph, dict(MIX_SPEC)), config=config, fault_plan=plan
    )
    batches = (
        IncidentStream(seed=seed, rate=40.0).batches(fabric.authority, horizon)
        if mutations
        else None
    )
    report = fabric.run(
        arrival_process(dict(workload)),
        horizon=horizon,
        max_queries=max_queries,
        mutations=batches,
    )
    return report_row(scenario, report), config


def run_from_args(args: argparse.Namespace) -> dict:
    """Build the fabric from parsed args and run it; returns the payload."""
    spec = (
        dict(MMPP_SPEC)
        if args.workload == "mmpp"
        else {"kind": "poisson", "rate": args.rate}
    )
    row, config = run_scenario(
        scenario_label(args.workload, args.inject),
        suite_graph(args.graph, args.scale),
        args.seed,
        workload=spec,
        replicas=args.replicas,
        max_replicas=args.max_replicas,
        timeout=args.timeout,
        inject=args.inject,
        elastic=args.elastic,
        mutations=args.mutations,
        horizon=args.horizon,
        max_queries=args.max_queries,
    )
    return {
        "benchmark": "fabric",
        "graph": args.graph,
        "scale": args.scale,
        "seed": args.seed,
        "horizon": args.horizon,
        "workload": spec,
        "inject": list(args.inject),
        "config": {
            "replicas": args.replicas,
            "max_replicas": config.max_replicas,
            "shards": SHARDS,
            "timeout": args.timeout,
            "heartbeat_interval": HEARTBEAT_INTERVAL,
            "recovery_budget_heartbeats": RECOVERY_BUDGET_HEARTBEATS,
            "elastic": bool(args.elastic),
        },
        "rows": [row],
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # graph cloning in ServingFabric.__init__ is not query-driven; every
    # query still validates inside QueryServer.serve
    payload = run_from_args(args)  # contracts: disable=CTR501 (validated in serve)
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
    text = slo_text(
        payload["rows"],
        title=(
            f"fabric SLO — graph={args.graph} scale={args.scale} "
            f"seed={args.seed} horizon={args.horizon}s"
        ),
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    if not args.quiet:
        print(text)
    row = payload["rows"][0]
    print(
        f"\navailability={row['availability']:.4f} kills={row['kills']} "
        f"ttr_max={row['ttr_max']} recovery_within_budget="
        f"{row['recovery_within_budget']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

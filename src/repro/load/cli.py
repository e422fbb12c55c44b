"""``peek-load`` — the simulated-serving command line.

Every subcommand runs on simulated time, so the same seed always gives
the same bytes (see ``docs/load_testing.md``)::

    peek-load run --table tiny --json BENCH_serving.json \\
        --summary results/serving_capacity.txt      # a stock run table
    peek-load record --rate 200 --horizon 0.5 --out t.jsonl  # a trace
    peek-load replay --trace t.jsonl                # on the trace's graph
    peek-load smoke --json dyn.json                 # live-graph smoke
    peek-load fabric --inject "fabric.heartbeat:rankfail:3@R1" \\
        --json fabric.json                          # one fleet scenario

CI runs ``smoke`` (job ``dyn-serving``) and ``fabric`` (job
``fabric-faults``) twice each and ``cmp``'s the artefacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from itertools import takewhile
from pathlib import Path
from random import Random

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
from repro.graph.suite import SCALES, SUITE_NAMES, suite_graph
from repro.load.arrivals import PoissonArrivals, arrival_process
from repro.load.mixes import make_mix
from repro.load.runner import TABLES, ServerConfig, run_table, write_outputs
from repro.load.trace import dump_trace, load_trace, record_open_loop
from repro.serve.faults import FaultPlan, parse_fault_spec
from repro.serve.query import Query

__all__ = ["main", "run_scenario", "run_smoke", "scenario_label"]

#: the smoke's query arrival rate (qps), incident batches per second and
#: hot query pool size
SMOKE_QPS = 40.0
SMOKE_MUTATION_RATE = 2.0
SMOKE_POOL = 6
#: decorrelate the three seeded streams of one smoke run
POOL_STREAM_OFFSET = 0x517CC1B7
STREAM_SEED_OFFSET = 0x2545F491

#: the "medium MMPP" workload of the acceptance criteria: bursts to 4x
#: the floor rate, mean offered load sized for a 3-replica tiny fabric
MMPP_SPEC = {
    "kind": "mmpp",
    "rate_low": 200.0,
    "rate_high": 800.0,
    "dwell_low": 0.15,
    "dwell_high": 0.05,
}
#: the steady workload the failure scenarios are judged against
STEADY_SPEC = {"kind": "poisson", "rate": 300.0}

#: hotspot traffic over the largest SCC: every sampled pair is
#: reachable, so availability measures the fabric, not the topology's
#: holes
MIX_SPEC = {"kind": "hotspot", "scc": True, "k": {"dist": "small_heavy", "k_max": 8}}


def _positive(cast):
    """An argparse ``type``: ``cast`` of the text, finite and > 0 (a
    zero horizon would run no query and report full availability)."""

    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse: "invalid float value: 'x'"
    return parse


def _fault_spec(spec: str) -> str:
    """``--inject`` type: a spec :func:`parse_fault_spec` accepts, kept
    as written (the payload echoes it)."""
    try:
        parse_fault_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _shared_options(*, artefacts: bool = True) -> argparse.ArgumentParser:
    """A parent parser with the options ``replay``, ``smoke`` and
    ``fabric`` share (``record`` takes them without the artefact ones).
    Fresh per subcommand: argparse hands a parent's option objects to
    every child, so one child's ``set_defaults`` would reach the others."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--graph", default="LJ", choices=SUITE_NAMES, help="suite graph")
    p.add_argument("--scale", default="tiny", choices=SCALES)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--timeout", type=_positive(float), help="per-query budget (s)")
    p.add_argument("--horizon", type=_positive(float), default=1.0, help="simulated seconds")
    if artefacts:
        p.add_argument("--json", help="write the JSON payload here")
        p.add_argument("--summary", help="write the text summary here")
        p.add_argument("--quiet", action="store_true", help="do not print the summary")
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek-load",
        description="Seeded workload generation and simulated serving runs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a stock run table")
    run.add_argument("--table", default="tiny", choices=sorted(TABLES))
    run.add_argument("--seed", type=int, default=0, help="table master seed")
    run.add_argument("--json", default="BENCH_serving.json", help="payload path")
    run.add_argument(
        "--summary",
        default="results/serving_capacity.txt",
        help="capacity-table path ('' to skip)",
    )
    run.add_argument("--quiet", action="store_true", help="no per-cell progress lines")

    rec = sub.add_parser(
        "record", parents=[_shared_options(artefacts=False)], help="record a trace"
    )
    rec.add_argument("--pattern", default="poisson", choices=("poisson", "mmpp", "diurnal"))
    rec.add_argument("--rate", type=_positive(float), default=100.0, help="poisson rate (qps)")
    rec.add_argument("--rate-low", type=_positive(float), default=50.0, help="mmpp low rate")
    rec.add_argument("--rate-high", type=_positive(float), default=500.0, help="mmpp high rate")
    rec.add_argument("--dwell-low", type=_positive(float), default=0.2, help="mmpp low dwell")
    rec.add_argument("--dwell-high", type=_positive(float), default=0.05, help="mmpp high dwell")
    rec.add_argument("--amplitude", type=float, default=0.8, help="diurnal amplitude")
    rec.add_argument("--period", type=_positive(float), default=1.0, help="diurnal period (s)")
    rec.add_argument("--mix", default="uniform", choices=("uniform", "hotspot"))
    rec.add_argument("--max-queries", type=_positive(int))
    rec.add_argument("--out", required=True, help="trace output path (JSONL)")

    rep = sub.add_parser("replay", parents=[_shared_options()], help="replay a trace")
    rep.add_argument("--trace", required=True, help="trace path (JSONL)")
    rep.set_defaults(graph=None, scale=None, horizon=None)

    smoke = sub.add_parser("smoke", parents=[_shared_options()], help="live-graph smoke")
    smoke.set_defaults(horizon=4.0, json="BENCH_dyn_smoke.json")

    fab = sub.add_parser("fabric", parents=[_shared_options()], help="one fleet scenario")
    fab.add_argument("--replicas", type=_positive(int), default=3)
    fab.add_argument("--workload", default="mmpp", choices=("steady", "mmpp"))
    fab.add_argument(
        "--inject",
        action="append",
        default=[],
        type=_fault_spec,
        metavar="SPEC",
        help="fault spec STAGE:KIND[:AT_HIT][@RANK | @R<N>] (repeatable)",
    )
    fab.add_argument("--mutations", action="store_true", help="race an incident stream")
    fab.add_argument("--elastic", action="store_true", help="enable the scaling policy")
    fab.set_defaults(timeout=0.5)
    return p


def _pattern_spec(args: argparse.Namespace) -> dict:
    if args.pattern == "poisson":
        return {"kind": "poisson", "rate": args.rate}
    if args.pattern == "mmpp":
        return {
            "kind": "mmpp",
            "rate_low": args.rate_low,
            "rate_high": args.rate_high,
            "dwell_low": args.dwell_low,
            "dwell_high": args.dwell_high,
        }
    return {
        "kind": "diurnal",
        "base_rate": args.rate,
        "amplitude": args.amplitude,
        "period": args.period,
    }


def scenario_label(workload: str, inject) -> str:
    """``<workload>`` plus ``+<kind>`` per injected fault kind, in spec
    order (a ``rankfail`` rule reads ``kill``): ``mmpp+timeout``."""
    kinds = [parse_fault_spec(spec).kind for spec in inject]
    kinds = ["kill" if kind == "rankfail" else kind for kind in kinds]
    return "+".join(dict.fromkeys([workload, *kinds]))


def run_scenario(
    scenario: str,
    graph,
    seed: int,
    *,
    workload: dict,
    replicas: int = 3,
    timeout: float = 0.5,
    inject=(),
    elastic: bool = False,
    mutations: bool = False,
    horizon: float = 1.0,
    max_queries: int = 2000,
) -> tuple[dict, FabricConfig]:
    """Build one fleet from the ``FLEET_SERVER`` recipe, run ``workload``
    on it and return its :func:`report_row` plus the fleet's config.

    The one fleet recipe behind ``peek-load fabric`` and
    ``benchmarks/bench_fabric.py``.  The fleet provisions ``replicas``
    slots, plus two standby slots under ``elastic``; ``inject`` is a
    list of fault specs (the grammar of
    :func:`~repro.serve.faults.parse_fault_spec`) and ``mutations``
    races a seeded incident stream against the queries.
    """
    config = FabricConfig(
        server=replace(FLEET_SERVER, timeout=timeout, replicas=replicas),
        max_replicas=replicas + (2 if elastic else 0),
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


def run_smoke(
    *,
    graph_name: str = "LJ",
    scale: str = "tiny",
    seed: int = 0,
    horizon: float = 4.0,
    timeout: float | None = None,
    stream_kwargs: dict | None = None,
) -> dict:
    """One deterministic live-graph serving smoke; returns the JSON-ready
    payload (run metrics, server counters, cache/reuse accounting, final
    graph version).

    A one-replica fleet serves ``SMOKE_QPS`` Poisson arrivals while a
    seeded :class:`~repro.dyn.stream.IncidentStream` mutates its live
    graph at ``SMOKE_MUTATION_RATE`` batches per second.  The queries
    cycle a hot pool of ``SMOKE_POOL`` ``(source, target, k)`` tuples
    rather than sampling uniformly: repeated queries are what the
    prune-bound reuse path exists for, so the smoke shows a non-zero
    reuse rate by construction.  ``stream_kwargs`` are forwarded to the
    stream (the benchmark sweeps incident mixes with them, e.g. an
    increase-only stream with ``p_clear=0, p_reopen=0``).
    """
    graph = suite_graph(graph_name, scale)
    config = ServerConfig(name="smoke", timeout=timeout, max_in_flight=64)
    fabric = ServingFabric(graph, config=FabricConfig(server=config, seed=seed))
    server = fabric.replicas[0].server

    n = graph.num_vertices
    rng_pool = Random(seed + POOL_STREAM_OFFSET)
    pool: list[tuple[int, int, int]] = []
    while len(pool) < SMOKE_POOL:
        s, t = rng_pool.randrange(n), rng_pool.randrange(n)
        if s != t:
            pool.append((s, t, rng_pool.choice((2, 4, 8))))

    arrivals = PoissonArrivals(rate=SMOKE_QPS).arrivals(Random(seed), horizon)
    queries = [
        Query(*pool[i % len(pool)], timeout=timeout, request_id=f"q{i:06d}", issued_at=at)
        for i, at in enumerate(arrivals)
    ]

    stream = IncidentStream(
        seed=seed + STREAM_SEED_OFFSET,
        rate=SMOKE_MUTATION_RATE,
        **(stream_kwargs or {}),
    )
    # the feed stops at the last query: a batch after it would rebind the
    # server with no query left to use the result.  takewhile pulls the
    # stream lazily, so every batch it lets through is unchanged
    last = queries[-1].issued_at if queries else float("-inf")
    mutations = takewhile(
        lambda batch: batch.at <= last, stream.batches(fabric.authority, horizon)
    )
    report = fabric.run(queries, horizon=horizon, mutations=mutations)

    info = server.batch.cache_info
    reuse_total = info["prune_reused"] + info["prune_cold"]
    return {
        "benchmark": "dyn_serving_smoke",
        "graph": graph_name,
        "scale": scale,
        "seed": seed,
        "horizon": horizon,
        "qps": SMOKE_QPS,
        "mutation_rate": SMOKE_MUTATION_RATE,
        "pool": SMOKE_POOL,
        "metrics": report.metrics(),
        "server_counters": dict(sorted(server.counters.items())),
        "cache_info": dict(sorted(info.items())),
        "prune_reuse_rate": round(info["prune_reused"] / reuse_total, 6)
        if reuse_total
        else 0.0,
        "final_version": fabric.authority.version,
    }


def _write_artefacts(
    args: argparse.Namespace, payload: dict, text: str, *, sort_keys: bool = False
) -> None:
    """Write ``payload`` as JSON to ``--json`` and ``text`` to
    ``--summary`` (each when set), then print ``text`` unless
    ``--quiet``."""
    bodies = (
        (args.json, json.dumps(payload, indent=2, sort_keys=sort_keys)),
        (args.summary, text),
    )
    for path, body in bodies:
        if path:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body + "\n")
    if not args.quiet:
        print(text)


def _cmd_run(args: argparse.Namespace) -> int:
    table = TABLES[args.table](seed=args.seed)
    progress = None if args.quiet else lambda line: print(line)
    payload = run_table(table, progress=progress)
    write_outputs(
        payload,
        json_path=args.json,
        summary_path=args.summary or None,
    )
    shed = sum(1 for r in payload["rows"] if r["shed_rate"] > 0)
    degraded = sum(1 for r in payload["rows"] if r["degraded_rate"] > 0)
    print(
        f"\n{len(payload['rows'])} cells -> {args.json}"
        f" ({shed} with shedding, {degraded} with degradation)"
    )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    spec = _pattern_spec(args)
    graph = suite_graph(args.graph, args.scale)
    mix_spec = {"kind": args.mix}
    queries = record_open_loop(
        arrival_process(spec),
        make_mix(graph, mix_spec),
        horizon=args.horizon,
        seed=args.seed,
        timeout=args.timeout,
        max_queries=args.max_queries,
    )
    dump_trace(
        queries,
        args.out,
        source={
            "pattern": spec,
            "mix": mix_spec,
            "graph": args.graph,
            "scale": args.scale,
            "horizon": args.horizon,
            "seed": args.seed,
        },
    )
    print(f"{len(queries)} queries -> {args.out}")
    return 0


def _fit_trace(args: argparse.Namespace, error) -> list[Query]:
    """Load ``--trace`` and settle the graph it replays on.

    The graph and scale come from the trace's meta record; ``--graph``
    and ``--scale`` only fill in for a trace that names none (LJ/tiny
    failing both).  A flag that contradicts the meta, or a query outside
    the graph's vertex range, is a usage ``error`` raised before any
    fleet is built.
    """
    try:
        queries = load_trace(args.trace)
        with open(args.trace) as fh:
            source = json.loads(fh.readline()).get("source") or {}
    except (OSError, ValueError) as exc:
        error(str(exc))
    for key, fallback in (("graph", "LJ"), ("scale", "tiny")):
        recorded, flag = source.get(key), getattr(args, key)
        if recorded and flag and flag != recorded:
            error(f"{args.trace} was recorded with --{key} {recorded}, not {flag}")
        setattr(args, key, recorded or flag or fallback)
    n = suite_graph(args.graph, args.scale).num_vertices
    for q in queries:
        if not (0 <= q.source < n and 0 <= q.target < n):
            error(
                f"{args.trace}: query {q.request_id} ({q.source}, {q.target}) "
                f"is out of range [0, {n}) for {args.graph}/{args.scale}"
            )
    return queries


def _cmd_replay(args: argparse.Namespace) -> int:
    queries = args.queries
    horizon = args.horizon
    if horizon is None:
        horizon = max((q.issued_at for q in queries), default=0.0) + 1e-9
    else:
        queries = [q for q in queries if q.issued_at < horizon]
    config = ServerConfig(name="replay", timeout=args.timeout)
    # no mix: a trace carries its own query content
    fabric = ServingFabric(
        suite_graph(args.graph, args.scale),
        config=FabricConfig(server=config, seed=args.seed),
    )
    metrics = fabric.run(queries, horizon=horizon).metrics()
    _write_artefacts(args, metrics, json.dumps(metrics, indent=2))
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    payload = run_smoke(
        graph_name=args.graph,
        scale=args.scale,
        seed=args.seed,
        horizon=args.horizon,
        timeout=args.timeout,
    )
    m = payload["metrics"]
    info = payload["cache_info"]
    lines = [
        "dyn-serving smoke "
        f"({payload['graph']}/{payload['scale']}, seed {payload['seed']})",
        f"  queries served      {m['served']}/{m['queries']}",
        f"  mutation batches    {m['mutation_batches']} "
        f"(final version {payload['final_version']})",
        f"  prune reuse rate    {payload['prune_reuse_rate']} "
        f"({info['prune_reused']} reused / {info['prune_cold']} cold)",
        f"  cache entries       {info['retained']} retained "
        f"({info['repaired']} trees repaired), "
        f"{info['invalidated']} invalidated across rebinds",
    ]
    _write_artefacts(args, payload, "\n".join(lines), sort_keys=True)
    if args.json and not args.quiet:
        print(f"-> {args.json}")
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    spec = dict(MMPP_SPEC if args.workload == "mmpp" else STEADY_SPEC)
    row, config = run_scenario(
        scenario_label(args.workload, args.inject),
        suite_graph(args.graph, args.scale),
        args.seed,
        workload=spec,
        replicas=args.replicas,
        timeout=args.timeout,
        inject=args.inject,
        elastic=args.elastic,
        mutations=args.mutations,
        horizon=args.horizon,
    )
    payload = {
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
    title = (
        f"fabric SLO — graph={args.graph} scale={args.scale} "
        f"seed={args.seed} horizon={args.horizon}s"
    )
    _write_artefacts(args, payload, slo_text([row], title=title))
    print(
        f"\navailability={row['availability']:.4f} kills={row['kills']} "
        f"ttr_max={row['ttr_max']} recovery_within_budget="
        f"{row['recovery_within_budget']}"
    )
    return 0


#: subcommand -> handler
_COMMANDS = {
    "run": _cmd_run,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "smoke": _cmd_smoke,
    "fabric": _cmd_fabric,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay":
        args.queries = _fit_trace(args, parser.error)
    # the serving loop builds its fleet (authority, replica servers,
    # checkpoints) outside any query; every query still validates inside
    # QueryServer.serve
    return _COMMANDS[args.command](args)  # contracts: disable=CTR501 (validated in serve)


if __name__ == "__main__":
    sys.exit(main())

"""``peek-dyn`` — live-graph serving smoke runs.

One subcommand::

    peek-dyn smoke --graph LJ --scale tiny --seed 0 \\
        --json /tmp/dyn.json --summary /tmp/dyn.txt

drives a one-replica :class:`~repro.fabric.fabric.ServingFabric` fleet
(its :class:`~repro.serve.QueryServer` serves its own copy of the
fleet's authoritative :class:`~repro.dyn.live.LiveGraph`) with a seeded
incident stream
(:class:`~repro.dyn.stream.IncidentStream`) and a hot query pool on the
simulated clock, then writes a deterministic JSON payload (run metrics,
server counters, cache/reuse accounting, final graph version) and a
short text summary.  Everything downstream of the seeds is reproducible
byte-for-byte — the CI ``dyn-serving`` job runs the smoke twice and
``cmp``'s the artifacts.

The query content cycles a small *hot pool* of ``(source, target, k)``
tuples rather than sampling uniformly: repeated queries are what the
prune-bound reuse path exists for, so the smoke demonstrates a non-zero
reuse rate by construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import takewhile
from random import Random

from repro.dyn.stream import IncidentStream
from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.graph.suite import SCALES, suite_graph
from repro.load.arrivals import PoissonArrivals
from repro.load.runner import ServerConfig
from repro.serve.query import Query

__all__ = ["main", "run_smoke"]

#: decorrelate the three seeded streams of one smoke run
POOL_STREAM_OFFSET = 0x517CC1B7
STREAM_SEED_OFFSET = 0x2545F491


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek-dyn",
        description="Live-graph serving smoke: seeded mutation stream + "
        "hot query pool on simulated time.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    smoke = sub.add_parser("smoke", help="run the seeded serving smoke")
    smoke.add_argument("--graph", default="LJ", help="suite graph name")
    smoke.add_argument("--scale", default="tiny", choices=SCALES)
    smoke.add_argument("--seed", type=int, default=0, help="master seed")
    smoke.add_argument("--horizon", type=float, default=4.0, help="simulated seconds")
    smoke.add_argument("--qps", type=float, default=40.0, help="query arrival rate")
    smoke.add_argument(
        "--mutation-rate", type=float, default=2.0, help="mutation batches per second"
    )
    smoke.add_argument("--pool", type=int, default=6, help="hot query pool size")
    smoke.add_argument("--timeout", type=float, default=None, help="per-query budget")
    smoke.add_argument("--json", default="BENCH_dyn_smoke.json", help="payload path")
    smoke.add_argument("--summary", default="", help="text summary path ('' = skip)")
    smoke.add_argument("--quiet", action="store_true")
    return p


def run_smoke(
    *,
    graph_name: str = "LJ",
    scale: str = "tiny",
    seed: int = 0,
    horizon: float = 4.0,
    qps: float = 40.0,
    mutation_rate: float = 2.0,
    pool_size: int = 6,
    timeout: float | None = None,
    stream_kwargs: dict | None = None,
) -> dict:
    """One deterministic smoke run; returns the JSON-ready payload.

    ``stream_kwargs`` are forwarded to
    :class:`~repro.dyn.stream.IncidentStream` (the benchmark uses this to
    sweep incident mixes, e.g. an increase-only stream with
    ``p_clear=0, p_reopen=0``).
    """
    graph = suite_graph(graph_name, scale)
    config = ServerConfig(name="smoke", timeout=timeout, max_in_flight=64)
    fabric = ServingFabric(graph, config=FabricConfig(server=config, seed=seed))
    server = fabric.replicas[0].server

    n = graph.num_vertices
    rng_pool = Random(seed + POOL_STREAM_OFFSET)
    pool: list[tuple[int, int, int]] = []
    while len(pool) < pool_size:
        s, t = rng_pool.randrange(n), rng_pool.randrange(n)
        if s != t:
            pool.append((s, t, rng_pool.choice((2, 4, 8))))

    rng_arrivals = Random(seed)
    queries = []
    for i, at in enumerate(
        PoissonArrivals(rate=qps).arrivals(rng_arrivals, horizon)
    ):
        s, t, k = pool[i % len(pool)]
        queries.append(
            Query(
                source=s,
                target=t,
                k=k,
                timeout=timeout,
                request_id=f"q{i:06d}",
                issued_at=at,
            )
        )

    stream = IncidentStream(
        seed=seed + STREAM_SEED_OFFSET,
        rate=mutation_rate,
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
        "qps": qps,
        "mutation_rate": mutation_rate,
        "pool": pool_size,
        "metrics": report.metrics(),
        "server_counters": dict(sorted(server.counters.items())),
        "cache_info": dict(sorted(info.items())),
        "prune_reuse_rate": round(info["prune_reused"] / reuse_total, 6)
        if reuse_total
        else 0.0,
        "final_version": fabric.authority.version,
    }


def _summary_lines(payload: dict) -> list[str]:
    m = payload["metrics"]
    info = payload["cache_info"]
    return [
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


def _cmd_smoke(args: argparse.Namespace) -> int:
    payload = run_smoke(
        graph_name=args.graph,
        scale=args.scale,
        seed=args.seed,
        horizon=args.horizon,
        qps=args.qps,
        mutation_rate=args.mutation_rate,
        pool_size=args.pool,
        timeout=args.timeout,
    )
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = _summary_lines(payload)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        print("\n".join(lines))
        print(f"-> {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the serving loop's fleet branches build servers outside any query;
    # every query still validates inside QueryServer.serve
    return _cmd_smoke(args)  # contracts: disable=CTR501 (validated in serve)


if __name__ == "__main__":
    sys.exit(main())

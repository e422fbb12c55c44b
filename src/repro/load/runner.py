"""The experiment runner: run tables → ``BENCH_serving.json``.

A :class:`RunTable` is the cross product *traffic pattern × graph ×
server config × repetition*; :func:`run_table` drives every cell through
a fresh :class:`~repro.fabric.fabric.ServingFabric` fleet on simulated
time and collects one metrics row per cell (the
:meth:`~repro.fabric.fabric.FabricReport.metrics` dict plus the cell
key).  The output payload follows the repo's bench
convention (as ``BENCH_dyn_serving.json``): a top-level descriptor plus a flat
``rows`` list, so downstream tooling can treat every benchmark file
alike.

Reproducibility: each cell's seed is a CRC32 of the table seed and the
cell key, so (a) every cell is independently reproducible, (b) cells
don't share RNG streams, and (c) adding a row to the table never
reshuffles the seeds of existing rows.  Two runs of the same table are
byte-identical — CI asserts this with ``cmp``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.harness import DISPOSITIONS
from repro.load.mixes import make_mix
from repro.load.simclock import CostModel
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.server import QueryServer

__all__ = [
    "ServerConfig",
    "RunTable",
    "cell_seed",
    "run_table",
    "capacity_summary",
    "write_outputs",
    "tiny_table",
    "medium_table",
]

#: v2: rows carry "replicas" + unified "dispositions"; v3: every cell is a
#: fleet, so every row carries the availability/recovery columns; v4:
#: "configs" entries drop "kernel" and "cache_size" (one prune kernel, one
#: SSSP cache size for every replica); v5: "configs" entries drop
#: "jitter" (one retry schedule for every replica)
SCHEMA_VERSION = 5


@dataclass(frozen=True)
class ServerConfig:
    """How a serving replica is built: the one recipe for every replica.

    A run-table axis value is one of these, and every replica of the
    serving loop (t=0, scale-up, recovered; ``FabricConfig.server``) is
    built from one by :meth:`build`.  ``timeout`` is the
    *client-side* budget the serving loop stamps on every query (anchored
    at arrival, so queue wait burns it) and the server's default budget;
    ``queue_depth`` is the loop's per-replica wait queue; the remaining
    fields go straight to :class:`~repro.serve.QueryServer`.
    """

    name: str
    timeout: float | None = None
    max_in_flight: int = 4
    #: wait-queue depth (0 = shed on busy, live-server semantics)
    queue_depth: int = 0
    tier1_budget_fraction: float | None = None
    #: replicas serving at t=0 in :class:`~repro.fabric.fabric.ServingFabric`
    replicas: int = 1

    def build(self, graph) -> QueryServer:
        """One replica's server over ``graph`` (a CSR or a
        :class:`~repro.dyn.live.LiveGraph`)."""
        return QueryServer(
            graph,
            default_timeout=self.timeout,
            max_in_flight=self.max_in_flight,
            tier1_budget_fraction=self.tier1_budget_fraction,
        )


@dataclass(frozen=True)
class RunTable:
    """The experiment grid (everything a run needs, seeds included)."""

    name: str
    #: (label, spec-dict) per traffic pattern — see
    #: :func:`~repro.load.arrivals.arrival_process` for the spec shape
    traffic: tuple[tuple[str, dict], ...]
    #: benchmark-suite graph names (``repro.graph.suite``)
    graphs: tuple[str, ...]
    configs: tuple[ServerConfig, ...]
    scale: str = "tiny"
    repetitions: int = 1
    #: simulated seconds per cell
    horizon: float = 1.0
    #: query-mix spec (:func:`~repro.load.mixes.make_mix`)
    mix: dict = field(default_factory=lambda: {"kind": "uniform"})
    seed: int = 0
    #: hard cap on queries per cell (bounds runtime under overload)
    max_queries: int | None = None
    #: cost-model override (stage prefix -> seconds per checkpoint)
    costs: dict | None = None

    def cells(self):
        """Every (traffic_label, spec, graph, config, rep) in table order."""
        for label, spec in self.traffic:
            for graph in self.graphs:
                for config in self.configs:
                    for rep in range(self.repetitions):
                        yield label, spec, graph, config, rep


def cell_seed(table: RunTable, traffic: str, graph: str, config: str, rep: int) -> int:
    """Deterministic per-cell seed: CRC32 of the table seed + cell key."""
    key = f"{table.seed}|{traffic}|{graph}|{config}|{rep}"
    return zlib.crc32(key.encode("utf-8"))


def run_table(
    table: RunTable,
    *,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run every cell; returns the ``BENCH_serving.json`` payload.

    Each cell gets a fresh fleet of ``config.replicas`` replicas (no
    cache warmth bleeding across cells), its own CRC32-derived seed, and
    a private :class:`~repro.obs.tracer.Tracer` whose counter totals land
    on the row (``counters.*`` keys) — pruning and serve counts per cell,
    the obs story for load runs.
    """
    # imported here: the fabric imports repro.load, and repro.load must
    # stay importable without the fabric or the distributed layer
    from repro.fabric.fabric import FabricConfig, ServingFabric

    cost_model = (
        CostModel.from_dict(table.costs) if table.costs is not None else CostModel()
    )
    rows: list[dict[str, Any]] = []
    for label, spec, graph_name, config, rep in table.cells():
        seed = cell_seed(table, label, graph_name, config.name, rep)
        graph = suite_graph(graph_name, table.scale)
        mix = make_mix(graph, table.mix)
        pattern = arrival_process(dict(spec))
        fabric = ServingFabric(
            graph,
            mix,
            config=FabricConfig(server=config, seed=seed),
            cost_model=cost_model,
        )
        tracer = Tracer()
        with use_tracer(tracer):
            report = fabric.run(
                pattern, horizon=table.horizon, max_queries=table.max_queries
            )
        row: dict[str, Any] = {
            "traffic": label,
            "graph": graph_name,
            "config": config.name,
            "rep": rep,
            "seed": seed,
            "replicas": config.replicas,
            "offered_qps": round(pattern.mean_rate(), 6),
            **report.metrics(),
        }
        row["dispositions"] = report.dispositions()
        row["counters"] = {
            "server": report.server_counters,
            "trace": tracer.counter_totals(),
        }
        rows.append(row)
        if progress is not None:
            progress(
                f"{label:>16} {graph_name:>4} {config.name:>14} rep{rep}: "
                f"{row['queries']:>5} queries, "
                f"shed {row['shed_rate']:.0%}, degraded {row['degraded_rate']:.0%}"
            )
    return {
        "benchmark": "serving",
        "version": SCHEMA_VERSION,
        "table": table.name,
        "scale": table.scale,
        "seed": table.seed,
        "horizon": table.horizon,
        "repetitions": table.repetitions,
        "mix": table.mix,
        "traffic": {label: spec for label, spec in table.traffic},
        "configs": [asdict(c) for c in table.configs],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def _fmt_ms(value: float | None) -> str:
    return f"{value * 1e3:8.2f}" if value is not None else f"{'-':>8}"


def capacity_summary(payload: dict[str, Any]) -> str:
    """The human-readable capacity table (``results/serving_capacity.txt``).

    One line per (traffic, graph, config), metrics averaged over
    repetitions; percentiles are rep-averaged nearest-rank values.  A
    trailing ``SHED``/``DEGR`` tag calls out cells demonstrating
    overload shedding or deadline degradation.
    """
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for row in payload["rows"]:
        groups.setdefault((row["traffic"], row["graph"], row["config"]), []).append(row)

    lines = [
        f"serving capacity — table={payload['table']} scale={payload['scale']} "
        f"seed={payload['seed']} horizon={payload['horizon']}s "
        f"reps={payload['repetitions']}",
        "(simulated time; offered = open-loop arrival rate or users/think_mean)",
        "",
        f"{'traffic':>16} {'graph':>5} {'config':>14} {'offered':>8} "
        f"{'served/s':>8} {'p50 ms':>8} {'p99 ms':>8} {'p999 ms':>8} "
        f"{'shed%':>6} {'degr%':>6} {'part%':>6} {'fail%':>6}",
    ]
    for (traffic, graph, config), rows in groups.items():
        n = len(rows)

        def mean(key: str, rows=rows, n=n) -> float | None:
            vals = [r[key] for r in rows if r[key] is not None]
            return sum(vals) / len(vals) if vals else None

        shed = mean("shed_rate") or 0.0
        degraded = mean("degraded_rate") or 0.0
        tags = []
        if shed > 0:
            tags.append("SHED")
        if degraded > 0:
            tags.append("DEGR")
        lines.append(
            f"{traffic:>16} {graph:>5} {config:>14} "
            f"{rows[0]['offered_qps']:>8.1f} {mean('throughput_qps') or 0.0:>8.1f} "
            f"{_fmt_ms(mean('latency_p50'))} {_fmt_ms(mean('latency_p99'))} "
            f"{_fmt_ms(mean('latency_p999'))} "
            f"{shed:>6.1%} {degraded:>6.1%} "
            f"{mean('partial_rate') or 0.0:>6.1%} {mean('failed_rate') or 0.0:>6.1%}"
            + (f"  {' '.join(tags)}" if tags else "")
        )
    lines.append("")
    lines.append(
        "dispositions: "
        + ", ".join(DISPOSITIONS)
        + " (shed/expired are harness-side; the rest are server outcomes)"
    )
    return "\n".join(lines)


def write_outputs(
    payload: dict[str, Any],
    *,
    json_path: str | Path,
    summary_path: str | Path | None = None,
) -> None:
    """Write the JSON payload (+ optional capacity summary) to disk."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    if summary_path is not None:
        summary_path = Path(summary_path)
        summary_path.parent.mkdir(parents=True, exist_ok=True)
        summary_path.write_text(capacity_summary(payload) + "\n")


# ---------------------------------------------------------------------------
# stock tables
# ---------------------------------------------------------------------------
def tiny_table(seed: int = 0) -> RunTable:
    """The CI smoke grid: 2 traffic × 2 graphs × 2 configs × 1 rep.

    Small enough for a CI job (a few hundred tiny-graph queries total),
    but still covers open vs closed loop and relaxed vs tight deadlines.
    """
    return RunTable(
        name="tiny",
        traffic=(
            ("poisson", {"kind": "poisson", "rate": 400.0}),
            ("closed_16", {"kind": "closed", "users": 16, "think_mean": 0.05}),
        ),
        graphs=("LJ", "WL"),
        configs=(
            ServerConfig(name="baseline", timeout=0.5, max_in_flight=4),
            ServerConfig(
                name="tight",
                timeout=0.012,
                max_in_flight=4,
                tier1_budget_fraction=0.4,
            ),
        ),
        scale="tiny",
        repetitions=1,
        horizon=0.25,
        mix={"kind": "uniform", "k": {"dist": "small_heavy", "k_max": 8}},
        seed=seed,
        max_queries=120,
    )


def medium_table(seed: int = 0) -> RunTable:
    """The bench grid: 4 traffic × LJ/WL × 2 configs × 3 reps.

    Calibrated (see ``benchmarks/bench_serving.py``) so the overload
    pattern drives the baseline config into shedding and the tight
    deadline drives degradation — the two regimes the serving layer
    exists to handle.
    """
    return RunTable(
        name="medium",
        traffic=(
            ("poisson_steady", {"kind": "poisson", "rate": 250.0}),
            ("poisson_overload", {"kind": "poisson", "rate": 2500.0}),
            (
                "mmpp_bursty",
                {
                    "kind": "mmpp",
                    "rate_low": 150.0,
                    "rate_high": 3000.0,
                    "dwell_low": 0.15,
                    "dwell_high": 0.05,
                },
            ),
            ("closed_200", {"kind": "closed", "users": 200, "think_mean": 0.2}),
        ),
        graphs=("LJ", "WL"),
        configs=(
            ServerConfig(name="baseline", timeout=0.5, max_in_flight=4),
            ServerConfig(
                name="tight_deadline",
                timeout=0.012,
                max_in_flight=4,
                tier1_budget_fraction=0.4,
            ),
        ),
        scale="tiny",
        repetitions=3,
        horizon=1.0,
        mix={"kind": "hotspot", "exponent": 1.0, "k": {"dist": "small_heavy", "k_max": 8}},
        seed=seed,
        max_queries=1500,
    )


TABLES = {"tiny": tiny_table, "medium": medium_table}

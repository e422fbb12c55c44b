#!/usr/bin/env python
"""Fabric SLO benchmark: replicated serving under seeded kills.

Four scenarios over the LJ tiny graph, all on the same simulated
timeline discipline (see :mod:`repro.fabric.fabric`):

* ``steady``            — 3 replicas, steady Poisson, no faults: the
  baseline the failure scenarios are judged against;
* ``mmpp_kill``         — the acceptance scenario: the medium MMPP
  workload with one seeded replica kill at the 3rd heartbeat.  The run
  aborts unless availability >= 0.99, every query served inside the
  kill->recovery window is ``complete`` or ``degraded``, and the
  replica recovers within the configured heartbeat budget;
* ``mmpp_kill_elastic`` — same kill with the scaling policy enabled, so
  the burst edge and the recovery race the scale decisions;
* ``mutate_kill``       — a seeded incident stream mutates the live
  graph while a replica dies, exercising batch-log replay during
  recovery (the kill record's ``missed_batches`` says how much).

Outputs (same convention as ``bench_serving.py``):

* ``BENCH_fabric.json``       — one row per scenario;
* ``results/fabric_slo.txt``  — the rendered SLO table.

Everything is simulated-clock and seed-derived: rerunning reproduces
both files byte-for-byte (CI runs the CLI twice and ``cmp``'s).

Environment knobs:

* ``REPRO_FABRIC_SEED``  — master seed (default: 0)
* ``REPRO_FABRIC_GRAPH`` — suite graph (default: LJ)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.fabric import cli
from repro.fabric.cli import MIX_SPEC, MMPP_SPEC
from repro.fabric.fabric import slo_text
from repro.graph.suite import suite_graph

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALE = "tiny"
HORIZON = 1.0
MAX_QUERIES = 2000
KILL_SPEC = "fabric.heartbeat:rankfail:3@R1"

STEADY = {"kind": "poisson", "rate": 300.0}

#: scenario name -> :func:`run_scenario` keyword arguments, in table order
SCENARIOS = {
    "steady": dict(workload=STEADY),
    "mmpp_kill": dict(workload=MMPP_SPEC, inject=[KILL_SPEC]),
    "mmpp_kill_elastic": dict(workload=MMPP_SPEC, inject=[KILL_SPEC], elastic=True),
    "mutate_kill": dict(workload=MMPP_SPEC, inject=[KILL_SPEC], mutations=True),
}


def run_scenario(
    name: str,
    graph,
    seed: int,
    *,
    workload: dict,
    inject: list[str] | None = None,
    elastic: bool = False,
    mutations: bool = False,
) -> dict:
    """One scenario on the default 3-replica fleet (``peek-fabric``'s
    recipe), its row tagged with the scenario's knobs."""
    inject = list(inject or [])
    row, _ = cli.run_scenario(
        name,
        graph,
        seed,
        workload=workload,
        inject=inject,
        elastic=elastic,
        mutations=mutations,
        horizon=HORIZON,
        max_queries=MAX_QUERIES,
    )
    row["inject"] = inject
    row["elastic"] = elastic
    row["mutations"] = mutations
    return row


def check_row(row: dict) -> None:
    """The per-scenario invariants every fabric run must satisfy."""
    d = row["dispositions"]
    assert d["issued"] == sum(d[k] for k in
                              ("complete", "degraded", "partial",
                               "failed", "shed", "expired")), row["scenario"]
    for kill in row["kill_records"]:
        assert kill["recovered_at"] is not None, (
            f"{row['scenario']}: replica {kill['replica']} never recovered"
        )
        assert kill["within_budget"], (
            f"{row['scenario']}: recovery blew the heartbeat budget "
            f"(ttr={kill['ttr']})"
        )
    # every query *served* during a recovery window got a real answer
    window = row["recovery_window"]
    served = {k: v for k, v in window.items() if v and k not in ("shed", "expired")}
    assert set(served) <= {"complete", "degraded"}, (
        f"{row['scenario']}: recovery-window served dispositions {served}"
    )


def main() -> None:
    seed = int(os.environ.get("REPRO_FABRIC_SEED", "0"))
    graph_name = os.environ.get("REPRO_FABRIC_GRAPH", "LJ")
    graph = suite_graph(graph_name, SCALE)

    t0 = time.perf_counter()
    rows = []
    for name, kwargs in SCENARIOS.items():
        row = run_scenario(name, graph, seed, **kwargs)
        check_row(row)
        rows.append(row)
        print(
            f"{name:>20}: {row['queries']} queries, "
            f"availability={row['availability']:.4f}, kills={row['kills']}, "
            f"ttr_max={row['ttr_max']}"
        )
    wall = time.perf_counter() - t0

    # the acceptance criteria ride on the medium-MMPP kill scenario
    accept = next(r for r in rows if r["scenario"] == "mmpp_kill")
    assert accept["availability"] >= 0.99, (
        f"availability {accept['availability']} < 0.99 under kill"
    )
    assert accept["kills"] == 1 and accept["recovery_within_budget"]
    baseline = next(r for r in rows if r["scenario"] == "steady")
    assert baseline["kills"] == 0 and not baseline["kill_records"]
    mutate = next(r for r in rows if r["scenario"] == "mutate_kill")
    assert mutate["mutation_batches"] > 0, "mutation scenario applied no batches"

    payload = {
        "benchmark": "fabric",
        "graph": graph_name,
        "scale": SCALE,
        "seed": seed,
        "horizon": HORIZON,
        "max_queries": MAX_QUERIES,
        "mix": MIX_SPEC,
        "workloads": {"steady": STEADY, "mmpp": MMPP_SPEC},
        "kill": KILL_SPEC,
        "rows": rows,
    }
    json_path = REPO_ROOT / "BENCH_fabric.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    text = slo_text(
        rows,
        title=(
            f"fabric SLO — graph={graph_name} scale={SCALE} seed={seed} "
            f"horizon={HORIZON}s replicas=3"
        ),
    )
    out_path = REPO_ROOT / "results" / "fabric_slo.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text + "\n")

    print(f"\n{text}")
    print(
        f"\n{len(rows)} scenarios in {wall:.1f}s wall "
        f"-> BENCH_fabric.json, results/fabric_slo.txt"
    )


if __name__ == "__main__":
    main()

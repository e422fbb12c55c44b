#!/usr/bin/env python
"""Live-graph serving benchmark: prune-bound reuse under mutation streams.

Sweeps 2 incident profiles x 2 graph families x 3 repetitions — 12
cells, each driving a fresh :class:`~repro.serve.QueryServer` over a
:class:`~repro.dyn.live.LiveGraph` through the discrete-event serving
loop with a seeded :class:`~repro.dyn.stream.IncidentStream`:

* **increase-only** — closures and congestion only (``p_clear=0``,
  ``p_reopen=0``): every batch can satisfy the Yamane–Kitajima-style
  reuse certificate, so the prune-bound reuse rate should be high;
* **full-mix** — clears (weight decreases) and reopenings (inserts)
  included: those batches defeat the certificate and force cold
  re-solves, so reuse drops but must not vanish.

Each row reports the obs counters the acceptance criteria name: the
prune-bound reuse rate (``prune_reused / (prune_reused + prune_cold)``)
and the cache entries retained/invalidated across version rebinds.
The run aborts unless the increase-only profile demonstrates reuse.

Outputs (same convention as ``bench_serving.py``):

* ``BENCH_dyn_serving.json`` — descriptor + one flat row per cell;
* ``results/dyn_serving.txt`` — the rendered table.

Everything is simulated-clock and seeded: rerunning reproduces both
files byte-for-byte.

Environment knobs:

* ``REPRO_DYN_SEED``    — master seed (default: 0)
* ``REPRO_DYN_HORIZON`` — simulated seconds per cell (default: 4.0)
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

from repro.load.cli import run_smoke

REPO_ROOT = Path(__file__).resolve().parent.parent

PROFILES = {
    "increase-only": {"p_clear": 0.0, "p_reopen": 0.0},
    "full-mix": {},
}
GRAPHS = ("LJ", "WL")
REPS = 3


def cell_seed(master: int, profile: str, graph: str, rep: int) -> int:
    key = f"dyn:{master}:{profile}:{graph}:{rep}"
    return zlib.crc32(key.encode("utf-8"))


def cell_row(profile: str, graph: str, rep: int, *, master: int, horizon: float) -> dict:
    """One committed row: a seeded smoke run on one (profile, graph, rep)."""
    seed = cell_seed(master, profile, graph, rep)
    payload = run_smoke(
        graph_name=graph,
        scale="tiny",
        seed=seed,
        horizon=horizon,
        stream_kwargs=PROFILES[profile],
    )
    m = payload["metrics"]
    info = payload["cache_info"]
    return {
        "profile": profile,
        "graph": graph,
        "rep": rep,
        "seed": seed,
        "queries": m["queries"],
        "served": m["served"],
        "complete_rate": m["complete_rate"],
        "failed_rate": m["failed_rate"],
        "mutation_batches": m["mutation_batches"],
        "final_version": payload["final_version"],
        "prune_reused": info["prune_reused"],
        "prune_cold": info["prune_cold"],
        "prune_reuse_rate": payload["prune_reuse_rate"],
        "cache_retained": info["retained"],
        "cache_invalidated": info["invalidated"],
        "sssp_cache_hits": info["hits"],
        "sssp_cache_misses": info["misses"],
    }


def main() -> None:
    master = int(os.environ.get("REPRO_DYN_SEED", "0"))
    horizon = float(os.environ.get("REPRO_DYN_HORIZON", "4.0"))

    t0 = time.perf_counter()
    rows = []
    for profile in PROFILES:
        for graph in GRAPHS:
            for rep in range(REPS):
                row = cell_row(profile, graph, rep, master=master, horizon=horizon)
                rows.append(row)
                print(
                    f"{profile:>14} {graph} rep{rep}: "
                    f"reuse {row['prune_reuse_rate']:.3f} "
                    f"({row['prune_reused']}/{row['prune_reused'] + row['prune_cold']}), "
                    f"retained {row['cache_retained']}, "
                    f"v{row['final_version']}"
                )
    wall = time.perf_counter() - t0

    inc = [r for r in rows if r["profile"] == "increase-only"]
    assert any(r["prune_reuse_rate"] > 0 for r in inc), (
        "increase-only profile demonstrated no prune-bound reuse — "
        "the certificate path is dead; recalibrate or investigate"
    )
    assert all(r["mutation_batches"] > 0 for r in rows), (
        "a cell applied no mutation batches — the stream never fired"
    )

    payload = {
        "benchmark": "dyn_serving",
        "seed": master,
        "horizon": horizon,
        "profiles": sorted(PROFILES),
        "graphs": list(GRAPHS),
        "reps": REPS,
        "rows": rows,
    }
    json_path = REPO_ROOT / "BENCH_dyn_serving.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [
        "Live-graph serving: prune-bound reuse under mutation streams",
        f"(seed {master}, horizon {horizon}s per cell, scale tiny)",
        "",
        f"{'profile':>14} {'graph':>6} {'rep':>3} {'reuse':>7} "
        f"{'reused':>7} {'cold':>5} {'retained':>9} {'invalid':>8} {'ver':>4}",
    ]
    for r in rows:
        lines.append(
            f"{r['profile']:>14} {r['graph']:>6} {r['rep']:>3} "
            f"{r['prune_reuse_rate']:>7.3f} {r['prune_reused']:>7} "
            f"{r['prune_cold']:>5} {r['cache_retained']:>9} "
            f"{r['cache_invalidated']:>8} {r['final_version']:>4}"
        )
    summary_path = REPO_ROOT / "results" / "dyn_serving.txt"
    summary_path.parent.mkdir(exist_ok=True)
    summary_path.write_text("\n".join(lines) + "\n")

    print("\n" + "\n".join(lines))
    print(
        f"\n{len(rows)} cells in {wall:.1f}s wall "
        f"-> BENCH_dyn_serving.json, results/dyn_serving.txt"
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Serving-capacity benchmark: the medium run table on simulated time.

Sweeps 4 traffic patterns (steady Poisson, 7x-overload Poisson, bursty
MMPP, a closed-loop population) x 2 graph families (LJ, WL) x 2 server
configs (relaxed deadline vs tight deadline with tier-1 budget
splitting) x 3 repetitions — 48 cells, each driving a fresh
:class:`~repro.serve.QueryServer` through the discrete-event serving
loop.  Two regimes must show up or the run aborts:

* **overload shedding** — the overload pattern exceeds station capacity
  (~max_in_flight / mean service time), so the baseline config sheds;
* **deadline degradation** — the tight config's budget split reserves
  headroom for the OptYen fallback, so tight deadlines degrade instead
  of failing wholesale.

Outputs (the repo's ``BENCH_*.json`` + ``results/*.txt`` convention):

* ``BENCH_serving.json`` — the run-table payload, one row per cell;
* ``results/serving_capacity.txt`` — the rendered capacity table.

Everything is simulated-clock: the numbers are properties of the
configuration, not of this machine, and rerunning with the same seed
reproduces both files byte-for-byte.

Environment knobs:

* ``REPRO_LOAD_TABLE`` — tiny / medium (default: medium)
* ``REPRO_LOAD_SEED``  — table master seed (default: 0)
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.load.runner import TABLES, capacity_summary, run_table, write_outputs

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    table_name = os.environ.get("REPRO_LOAD_TABLE", "medium")
    seed = int(os.environ.get("REPRO_LOAD_SEED", "0"))
    table = TABLES[table_name](seed=seed)

    t0 = time.perf_counter()
    payload = run_table(table, progress=print)
    wall = time.perf_counter() - t0

    # regime asserts read the unified disposition summary (the same
    # counts the fabric report uses), not the legacy per-rate fields
    rows = payload["rows"]
    shed_cells = [r for r in rows if r["dispositions"]["shed"] > 0]
    degraded_cells = [r for r in rows if r["dispositions"]["degraded"] > 0]
    assert shed_cells, "no cell demonstrated overload shedding — recalibrate"
    assert degraded_cells, (
        "no cell demonstrated deadline degradation — recalibrate"
    )
    for r in rows:
        d = r["dispositions"]
        assert d["issued"] >= d["answered"], "disposition summary inconsistent"

    write_outputs(
        payload,
        json_path=REPO_ROOT / "BENCH_serving.json",
        summary_path=REPO_ROOT / "results" / "serving_capacity.txt",
    )
    print(f"\n{capacity_summary(payload)}")
    print(
        f"\n{len(rows)} cells in {wall:.1f}s wall "
        f"({len(shed_cells)} shedding, {len(degraded_cells)} degrading) "
        f"-> BENCH_serving.json, results/serving_capacity.txt"
    )


if __name__ == "__main__":
    main()

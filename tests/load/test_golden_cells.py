"""Golden cells: committed serving artefacts regenerate through the one loop.

Each test reruns one committed cell and compares it key for key with its
row in the committed JSON, so a change in what the serving loop computes
fails the suite instead of waiting for the next bench run.  The cells
cover the closed loop (``closed_200``), a one-replica fleet under
overload (``poisson_overload``), a live graph with a mutation feed
(``increase-only``) and a replicated fleet under a kill with
mutations (``mutate_kill``).
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from repro.graph.suite import suite_graph
from repro.load.runner import medium_table, run_table

ROOT = Path(__file__).resolve().parents[2]


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_row(artefact: str, **key) -> dict:
    rows = json.loads((ROOT / artefact).read_text())["rows"]
    (row,) = [r for r in rows if all(r[k] == v for k, v in key.items())]
    return row


def assert_same_row(got: dict, want: dict) -> None:
    got = json.loads(json.dumps(got))  # the committed file's types
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("traffic", ["closed_200", "poisson_overload"])
def test_serving_cell(traffic):
    table = medium_table()
    cell = dataclasses.replace(
        table,
        traffic=tuple((label, s) for label, s in table.traffic if label == traffic),
        graphs=("LJ",),
        configs=tuple(c for c in table.configs if c.name == "baseline"),
        repetitions=1,
    )
    (row,) = run_table(cell)["rows"]
    want = committed_row(
        "BENCH_serving.json", traffic=traffic, graph="LJ", config="baseline", rep=0
    )
    assert_same_row(row, want)


def test_dyn_serving_cell():
    bench = load_bench("bench_dyn_serving")
    row = bench.cell_row("increase-only", "LJ", 0, master=0, horizon=4.0)
    want = committed_row(
        "BENCH_dyn_serving.json", profile="increase-only", graph="LJ", rep=0
    )
    assert_same_row(row, want)


def test_fabric_mutate_kill_cell():
    bench = load_bench("bench_fabric")
    row = bench.run_scenario(
        "mutate_kill",
        suite_graph("LJ", bench.SCALE),
        0,
        **bench.SCENARIOS["mutate_kill"],
    )
    bench.check_row(row)
    assert_same_row(row, committed_row("BENCH_fabric.json", scenario="mutate_kill"))

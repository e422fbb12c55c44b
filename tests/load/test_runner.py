"""The experiment runner: schema, seeding, byte-identical reruns, CLI."""

import json

import pytest

from repro.load.harness import DISPOSITIONS
from repro.load.runner import (
    RunTable,
    ServerConfig,
    capacity_summary,
    cell_seed,
    run_table,
    tiny_table,
)

#: a deliberately small grid so the full runner executes in a second or
#: two; 1 traffic x 1 graph x 2 configs x 2 reps = 4 cells
MICRO = RunTable(
    name="micro",
    traffic=(("poisson", {"kind": "poisson", "rate": 500.0}),),
    graphs=("LJ",),
    configs=(
        ServerConfig(name="relaxed", timeout=0.5, max_in_flight=2),
        ServerConfig(
            name="tight", timeout=0.012, max_in_flight=2,
            tier1_budget_fraction=0.4,
        ),
    ),
    scale="tiny",
    repetitions=2,
    horizon=0.08,
    seed=13,
    max_queries=60,
)


@pytest.fixture(scope="module")
def payload():
    return run_table(MICRO)


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        seeds = {
            cell_seed(MICRO, label, graph, config.name, rep)
            for label, _, graph, config, rep in MICRO.cells()
        }
        assert len(seeds) == 4  # every cell decorrelated
        assert cell_seed(MICRO, "poisson", "LJ", "tight", 0) == cell_seed(
            MICRO, "poisson", "LJ", "tight", 0
        )

    def test_table_seed_shifts_every_cell(self):
        import dataclasses

        other = dataclasses.replace(MICRO, seed=14)
        assert cell_seed(MICRO, "poisson", "LJ", "tight", 0) != cell_seed(
            other, "poisson", "LJ", "tight", 0
        )


class TestPayloadSchema:
    def test_descriptor(self, payload):
        assert payload["benchmark"] == "serving"
        assert payload["table"] == "micro"
        assert payload["seed"] == 13
        assert set(payload["traffic"]) == {"poisson"}
        assert [c["name"] for c in payload["configs"]] == ["relaxed", "tight"]

    def test_rows(self, payload):
        rows = payload["rows"]
        assert len(rows) == 4
        required = {
            "traffic", "graph", "config", "rep", "seed", "offered_qps",
            "queries", "served", "throughput_qps", "goodput_qps",
            "latency_p50", "latency_p99", "latency_p999",
            "queue_p50", "queue_p99", "peak_in_flight", "counters",
        } | {f"{d}_rate" for d in DISPOSITIONS}
        for row in rows:
            assert required <= set(row)
            assert row["queries"] > 0

    def test_counters_attached(self, payload):
        for row in payload["rows"]:
            assert set(row["counters"]) == {"server", "trace"}
            served = row["counters"]["server"]
            assert sum(served[o] for o in ("complete", "degraded",
                                           "partial", "failed")) == row["served"]

    def test_tight_config_degrades(self, payload):
        tight = [r for r in payload["rows"] if r["config"] == "tight"]
        assert any(r["degraded_rate"] > 0 for r in tight)

    def test_json_serializable_and_reproducible(self, payload):
        again = run_table(MICRO)
        assert json.dumps(payload, indent=2) == json.dumps(again, indent=2)


class TestCapacitySummary:
    def test_renders_groups_and_tags(self, payload):
        text = capacity_summary(payload)
        assert "serving capacity" in text
        assert "poisson" in text and "tight" in text
        assert "DEGR" in text  # the tight config degraded somewhere

    def test_handles_missing_percentiles(self):
        empty = {
            "table": "t", "scale": "tiny", "seed": 0, "horizon": 1.0,
            "repetitions": 1,
            "rows": [{
                "traffic": "p", "graph": "LJ", "config": "c",
                "offered_qps": 1.0, "throughput_qps": 0.0,
                "latency_p50": None, "latency_p99": None,
                "latency_p999": None, "shed_rate": 1.0,
                "degraded_rate": 0.0, "partial_rate": 0.0,
                "failed_rate": 0.0,
            }],
        }
        text = capacity_summary(empty)
        assert "SHED" in text and "-" in text


class TestStockTables:
    def test_tiny_table_shape(self):
        table = tiny_table(seed=3)
        cells = list(table.cells())
        assert len(cells) == 8  # 2 traffic x 2 graphs x 2 configs x 1 rep
        assert table.seed == 3


#: (subcommand, option, value) rejected at parse time: the shared
#: options on every subcommand that takes them, plus a few of the others
BAD_OPTION_VALUES = [
    (command, option, value)
    for command in ("record", "replay", "smoke", "fabric")
    for option, value in (
        ("--graph", "XX"),
        ("--horizon", "0"),
        ("--horizon", "-1"),
        ("--timeout", "0"),
        ("--timeout", "-0.5"),
    )
] + [
    ("fabric", "--replicas", "0"),
    ("record", "--rate-low", "0"),
    ("record", "--max-queries", "-1"),
]


class TestCLI:
    def test_record_and_replay(self, tmp_path, capsys):
        from repro.load.cli import main

        trace = tmp_path / "t.jsonl"
        assert main([
            "record", "--pattern", "poisson", "--rate", "200",
            "--graph", "LJ", "--horizon", "0.1", "--seed", "4",
            "--out", str(trace),
        ]) == 0
        assert trace.exists()
        assert main([
            "replay", "--trace", str(trace), "--graph", "LJ",
            "--timeout", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert '"queries"' in out

    def test_replay_runs_on_the_graph_the_trace_was_recorded_on(
        self, tmp_path, capsys
    ):
        from repro.load.cli import main

        trace = tmp_path / "small.jsonl"
        assert main([
            "record", "--graph", "LJ", "--scale", "small", "--horizon", "0.05",
            "--rate", "200", "--out", str(trace),
        ]) == 0
        recorded = json.loads(trace.read_text().splitlines()[0])["queries"]
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace), "--quiet", "--json",
                     str(tmp_path / "m.json")]) == 0
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["queries"] == recorded > 0

        # --horizon replays the trace's first seconds only
        arrivals = [json.loads(line)["at"] for line in trace.read_text().splitlines()[1:]]
        assert main(["replay", "--trace", str(trace), "--horizon", "0.02", "--quiet",
                     "--json", str(tmp_path / "m.json")]) == 0
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert 0 < metrics["queries"] == sum(at < 0.02 for at in arrivals) < recorded

        # a flag that contradicts the trace's meta is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--trace", str(trace), "--scale", "tiny"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(trace) in err and "--scale small" in err

    def test_replay_rejects_a_query_outside_the_graph(self, tmp_path, capsys):
        from repro.load.cli import main
        from repro.load.trace import dump_trace
        from repro.serve.query import Query

        trace = dump_trace(
            [Query(source=0, target=10**6, k=2, issued_at=0.01)],
            tmp_path / "far.jsonl",
        )
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--trace", str(trace)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(trace) in err and "out of range" in err

        # so is a file that is not a trace
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--trace", __file__])
        assert exc.value.code == 2
        assert f"{__file__}: not a version-1 query trace" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, value", BAD_OPTION_VALUES)
    def test_bad_option_values_are_usage_errors(
        self, command, option, value, tmp_path, capsys
    ):
        from repro.load.cli import main

        trace = str(tmp_path / "t.jsonl")
        required = {"record": ["--out", trace], "replay": ["--trace", trace]}
        with pytest.raises(SystemExit) as exc:
            main([command, *required.get(command, []), option, value])
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys, monkeypatch):
        import repro.load.cli as cli

        monkeypatch.setitem(cli.TABLES, "micro", lambda seed=0: MICRO)
        json_path = tmp_path / "bench.json"
        txt_path = tmp_path / "capacity.txt"
        assert main_args_run(cli, json_path, txt_path) == 0
        payload = json.loads(json_path.read_text())
        assert payload["benchmark"] == "serving"
        assert txt_path.read_text().startswith("serving capacity")


def main_args_run(cli, json_path, txt_path):
    return cli.main([
        "run", "--table", "micro", "--json", str(json_path),
        "--summary", str(txt_path), "--quiet",
    ])


#: a two-replica cell next to a one-replica cell — the replicas axis
REPLICATED = RunTable(
    name="replicated",
    traffic=(("poisson", {"kind": "poisson", "rate": 400.0}),),
    graphs=("LJ",),
    configs=(
        ServerConfig(name="single", timeout=0.5, max_in_flight=2),
        ServerConfig(name="fabric2", timeout=0.5, max_in_flight=2, replicas=2),
    ),
    scale="tiny",
    repetitions=1,
    horizon=0.12,
    mix={"kind": "hotspot", "scc": True, "k": {"k_max": 4}},
    seed=7,
    max_queries=50,
)


class TestReplicasAxis:
    @pytest.fixture(scope="class")
    def rep_payload(self):
        return run_table(REPLICATED)

    def test_rows_carry_the_axis(self, rep_payload):
        by_config = {r["config"]: r for r in rep_payload["rows"]}
        assert by_config["single"]["replicas"] == 1
        assert by_config["fabric2"]["replicas"] == 2
        assert [c["replicas"] for c in rep_payload["configs"]] == [1, 2]

    def test_unified_dispositions_on_every_row(self, rep_payload):
        for row in rep_payload["rows"]:
            d = row["dispositions"]
            assert {k for k in DISPOSITIONS} <= set(d)
            assert {"issued", "answered", "availability", "hedged"} <= set(d)
            assert d["issued"] >= row["queries"]
            assert 0.0 <= d["availability"] <= 1.0

    def test_replicated_cell_has_fabric_metrics(self, rep_payload):
        # every cell is a fleet, the one-replica cell included
        for row in rep_payload["rows"]:
            assert {"availability", "kills", "spills", "heartbeats"} <= set(row)
            assert row["kills"] == 0 and row["heartbeats"] > 0

    def test_replicated_cell_reproducible(self, rep_payload):
        again = run_table(REPLICATED)
        assert json.dumps(rep_payload, indent=2) == json.dumps(again, indent=2)

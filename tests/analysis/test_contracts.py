"""repro-contracts: fixture corpus, call graph, CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import analyze_paths
from repro.analysis.contracts.callgraph import build_callgraph
from repro.analysis.contracts.cli import main
from repro.analysis.contracts.config import (
    AuditGroup,
    ContractConfig,
    default_config,
)
from repro.analysis.contracts.model import load_project
from repro.analysis.contracts.registry import PASSES, RULES
from repro.analysis.contracts.sarif import findings_to_sarif
from repro.analysis.findings import findings_to_json

FIXTURES = Path(__file__).parent / "fixtures" / "contracts"

RULE_IDS = (
    "CTR101",
    "CTR102",
    "CTR103",
    "CTR201",
    "CTR301",
    "CTR401",
    "CTR402",
    "CTR501",
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
)


def _rules(paths, config=None):
    result = analyze_paths([str(FIXTURES / p) for p in paths], config=config)
    return {f.rule for f in result.findings}


def test_rule_catalogue_is_complete():
    assert tuple(sorted(RULES)) == RULE_IDS
    assert tuple(sorted(r for info in PASSES for r in info.rules)) == RULE_IDS
    assert len(PASSES) == 6


# ----------------------------------------------------------------------
# one seeded violation (and one clean twin) per pass


def test_determinism_bad_fixture_fires_all_three_rules():
    assert _rules(["determinism_bad.py"]) == {"CTR101", "CTR102", "CTR103"}


def test_determinism_good_fixture_is_silent():
    assert _rules(["determinism_good.py"]) == set()


def test_cancellation_bad_fixture_fires():
    result = analyze_paths([str(FIXTURES / "cancellation_bad.py")])
    assert [f.rule for f in result.findings] == ["CTR201"]
    assert "checkpoint" in result.findings[0].message


def test_cancellation_good_fixture_is_silent():
    assert _rules(["cancellation_good.py"]) == set()


def test_spans_bad_fixture_fires_on_exception_path():
    result = analyze_paths([str(FIXTURES / "spans_bad.py")])
    # the local pass's RPR002 also bans the manual open itself
    assert [f.rule for f in result.findings] == ["CTR301", "RPR002"]
    assert "exception path" in result.findings[0].message


def test_spans_good_fixture_is_silent():
    # try/finally pairing AND the interprocedural closing-helper idiom:
    # CTR301 is silent; RPR002 still flags manual spans outside repro/obs/
    assert _rules(["spans_good.py"]) == {"RPR002"}


def test_entry_bad_fixture_fires():
    result = analyze_paths(
        [str(FIXTURES / "entry_bad.py"), str(FIXTURES / "entry_kernel.py")]
    )
    assert [f.rule for f in result.findings] == ["CTR501"]
    assert result.findings[0].context["function"] == "solve"


def test_entry_good_fixture_is_silent():
    assert _rules(["entry_good.py", "entry_kernel.py"]) == set()


# ----------------------------------------------------------------------
# footprint audit (config-driven: the fixture group mirrors the real ones)


def _footprint_config(decl, kernel, shared):
    return ContractConfig(
        declarations_module=decl,
        audits=(
            AuditGroup(
                label="fixture",
                recorder="FixtureFootprints",
                functions=((kernel, "relax_chunk"),),
                shared=frozenset(shared),
            ),
        ),
    )


def test_footprints_bad_fixtures_fire_both_rules():
    config = _footprint_config(
        "repro/fixture/footprints_decl.py",
        "repro/fixture/footprints_kernel_bad.py",
        {"dist", "parent", "out", "frontier", "stale"},
    )
    result = analyze_paths(
        [
            str(FIXTURES / "footprints_decl.py"),
            str(FIXTURES / "footprints_kernel_bad.py"),
        ],
        config=config,
    )
    by_rule = {f.rule: f for f in result.findings}
    assert set(by_rule) == {"CTR401", "CTR402"}
    assert by_rule["CTR401"].context["resource"] == "parent"
    assert by_rule["CTR402"].context["resource"] == "stale"


def test_footprints_good_fixtures_are_silent():
    config = _footprint_config(
        "repro/fixture/footprints_decl_good.py",
        "repro/fixture/footprints_kernel_good.py",
        {"dist", "parent", "out", "frontier"},
    )
    result = analyze_paths(
        [
            str(FIXTURES / "footprints_decl_good.py"),
            str(FIXTURES / "footprints_kernel_good.py"),
        ],
        config=config,
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# call graph: the AlgorithmSpec registry indirection


def test_callgraph_resolves_through_registry_indirection():
    project = load_project(
        [
            str(FIXTURES / "registry_fixture.py"),
            str(FIXTURES / "registry_algo.py"),
            str(FIXTURES / "registry_caller.py"),
        ]
    )
    graph = build_callgraph(project, default_config())
    # extraction is over-approximate (the `_spec` helper's own parameter
    # is harvested too); what matters is that the real factory is there
    assert "FixtureAlgorithm" in graph.registry_factories
    drive = next(fn for fn in project.functions() if fn.name == "drive")
    edges = graph.edges[drive.key]
    # make_algorithm("fixture", ...) → the factory's constructor
    assert "repro/ksp/fixture_algo.py::FixtureAlgorithm.__init__" in edges
    # algo.run(k) → the registry-typed receiver's method
    assert "repro/ksp/fixture_algo.py::FixtureAlgorithm.run" in edges


def test_callgraph_reads_a_local_as_a_value_not_a_module():
    """``fabric = Thing.make(); fabric.run()`` next to a module
    ``fabric.py`` is a method call; the imported module's name, not
    rebound, is still a module call."""
    project = load_project(
        [
            str(FIXTURES / "callgraph_fabric.py"),
            str(FIXTURES / "callgraph_caller.py"),
        ]
    )
    graph = build_callgraph(project, default_config())
    edges = {fn.name: graph.edges[fn.key] for fn in project.functions()}
    method = "repro/fixture/callgraph_caller.py::Thing.run"
    module_fn = "repro/fixture/fabric.py::run"
    assert method in edges["drive_local"]
    assert module_fn not in edges["drive_local"]
    assert edges["drive_module"] == [module_fn]


# ----------------------------------------------------------------------
# whole-corpus runs: union of seeded violations, good twins silent


def test_whole_corpus_rules_and_good_modules_silent():
    result = analyze_paths([str(FIXTURES)])
    assert {f.rule for f in result.findings} == {
        "CTR101",
        "CTR102",
        "CTR103",
        "CTR201",
        "CTR301",
        "CTR501",
        "RPR002",
    }
    good = [
        (f.rule, f.line)
        for f in result.findings
        if "_good" in str(f.context.get("module", ""))
    ]
    # only RPR002 on the two manual opens CTR301 accepts as paired
    assert good == [("RPR002", 6), ("RPR002", 19)]


def test_two_runs_are_byte_identical():
    first = analyze_paths([str(FIXTURES)]).findings
    second = analyze_paths([str(FIXTURES)]).findings
    assert findings_to_json(first) == findings_to_json(second)
    assert findings_to_sarif(first) == findings_to_sarif(second)


# ----------------------------------------------------------------------
# suppression pragmas: statement-span semantics


def _analyze_source(tmp_path, src, name="fixture.py"):
    p = tmp_path / name
    p.write_text(src)
    return analyze_paths([str(p)])


def test_pragma_on_multiline_statement_suppresses_it(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        "    t = time.time(\n"
        "    )  # contracts: disable=CTR102\n"
        "    return t\n"
    )
    result = _analyze_source(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_on_decorator_suppresses_the_whole_def(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def dec(f):\n"
        "    return f\n"
        "\n"
        "\n"
        "@dec  # contracts: disable=CTR102\n"
        "def g():\n"
        "    return time.time()\n"
    )
    result = _analyze_source(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_on_loop_header_does_not_blanket_the_body(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:  # contracts: disable=CTR102\n"
        "        out.append(time.time())\n"
        "    return out\n"
    )
    result = _analyze_source(tmp_path, src)
    assert [f.rule for f in result.findings] == ["CTR102"]
    assert result.suppressed == 0


# ----------------------------------------------------------------------
# CLI


def test_cli_exit_codes(capsys):
    assert main([str(FIXTURES / "determinism_good.py")]) == 0
    capsys.readouterr()
    assert main([str(FIXTURES / "determinism_bad.py")]) == 1
    captured = capsys.readouterr()
    assert "new finding" in captured.err
    assert "CTR101" in captured.out


def test_cli_missing_path(capsys):
    assert main(["no/such/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_syntax_error_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == 2
    assert "broken.py" in capsys.readouterr().err


def test_cli_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "spans_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [item["rule"] for item in payload] == ["CTR301", "RPR002"]
    assert all(item["tool"] == "contracts" for item in payload)


def test_cli_sarif_format(capsys):
    assert main(["--format", "sarif", str(FIXTURES / "cancellation_bad.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    driver = doc["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-contracts"
    assert {r["id"] for r in driver["rules"]} >= set(RULE_IDS)
    results = doc["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["CTR201"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] > 0 and region["startColumn"] > 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULE_IDS:
        assert rule in out


def test_cli_baseline_ratchet(tmp_path, capsys):
    bad = str(FIXTURES / "determinism_bad.py")
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--write-baseline", bad]) == 0
    capsys.readouterr()
    # baselined findings no longer fail the run
    assert main(["--baseline", str(baseline), bad]) == 0
    assert "baselined" in capsys.readouterr().err
    # fixed debt is reported as stale, still exit 0
    good = str(FIXTURES / "determinism_good.py")
    assert main(["--baseline", str(baseline), good]) == 0
    assert "stale" in capsys.readouterr().err


def test_cli_report(tmp_path):
    report = tmp_path / "report.txt"
    rc = main(["--report", str(report), str(FIXTURES / "determinism_good.py")])
    assert rc == 0
    text = report.read_text()
    assert "modules analyzed" in text and "findings by pass" in text


def test_cli_output_is_deterministic(tmp_path, capsys):
    main(["--format", "json", str(FIXTURES)])
    first = capsys.readouterr().out
    main(["--format", "json", str(FIXTURES)])
    assert capsys.readouterr().out == first


# ----------------------------------------------------------------------
# the acceptance gate: the shipped tree holds its contracts


@pytest.mark.slow
def test_source_tree_holds_its_contracts(source_analysis):
    assert source_analysis.findings == []

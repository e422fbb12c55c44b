"""The local rules RPR001-RPR005: catalogue, fixture corpus, scoping, pragmas, CLI.

These rules are one pass of ``repro-contracts``; every case runs the
whole analyzer through :func:`analyze_paths` or its command line.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import analyze_paths
from repro.analysis.contracts.cli import main
from repro.analysis.contracts.registry import PASSES, RULES

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005")

_LOOP_ALLOC = (
    "import numpy as np\ndef f(n):\n    for _ in range(3):\n        np.zeros(n)\n"
)


def _findings(*paths):
    return analyze_paths([str(p) for p in paths]).findings


def _local(*paths):
    """Findings of the local pass only (a fixture may also trip a CTR rule)."""
    return [f for f in _findings(*paths) if f.rule.startswith("RPR")]


def _analyze_source(tmp_path, src, relpath="fixture.py"):
    """Write ``src`` at ``tmp_path/relpath`` and analyze that one file."""
    p = tmp_path / relpath
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(src)
    return analyze_paths([str(p)])


def _rules_at(tmp_path, src, relpath="fixture.py"):
    return [f.rule for f in _analyze_source(tmp_path, src, relpath).findings]


def test_rule_catalogue_is_complete():
    local = next(info for info in PASSES if info.pass_id == "local")
    assert local.rules == RULE_IDS
    for rule in RULE_IDS:
        assert RULES[rule]


@pytest.mark.parametrize("rule", RULE_IDS)
def test_bad_fixture_fires_its_rule(rule):
    findings = _local(FIXTURES / f"{rule.lower()}_bad.py")
    assert findings, f"{rule} bad fixture produced no findings"
    assert {f.rule for f in findings} == {rule}
    for f in findings:
        assert f.tool == "contracts"
        assert f.severity == "error"
        assert f.line is not None


@pytest.mark.parametrize("rule", RULE_IDS)
def test_good_fixture_is_silent(rule):
    assert _findings(FIXTURES / f"{rule.lower()}_good.py") == []


def test_rpr001_counts_every_mutation_shape():
    # subscript assign, .fill(), out=, augmented subscript — all four lines
    findings = _local(FIXTURES / "rpr001_bad.py")
    assert len(findings) == 4


def test_source_tree_is_clean(source_analysis):
    """The acceptance gate: zero local-rule findings over src/repro."""
    assert [f for f in source_analysis.findings if f.rule.startswith("RPR")] == []


@pytest.mark.parametrize(
    "fixture", ["finally_closed.py", "returned_handle.py", "bare_expression.py"]
)
def test_ctr301_does_not_cover_rpr002(fixture):
    # RPR002 stays a rule: on each of these span misuses CTR301 is silent
    path = FIXTURES / "rpr002_vs_ctr301" / fixture
    assert [f.rule for f in _findings(path)] == ["RPR002"]


def test_disable_pragma_suppresses_one_line(tmp_path):
    src = (
        "def f(g):\n"
        "    g.weights[0] = 1.0  # contracts: disable=RPR001\n"
        "    g.weights[1] = 2.0\n"
    )
    result = _analyze_source(tmp_path, src)
    assert [f.line for f in result.findings] == [3]
    assert result.suppressed == 1


def test_module_pragma_enables_path_scoped_rules(tmp_path):
    pragma = "# contracts: module=repro/sssp/fixture.py\n"
    assert _rules_at(tmp_path, pragma + _LOOP_ALLOC, "elsewhere.py") == ["RPR003"]
    # without the pragma the file is out of RPR003's scope
    assert _rules_at(tmp_path, _LOOP_ALLOC, "elsewhere.py") == []


def test_module_path_inferred_from_filename(tmp_path):
    assert _rules_at(tmp_path, _LOOP_ALLOC, "src/repro/sssp/foo.py") == ["RPR003"]
    assert _rules_at(tmp_path, _LOOP_ALLOC, "src/repro/graph/foo.py") == []


def test_mp_backend_in_rpr003_scope(tmp_path):
    # The multiprocessing backend, once the one repro/parallel/ module in
    # scope, is retired; the rest of repro/parallel/ (the simulator) stays
    # out of scope.
    assert _rules_at(tmp_path, _LOOP_ALLOC, "src/repro/parallel/scheduler.py") == []


def test_load_and_serve_layers_in_rpr003_scope(tmp_path):
    for path in (
        "src/repro/load/driver.py",
        "src/repro/serve/server.py",
    ):
        assert _rules_at(tmp_path, _LOOP_ALLOC, path) == ["RPR003"], path
    # the analysis tooling itself stays out of the hot-path scope
    assert _rules_at(tmp_path, _LOOP_ALLOC, "src/repro/analysis/race.py") == []


def test_rpr004_covers_load_latency_accumulators(tmp_path):
    src = "def f(latency, waits):\n    return latency == waits[0]\n"
    assert _rules_at(tmp_path, src, "src/repro/load/metrics.py") == ["RPR004"]


def test_workspace_module_exempt_from_rpr003(tmp_path):
    assert _rules_at(tmp_path, _LOOP_ALLOC, "src/repro/sssp/workspace.py") == []


def test_small_constant_allocation_allowed_in_loop(tmp_path):
    src = "import numpy as np\ndef f():\n    for _ in range(3):\n        np.zeros(8)\n"
    assert _rules_at(tmp_path, src, "src/repro/ksp/foo.py") == []


def test_rpr004_ignores_non_cost_identifiers(tmp_path):
    src = "def f(count, size):\n    return count == size\n"
    assert _rules_at(tmp_path, src, "src/repro/ksp/foo.py") == []


def test_rpr005_requires_a_return(tmp_path):
    src = (
        "# contracts: module=repro/ksp/fixture.py\n"
        "def peek_ksp(g, s, t, k):\n"
        "    from repro.api import solve\n"
        "    solve(g, s, t, k)\n"
    )
    assert _rules_at(tmp_path, src) == ["RPR005"]


def test_syntax_error_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert main([str(bad)]) == 2
    assert "broken.py" in capsys.readouterr().err


def test_cli_text_and_exit_codes(capsys):
    assert main([str(FIXTURES / "rpr001_good.py")]) == 0
    assert "0 new finding(s)" in capsys.readouterr().err
    assert main([str(FIXTURES / "rpr001_bad.py")]) == 1
    captured = capsys.readouterr()
    assert "RPR001" in captured.out and "4 new finding(s)" in captured.err


def test_cli_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "rpr004_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(item["rule"] == "RPR004" for item in payload)
    assert all(item["tool"] == "contracts" for item in payload)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "local: module-local rules" in out
    for rule in RULE_IDS:
        assert rule in out

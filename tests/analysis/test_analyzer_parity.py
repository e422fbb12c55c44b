"""Parity guard: the RPR rules moved into repro-contracts without drift.

The RPR001-RPR005 rules used to run as a separate lint tool.  The sets
below are what that tool and ``repro-contracts`` reported together, as
``(rule, path, line, column)``, on the fixture corpus and on the shipped
tree just before the merge; the single analyzer must reproduce them
exactly.
"""

from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import analyze_paths

REPO = Path(__file__).resolve().parents[2]
FIXTURES = REPO / "tests" / "analysis" / "fixtures"

_F = "tests/analysis/fixtures"
FIXTURE_FINDINGS = {
    ("CTR101", f"{_F}/contracts/determinism_bad.py", 11, 13),
    ("CTR102", f"{_F}/contracts/determinism_bad.py", 12, 14),
    ("CTR103", f"{_F}/contracts/determinism_bad.py", 7, 0),
    ("CTR201", f"{_F}/contracts/cancellation_bad.py", 6, 4),
    ("CTR301", f"{_F}/contracts/spans_bad.py", 6, 4),
    ("CTR301", f"{_F}/rpr002_bad.py", 5, 4),
    ("CTR501", f"{_F}/contracts/entry_bad.py", 8, 4),
    ("RPR001", f"{_F}/rpr001_bad.py", 7, 4),
    ("RPR001", f"{_F}/rpr001_bad.py", 8, 4),
    ("RPR001", f"{_F}/rpr001_bad.py", 9, 4),
    ("RPR001", f"{_F}/rpr001_bad.py", 10, 4),
    ("RPR002", f"{_F}/contracts/spans_bad.py", 6, 13),
    ("RPR002", f"{_F}/contracts/spans_good.py", 6, 13),
    ("RPR002", f"{_F}/contracts/spans_good.py", 19, 13),
    ("RPR002", f"{_F}/rpr002_bad.py", 5, 11),
    ("RPR003", f"{_F}/rpr003_bad.py", 10, 17),
    ("RPR004", f"{_F}/rpr004_bad.py", 5, 7),
    ("RPR004", f"{_F}/rpr004_bad.py", 7, 15),
    ("RPR005", f"{_F}/rpr005_bad.py", 9, 4),
}

#: pragma-suppressed findings on src/repro: the 15 CTR plus 2 RPR004 of the
#: two tools, less the CTR501 on load/cli.py's `run` command, which went
#: away with FabricSupervisor's `super().__init__` call (the call graph
#: resolved that to every `__init__`, KSP solvers included), and less the
#: 4 CTR201 pragmas that went away with the multiprocessing Δ-stepping
#: backend (parallel/mp_backend.py and its footprint recorder); and the 3
#: CTR201 pragmas on SAN-PATH's own path loops became the 2 on
#: repro.verify's loops (its path loop and the max_steps-bounded DFS), which
#: SAN-PATH now calls; plus the 2 CTR501 pragmas on load/cli.py's `run` and
#: `replay` commands, which the call graph reaches the serving loop from
#: once a local named like a module (`fabric = ServingFabric(...)`) stopped
#: being read as a module call; less the 2 CTR201 pragmas on the fleet's
#: replica-build loop and TerraceGraph.from_csr's vertex loop, which went
#: away when LiveGraph stopped building a TerraceGraph (no serving entry
#: point reaches from_csr any more); and the 4 CTR501 pragmas on the three
#: simulated-serving CLIs (load/cli.py's `run` and `replay`, dyn/cli.py's
#: `smoke`, fabric/cli.py's run) became the 1 on load/cli.py's command
#: dispatch when peek-dyn and peek-fabric became peek-load subcommands
SOURCE_SUPPRESSED = 8


def _located(result):
    return {
        (f.rule, Path(f.path).resolve().relative_to(REPO).as_posix(), f.line, f.column)
        for f in result.findings
    }


def test_fixture_corpus_findings_match_the_two_tool_union():
    # the corpus as it stood at the merge: top-level RPR fixtures plus the
    # contracts/ subtree (later fixture directories are not part of it)
    corpus = [str(FIXTURES / "contracts"), *map(str, sorted(FIXTURES.glob("*.py")))]
    assert _located(analyze_paths(corpus)) == FIXTURE_FINDINGS


@pytest.mark.slow
def test_source_tree_findings_match_the_two_tool_union(source_analysis):
    assert _located(source_analysis) == set()
    assert source_analysis.suppressed == SOURCE_SUPPRESSED

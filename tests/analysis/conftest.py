"""Shared fixtures for the analyzer tests."""

from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import analyze_paths

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def source_analysis():
    """One full analysis of the shipped tree, shared by the tree-wide gates."""
    return analyze_paths([str(SRC_REPRO)])

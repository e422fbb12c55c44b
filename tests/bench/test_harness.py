"""Unit tests for the experiment runner."""

import pytest

from repro.bench.harness import ExperimentRunner, RunRecord
from repro.errors import ReproError
from repro.ksp.base import KSPResult
from repro.paths import Path


@pytest.fixture
def runner():
    return ExperimentRunner(
        scale="tiny", pairs_per_graph=2, deadline_seconds=30
    )


class TestRunner:
    def test_graph_and_pairs_cached_consistently(self, runner):
        assert runner.graph("R21") is runner.graph("R21")
        assert runner.pairs("R21") == runner.pairs("R21")

    def test_time_run_success(self, runner):
        s, t = runner.pairs("R21")[0]
        rec = runner.time_run("PeeK", "R21", s, t, 4)
        assert rec.ok
        assert rec.seconds > 0
        assert len(rec.result.paths) <= 4

    def test_time_run_timeout(self, runner):
        fast_runner = ExperimentRunner(
            scale="tiny", pairs_per_graph=1, deadline_seconds=0.0
        )
        s, t = fast_runner.pairs("LJ")[0]
        rec = fast_runner.time_run("Yen", "LJ", s, t, 64)
        assert rec.timed_out
        assert not rec.ok

    def test_average_seconds(self, runner):
        mean, records = runner.average_seconds("OptYen", "R21", 4)
        assert mean is not None and mean > 0
        assert len(records) == 2

    def test_same_pairs_for_all_methods(self, runner):
        recs = []
        for method in ("Yen", "PeeK"):
            for s, t in runner.pairs("R21"):
                recs.append(runner.time_run(method, "R21", s, t, 4))
        runner.check_same_distances(recs)  # must not raise

    def test_mismatch_detected(self, runner):
        s, t = runner.pairs("R21")[0]
        a = runner.time_run("Yen", "R21", s, t, 4)
        b = runner.time_run("PeeK", "R21", s, t, 4)
        b.result.paths = b.result.paths[:1]  # corrupt one record
        with pytest.raises(ReproError):
            runner.check_same_distances([a, b])

    @pytest.mark.parametrize(
        "other", [[1.0], [1.0, 1.0, 1.0], [1.0, 1.0 + 1e-6]]
    )
    def test_tied_pair_mismatch_detected(self, runner, other):
        """A record that lost one of a tied pair of paths broadcast against
        the other under ``np.allclose`` and passed; other lengths raised a
        bare ``ValueError``."""
        base = KSPResult(
            paths=[Path(1.0, (0, 1, 3)), Path(1.0, (0, 2, 3))], k_requested=2
        )
        short = KSPResult(paths=[Path(d, (0, 3)) for d in other], k_requested=2)
        recs = [
            RunRecord("Yen", "R21", 2, 0, 3, 0.1, result=base),
            RunRecord("PeeK", "R21", 2, 0, 3, 0.1, result=short),
        ]
        with pytest.raises(ReproError, match="distance mismatch"):
            runner.check_same_distances(recs)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_PAIRS", "3")
        monkeypatch.setenv("REPRO_DEADLINE", "12")
        r = ExperimentRunner()
        assert r.scale == "tiny"
        assert r.pairs_per_graph == 3
        assert r.deadline_seconds == 12.0

    def test_run_callable(self, runner):
        secs, out = runner.run_callable(lambda: 41 + 1)
        assert out == 42
        assert secs >= 0

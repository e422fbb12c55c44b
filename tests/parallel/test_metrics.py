"""Unit tests for calibration, GTEPS and speedup curves."""

import pytest

from repro.parallel.metrics import calibrate, gteps, speedup_curve
from repro.parallel.scheduler import MachineModel
from repro.parallel.workload import JobKind, Phase, Workload


def wl(work=80_000):
    return Workload([Phase(JobKind.DATA, work // 4) for _ in range(4)])


class TestCalibration:
    def test_tau_from_measurement(self):
        cal = calibrate(wl(1000), measured_serial_seconds=2.0)
        assert cal.tau == pytest.approx(2.0 / 1000)
        assert cal.seconds(500) == pytest.approx(1.0)

    def test_empty_workload_safe(self):
        cal = calibrate(Workload([]), 1.0)
        assert cal.tau == 1.0

    def test_simulated_serial_seconds_match_measurement(self):
        w = wl()
        cal = calibrate(w, 3.5)
        from repro.parallel.scheduler import simulate

        assert cal.seconds(simulate(w, 1).time_units) == pytest.approx(3.5)


class TestGteps:
    def test_basic(self):
        assert gteps(2_000_000_000, 2.0) == pytest.approx(1.0)

    def test_zero_time(self):
        assert gteps(100, 0.0) == 0.0


class TestSpeedupCurve:
    def test_monotone_for_data_parallel(self):
        curve = speedup_curve(wl(), [1, 2, 4, 8])
        assert curve[1] == pytest.approx(1.0)
        assert curve[2] > 1.0
        assert curve[8] >= curve[2]

    def test_respects_model(self):
        tight = MachineModel(bandwidth_cap=2.0)
        curve = speedup_curve(wl(), [32], model=tight)
        assert curve[32] <= 2.0 + 1e-9

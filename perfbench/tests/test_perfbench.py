"""The benchmark's own tests: tiny-scale smoke runs and the determinism check.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUERIES = 24


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3):
    """One tiny-scale run with a fixed query count: (info, result)."""
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--scale", "tiny", "--queries", str(QUERIES),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    info, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= QUERIES
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    for key in ("nproc", "cpu_model", "python", "numpy", "seed", "samples"):
        assert key in info
    assert info["samples"]["latency_ms_p90"] == info["completed"] == QUERIES
    # timings are the raw values normalised by the host-speed kernel
    ref, raw, metrics = info["host_ref"], info["raw"], result["metrics"]
    assert ref["samples"] >= 1 and ref["setup_samples"] == 4
    for name, unit in emitted.items():
        f = ref["setup_factor"] if name == "setup_s" else ref["factor"]
        f = {"ms": f, "s": f, "1/s": 1 / f}.get(unit, 1.0)
        assert metrics[name]["value"] == pytest.approx(raw[name] * f)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counters_and_stream(workload):
    first, _ = run(workload, 1)
    again, _ = run.__wrapped__(workload, 1)  # a second, uncached run
    assert first["counters"] == again["counters"]
    assert first["digest"] == again["digest"]
    # the traced run answers exactly what the untraced run answers
    assert run(workload, 0)[0]["digest"] == first["digest"]
    # and the seed changes the inputs
    assert run(workload, 1, 4)[0]["digest"] != first["digest"]


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

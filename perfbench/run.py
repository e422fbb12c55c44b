"""The repository benchmark: cold PeeK solves and live-graph serving.

Run one workload at one seed, from the repository root:

    python3 perfbench/run.py --workload solve-k8 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same inputs. Every timing is normalised by
the host's current speed (hostref.py); the raw values are in ``info``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is ``{"info": ...}`` with the host, the
versions, the seed, the sample counts and the determinism counters. The exit
code is non-zero when any query failed or a check did not hold.

``--workload all`` runs every workload untraced and traced in child
processes and prints a table with the tracing overhead.

See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-k8", "solve-k128", "serve-live")

#: end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
}

#: reported by the traced run beside the layers: on a shared host both move
#: by a third between runs, too much for an end-to-end bound (README.md)
BESIDE_LAYERS = {
    "mutation_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: thread pools pinned to one thread before NumPy is imported
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", default="medium", choices=("tiny", "small", "medium"),
        help="graph scale (tiny for the benchmark's own tests)",
    )
    ap.add_argument(
        "--queries", type=int, default=None,
        help="run exactly this many timed queries instead of --seconds",
    )
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(state, import_s: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, as measured."""
    lat_ms = [x * 1e3 for x in state.latencies]
    setup = state.info["setup"]
    return {
        "latency_ms_p50": _percentile(lat_ms, 50),
        "latency_ms_p90": _percentile(lat_ms, 90),
        "throughput_qps": len(state.latencies) / state.timed_s,
        "setup_s": import_s + setup["pool_s"] + statistics.median(setup["reps_s"]),
    }


def run_one(args) -> int:
    import numpy  # noqa: F401 - imported here, after the thread pools are pinned

    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from hostref import factor
    from layers import LAYER_METRICS

    import_s = time.perf_counter() - _START
    state = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.queries
    )
    if not state.latencies or (args.trace and not state.mutations):
        print("no query or mutation completed", file=sys.stderr)
        return 1
    if args.trace:
        raw = {
            **state.layers.metrics(),
            "mutation_ms_p50": statistics.median(state.mutations) * 1e3,
            "peak_rss_mb": state.info["peak_rss_mb"],
        }
        units = {**LAYER_METRICS, **BESIDE_LAYERS}
    else:
        raw = end_to_end(state, import_s)
        units = END_TO_END
    # every timing is normalised to the host speed hostref.REF_MS stands
    # for; set-up by the kernel's times beside set-up, the rest by its times
    # beside the timed phase
    run_f, setup_f = factor(state.ref_s), factor(state.setup_ref_s)
    scale = {"ms": run_f, "1/s": 1 / run_f}
    values = {
        name: raw[name] * (setup_f if name == "setup_s" else scale.get(unit, 1.0))
        for name, unit in units.items()
    }
    n = len(state.latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "?"),
        "completed": n,
        "samples": {
            "latency_ms_p50": n,
            "latency_ms_p90": n,
            "beyond_p90": n - math.ceil(0.9 * n),
            "mutation_ms_p50": len(state.mutations),
        },
        "latency_ms_max": max(state.latencies) * 1e3,
        "timed_s": state.timed_s,
        **state.info,
        "host_ref": {
            "ms_median": statistics.median(state.ref_s) * 1e3,
            "samples": len(state.ref_s),
            "factor": run_f,
            "setup_ms_median": statistics.median(state.setup_ref_s) * 1e3,
            "setup_samples": len(state.setup_ref_s),
            "setup_factor": setup_f,
        },
        "raw": raw,
        "counters": dict(sorted(state.counters.items())),
        "digest": state.digest.hexdigest(),
        "failures": state.failures,
    }
    if args.trace:
        info["layer_bases"] = state.layers.bases()
        info["probe_digest"] = state.probe_digest.hexdigest()
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": state.failed == 0,
                "attempted": state.attempted,
                "failed": state.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if state.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            if args.queries is not None:
                cmd += ["--queries", str(args.queries)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            if lines:
                results[(workload, trace)] = json.loads(lines[-1])
    print(f"{'workload':<11} {'trace':>5} {'correct':>7} {'attempted':>9} {'failed':>6}")
    for (workload, trace), res in results.items():
        print(
            f"{workload:<11} {trace:>5} {str(res['correct']):>7} "
            f"{res['attempted']:>9} {res['failed']:>6}"
        )
    print(f"\n{'workload':<11} {'metric':<16} {'untraced':>10} {'traced':>10}")
    for workload in WORKLOADS:
        plain = results.get((workload, 0), {}).get("metrics", {})
        traced = results.get((workload, 1), {}).get("metrics", {})
        for q in ("p50", "p90"):
            a = plain.get(f"latency_ms_{q}", {}).get("value", float("nan"))
            b = traced.get(f"trace.latency_ms_{q}", {}).get("value", float("nan"))
            print(f"{workload:<11} {'latency_ms_' + q:<16} {a:>10.2f} {b:>10.2f}")
    summary = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "runs": {f"{w}/trace={t}": r for (w, t), r in results.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["RPR_SANITIZE"] = "0"  # the sanitizers would time themselves
    os.environ.pop("REPRO_CACHE_DIR", None)  # graphs are generated, never loaded
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

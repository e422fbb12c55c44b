# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH — no install step needed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow lint contracts bench bench-serving bench-dyn bench-fabric goldens example-tuning

## Tier-1 suite: the full gate every change must keep green.
test:
	$(PYTHON) -m pytest -x -q

## Fast loop: skips tests marked `slow` (medium-scale smoke tests).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Opt-in medium-scale smoke tests only.
test-slow:
	REPRO_RUN_SLOW=1 $(PYTHON) -m pytest -q -m slow

## Lint (CI runs this; requires ruff, which is not a runtime dependency):
## ruff, then the repo's static analyzer (the `contracts` target).
lint: contracts
	ruff check src tests

## The static analyzer, repro-contracts (rules CTR101-CTR501 and
## RPR001-RPR005; see docs/correctness_tooling.md).  Fails on any finding
## not in the checked-in baseline; also refreshes the coverage self-report.
contracts:
	$(PYTHON) -m repro.analysis.contracts --baseline contracts_baseline.json \
		--report results/contracts_report.txt src/repro

## The repository benchmark (perfbench/README.md): every workload, untraced
## and traced, with warm-up, repeated cells and per-layer columns.  Prints
## its results; writes no file.
bench:
	$(PYTHON) perfbench/run.py --workload all

## Serving-capacity benchmark: the medium run table on simulated time.
## Writes BENCH_serving.json and results/serving_capacity.txt.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

## Live-graph serving benchmark: prune-bound reuse under seeded
## mutation streams.  Writes BENCH_dyn_serving.json and
## results/dyn_serving.txt.
bench-dyn:
	$(PYTHON) benchmarks/bench_dyn_serving.py

## Fabric SLO benchmark: replicated serving under seeded replica kills.
## Writes BENCH_fabric.json and results/fabric_slo.txt.
bench-fabric:
	$(PYTHON) benchmarks/bench_fabric.py

## The serving goldens: regenerate the six serving artefacts and fail if
## any differs from its committed bytes (CI's serving-artefacts job runs
## exactly this).  Any diff means the serving loop computes something
## different.
GOLDENS := BENCH_serving.json BENCH_dyn_serving.json BENCH_fabric.json \
	results/serving_capacity.txt results/dyn_serving.txt results/fabric_slo.txt

goldens: bench-serving bench-dyn bench-fabric
	git diff --exit-code -- $(GOLDENS)

## The performance-tuning walkthrough.
example-tuning:
	$(PYTHON) examples/performance_tuning.py

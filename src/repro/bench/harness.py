"""The experiment runner shared by every table/figure benchmark.

Responsibilities:

* hold the suite scale and the per-(graph, seed) s–t pairs so **every
  algorithm is measured on identical queries** (paper §7.1: "We use the
  same source and target pairs for PeeK and compared works");
* time single runs with a per-run deadline, recording the paper's hyphen
  for timeouts;
* cache generated graphs and pair selections across experiments.

Environment knobs (read once at construction):

* ``REPRO_SCALE`` — suite scale preset (tiny/small/medium), default small;
* ``REPRO_PAIRS`` — s–t pairs per graph, default 2 (paper: 32 — at paper
  scale; scaled down with the graphs);
* ``REPRO_DEADLINE`` — per-run deadline in seconds, default 60 (paper: 1h).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cancel import deadline_in, now
from repro.errors import ReproError
from repro.graph.suite import SUITE_NAMES, random_st_pairs, suite_graph
from repro.ksp import make_algorithm
from repro.ksp.base import KSPTimeout
from repro.obs.tracer import get_tracer
from repro.paths import costs_close
from repro.serve.query import Query, validate_query

__all__ = ["RunRecord", "ExperimentRunner"]


@dataclass
class RunRecord:
    """One timed (method, graph, K, pair) execution."""

    method: str
    graph: str
    k: int
    source: int
    target: int
    seconds: float
    timed_out: bool = False
    result: object = None

    @property
    def ok(self) -> bool:
        return not self.timed_out and self.result is not None


@dataclass
class ExperimentRunner:
    scale: str = field(
        default_factory=lambda: os.environ.get("REPRO_SCALE", "small")
    )
    pairs_per_graph: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_PAIRS", "2"))
    )
    deadline_seconds: float = field(
        default_factory=lambda: float(os.environ.get("REPRO_DEADLINE", "60"))
    )
    pair_seed: int = 2023

    def graph(self, name: str):
        """The suite graph ``name`` at this runner's scale (cached)."""
        return suite_graph(name, self.scale)

    def pairs(self, name: str) -> list[tuple[int, int]]:
        """The fixed s–t pairs for graph ``name`` (same for all methods)."""
        return random_st_pairs(
            self.graph(name), self.pairs_per_graph, seed=self.pair_seed
        )

    def graph_names(self) -> tuple[str, ...]:
        return SUITE_NAMES

    # ------------------------------------------------------------------
    def time_run(
        self,
        method: str,
        graph_name: str,
        source: int,
        target: int,
        k: int,
        **kwargs,
    ) -> RunRecord:
        """Run one algorithm once under the deadline; never raises on timeout."""
        graph = self.graph(graph_name)
        validate_query(graph, Query(source=source, target=target, k=k))
        deadline = deadline_in(self.deadline_seconds)
        t0 = now()
        try:
            with get_tracer().span(
                "bench.run",
                method=method,
                graph=graph_name,
                k=k,
                source=source,
                target=target,
            ):
                algo = make_algorithm(
                    method, graph, source, target, deadline=deadline, **kwargs
                )
                result = algo.run(k)
            seconds = now() - t0
            # cheap independent audit outside the timed region: endpoints,
            # simplicity, edge existence, distances, ordering
            from repro.verify import verify_ksp_result

            report = verify_ksp_result(graph, source, target, result)
            if not report:
                raise ReproError(
                    f"{method} returned an invalid result on "
                    f"{graph_name} ({source}->{target}, k={k}): {report}"
                )
            return RunRecord(
                method=method,
                graph=graph_name,
                k=k,
                source=source,
                target=target,
                seconds=seconds,
                result=result,
            )
        except KSPTimeout:
            return RunRecord(
                method=method,
                graph=graph_name,
                k=k,
                source=source,
                target=target,
                seconds=now() - t0,
                timed_out=True,
            )

    def average_seconds(
        self, method: str, graph_name: str, k: int, **kwargs
    ) -> tuple[float | None, list[RunRecord]]:
        """Mean runtime over this graph's pairs; None when any run timed out.

        The paper reports per-graph averages over its 32 pairs and a hyphen
        when the method cannot finish — same policy here.
        """
        records = []
        for s, t in self.pairs(graph_name):
            rec = self.time_run(method, graph_name, s, t, k, **kwargs)
            records.append(rec)
            if rec.timed_out:
                return None, records
        return float(np.mean([r.seconds for r in records])), records

    def run_callable(
        self, fn: Callable[[], object]
    ) -> tuple[float, object]:
        """Time an arbitrary zero-arg callable once."""
        t0 = now()
        out = fn()
        return now() - t0, out

    def check_same_distances(self, records: list[RunRecord]) -> None:
        """Assert every completed record on the same query found the same
        distances — the harness-level cross-validation of §7.1."""
        by_query: dict[tuple, list[RunRecord]] = {}
        for r in records:
            if r.ok:
                by_query.setdefault((r.graph, r.k, r.source, r.target), []).append(r)
        for key, group in by_query.items():
            base = group[0].result.distances
            for other in group[1:]:
                got = other.result.distances
                if len(got) != len(base) or not all(
                    costs_close(a, b) for a, b in zip(base, got)
                ):
                    raise ReproError(
                        f"distance mismatch between {group[0].method} "
                        f"({len(base)} paths) and {other.method} "
                        f"({len(got)} paths) on {key}"
                    )

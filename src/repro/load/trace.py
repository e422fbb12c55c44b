"""JSONL query traces: record a workload once, replay it anywhere.

A trace file is newline-delimited JSON in the same spirit as the obs
trace format (``repro/obs/export.py``): one ``meta`` record first, then
one ``query`` record per request, sorted by ``at``:

.. code-block:: json

    {"type": "meta", "version": 1, "queries": 2, "source": {...}}
    {"type": "query", "at": 0.013, "source": 5, "target": 91, "k": 4,
     "timeout": 0.05, "request_id": "q000000"}
    {"type": "query", "at": 0.021, "source": 17, "target": 91, "k": 2,
     "timeout": 0.05, "request_id": "q000001"}

``at`` is the simulated issue instant; the other fields are exactly the
:class:`~repro.serve.Query` fields.  Floats survive the round trip
bit-for-bit (``json`` emits shortest-repr floats), so *generate → dump →
load → replay* reproduces the per-query schedule identically — the
round-trip property the trace tests pin down.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random
from typing import Any, Iterable, Iterator

from repro.load.arrivals import ArrivalProcess
from repro.load.harness import MIX_STREAM_OFFSET
from repro.load.mixes import QueryMix
from repro.serve.query import Query

__all__ = [
    "dump_trace",
    "load_trace",
    "open_loop_queries",
    "record_open_loop",
]

TRACE_VERSION = 1


def dump_trace(
    queries: Iterable[Query],
    path: str | Path,
    *,
    source: dict[str, Any] | None = None,
) -> Path:
    """Write ``queries`` as a JSONL trace; ``source`` annotates the meta
    record (e.g. the generating pattern/mix specs) and is purely
    descriptive."""
    path = Path(path)
    queries = list(queries)
    meta = {
        "type": "meta",
        "version": TRACE_VERSION,
        "queries": len(queries),
        "source": source or {},
    }
    with path.open("w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for q in queries:
            fh.write(
                json.dumps(
                    {
                        "type": "query",
                        "at": q.issued_at,
                        "source": q.source,
                        "target": q.target,
                        "k": q.k,
                        "timeout": q.timeout,
                        "request_id": q.request_id,
                    }
                )
                + "\n"
            )
    return path


def load_trace(path: str | Path) -> list[Query]:
    """Read a trace back as :class:`~repro.serve.Query` objects.

    Validates the header version and returns queries in file order
    (which :func:`dump_trace` keeps sorted by ``at``).
    """
    out: list[Query] = []
    with Path(path).open() as fh:
        try:
            header = dict(json.loads(fh.readline()))
        except (TypeError, ValueError):  # not a JSON object
            header = {}
        if header.get("type") != "meta" or header.get("version") != TRACE_VERSION:
            raise ValueError(
                f"{path}: not a version-{TRACE_VERSION} query trace"
            )
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") != "query":
                continue
            out.append(
                Query(
                    source=rec["source"],
                    target=rec["target"],
                    k=rec["k"],
                    timeout=rec.get("timeout"),
                    request_id=rec.get("request_id", ""),
                    issued_at=rec["at"],
                )
            )
    return out


def open_loop_queries(
    process: ArrivalProcess,
    mix: QueryMix | None,
    *,
    horizon: float,
    seed: int,
    timeout: float | None = None,
    max_queries: int | None = None,
) -> Iterator[Query]:
    """Lazily generate an open-loop workload, one :class:`Query` per arrival.

    Two seeded RNG streams: one for arrival times (``seed``) and one for
    query content (``seed + MIX_STREAM_OFFSET``), so the schedule does not
    depend on the mix and vice versa.  This is the only open-loop
    generator: :class:`~repro.fabric.fabric.ServingFabric` serves live
    traffic from it and :func:`record_open_loop` materializes it, so a
    recorded trace replays the identical schedule.
    """
    if mix is None:
        raise ValueError("an open-loop run needs a query mix")
    rng_arrivals = Random(seed)
    rng_mix = Random(seed + MIX_STREAM_OFFSET)
    for i, t in enumerate(process.arrivals(rng_arrivals, horizon)):
        if max_queries is not None and i >= max_queries:
            return
        source, target, k = mix.sample(rng_mix)
        yield Query(
            source=source,
            target=target,
            k=k,
            timeout=timeout,
            request_id=f"q{i:06d}",
            issued_at=t,
        )


def record_open_loop(
    process: ArrivalProcess,
    mix: QueryMix,
    *,
    horizon: float,
    seed: int,
    timeout: float | None = None,
    max_queries: int | None = None,
) -> list[Query]:
    """Materialize an open-loop workload as a query list (see
    :func:`open_loop_queries`)."""
    return list(
        open_loop_queries(
            process,
            mix,
            horizon=horizon,
            seed=seed,
            timeout=timeout,
            max_queries=max_queries,
        )
    )

"""``peek-load smoke``: the mutation feed stops at the last query."""

from random import Random

from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.graph.suite import suite_graph
from repro.load.arrivals import PoissonArrivals
from repro.load.cli import STREAM_SEED_OFFSET, run_smoke


def test_default_smoke_applies_no_batch_after_its_last_query():
    payload = run_smoke()
    # replay the default smoke's two streams on their own
    last = list(PoissonArrivals(rate=40.0).arrivals(Random(0), 4.0))[-1]
    live = LiveGraph(suite_graph("LJ", "tiny"))
    stream = IncidentStream(seed=STREAM_SEED_OFFSET, rate=2.0)
    applied = 0
    for batch in stream.batches(live, 4.0):
        if batch.at > last:
            break
        live.apply(batch)
        applied += 1
    assert applied > 0
    assert payload["final_version"] == applied
    assert payload["metrics"]["mutation_batches"] == applied
    # the last rebind came before traffic ended, so the caches it kept
    # (and the queries after it refilled) are still there
    info = payload["cache_info"]
    assert info["prepared_cached"] > 0
    assert info["forward_cached"] + info["reverse_cached"] > 0

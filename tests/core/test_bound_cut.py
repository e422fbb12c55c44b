"""PeeK's prune bound in the remnant solver changes no answer.

:func:`~repro.core.batch.prepare_remnant` hands the prune's slack-widened
threshold to a remnant solver whose registry spec takes ``bound=``
(OptYen).  OptYen then skips deviations whose lower bound is already above
it and stops its A* fallback at ``bound - prefix cost``.  PeeK's K paths
must stay bitwise what the remnant OptYen finds without the bound —
including on the unit-weight graphs, where many paths tie at ``b``.
"""

import numpy as np
import pytest

from repro.core.integrate import PrunedKSP
from repro.core.peek import PeeK
from repro.graph.suite import random_st_pairs, suite_graph
from repro.ksp.optyen import OptYenKSP
from repro.obs import Tracer, use_tracer
from repro.paths import INF

GRAPHS = [
    (name, scale)
    for scale in ("tiny", "small")
    for name in ("LJ", "WL", "LJU", "WLU")
]


def _unbounded_remnant(prep, k):
    """The remnant OptYen of ``prep`` rerun without the bound."""
    inner = prep.inner
    plain = OptYenKSP(inner.graph, inner.source, inner.target)
    return plain, prep.map_paths(plain.run(k).paths)


def _as_bytes(paths):
    return [
        (p.vertices, np.float64(p.distance).tobytes()) for p in paths
    ]


@pytest.mark.parametrize("name, scale", GRAPHS)
def test_bound_changes_no_path(name, scale):
    g = suite_graph(name, scale)
    skips = 0
    for s, t in random_st_pairs(g, 2, seed=7):
        for k in (1, 8, 128):
            peek = PeeK(g, s, t)
            got = peek.run(k)
            prep = peek.prepared
            assert prep.inner.bound == peek.prune_result.threshold
            plain, ref = _unbounded_remnant(prep, k)
            assert _as_bytes(got.paths) == _as_bytes(ref)
            skips += prep.inner.stats.bound_skips
            # the cut only removes searches
            assert prep.inner.stats.sssp_calls <= plain.stats.sssp_calls
            assert plain.stats.bound_skips == 0
    if name in ("LJ", "WL"):
        assert skips > 0  # the bound really prunes something here


def test_bound_skips_reach_the_ksp_span():
    g = suite_graph("LJ", "tiny")
    s, t = random_st_pairs(g, 1, seed=7)[0]
    peek = PeeK(g, s, t)
    with use_tracer(Tracer()) as tracer:
        peek.run(128)
    (span,) = tracer.find("ksp")
    skips = peek.prepared.inner.stats.bound_skips
    assert skips > 0
    assert span.counters["ksp.bound_skips"] == skips


def test_only_bound_aware_solvers_get_the_bound():
    """The bound goes by the registry spec's keywords: a Yen remnant gets
    none, and an unpruned PeeK (no prune result) runs an unbounded OptYen."""
    g = suite_graph("LJ", "tiny")
    s, t = random_st_pairs(g, 1, seed=7)[0]
    pruned = PrunedKSP(g, s, t, inner="Yen")
    pruned.run(8)
    assert not hasattr(pruned.prepared.inner, "bound")
    base = PeeK(g, s, t, prune=False)
    base.run(8)
    assert base.prepared.inner.bound == INF

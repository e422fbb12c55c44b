"""``_relax_batch`` — the batch reduction every Δ-stepping engine commits with.

Checked against a pure-Python reference of its contract: each target takes
its minimum candidate, the earliest batch position attaining it supplies
the parent, and only strict improvements over the current distance are
written.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paths import INF
from repro.sssp.delta_stepping import _relax_batch


def reference_relax(dist, parent, targets, cands, sources):
    """Per-request loop: first strict minimum per target, then commit."""
    best = {}
    for t, c, s in zip(targets.tolist(), cands.tolist(), sources.tolist()):
        if t not in best or c < best[t][0]:
            best[t] = (c, s)
    improved = []
    for t in sorted(best):
        c, s = best[t]
        if c < dist[t]:
            dist[t] = c
            parent[t] = s
            improved.append(t)
    return np.asarray(improved, dtype=np.int64)


def run_both(dist, targets, cands, sources):
    parent = np.full(dist.size, -1, dtype=np.int64)
    d_ref, p_ref = dist.copy(), parent.copy()
    d_new, p_new = dist.copy(), parent.copy()
    want = reference_relax(d_ref, p_ref, targets, cands, sources)
    got = _relax_batch(
        d_new,
        p_new,
        np.asarray(targets, dtype=np.int64),
        np.asarray(cands, dtype=np.float64),
        np.asarray(sources, dtype=np.int64),
    )
    assert np.array_equal(got, want)
    assert np.array_equal(d_new, d_ref)
    assert np.array_equal(p_new, p_ref)
    return got, d_new, p_new


def test_equal_candidate_does_not_update():
    dist = np.array([0.0, 5.0, INF])
    got, d, p = run_both(
        dist, np.array([1, 2]), np.array([5.0, 7.0]), np.array([0, 0])
    )
    assert got.tolist() == [2]
    assert d[1] == 5.0 and p[1] == -1


def test_earliest_minimum_wins_among_duplicates():
    dist = np.full(4, INF)
    got, d, p = run_both(
        dist,
        np.array([3, 3, 1, 3, 3]),
        np.array([4.0, 2.0, 9.0, 2.0, 3.0]),
        np.array([0, 1, 0, 2, 3]),
    )
    assert got.tolist() == [1, 3]
    assert d[3] == 2.0 and p[3] == 1


def test_all_non_improving_batch_is_a_no_op():
    dist = np.array([0.0, 1.0, 2.0])
    parent = np.array([0, 0, 1])
    got = _relax_batch(
        dist,
        parent,
        np.array([1, 2, 2], dtype=np.int64),
        np.array([1.0, 2.5, 2.0]),
        np.array([2, 0, 0], dtype=np.int64),
    )
    assert got.size == 0 and got.dtype == np.int64
    assert dist.tolist() == [0.0, 1.0, 2.0]
    assert parent.tolist() == [0, 0, 1]


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([1.0, 2.0, 3.0, INF]), min_size=n, max_size=n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, 4).map(float),
                    st.integers(0, n - 1),
                ),
                max_size=40,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_tie_heavy_batches(case):
    dist, requests = case
    t = [r[0] for r in requests]
    c = [r[1] for r in requests]
    s = [r[2] for r in requests]
    run_both(
        np.asarray(dist, dtype=np.float64),
        np.asarray(t, dtype=np.int64),
        np.asarray(c, dtype=np.float64),
        np.asarray(s, dtype=np.int64),
    )

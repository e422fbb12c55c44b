"""Hypothesis property tests for the CSR substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_array, from_edge_list


@st.composite
def edge_sets(draw, max_n=20, max_m=60):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.random(m) * 10 + 0.01
    return n, src, dst, w


@given(edge_sets())
@settings(max_examples=50, deadline=None)
def test_iter_edges_round_trip(case):
    """graph -> edge list -> graph is the identity (post-dedup)."""
    n, src, dst, w = case
    g = from_edge_array(n, src, dst, w)
    rebuilt = from_edge_list(n, list(g.iter_edges()))
    assert rebuilt.structurally_equal(g)


@given(edge_sets())
@settings(max_examples=50, deadline=None)
def test_reverse_is_involution(case):
    n, src, dst, w = case
    g = from_edge_array(n, src, dst, w)
    rr = from_edge_list(n, list(g.reverse().reverse().iter_edges()))
    assert rr.structurally_equal(g)


@given(edge_sets())
@settings(max_examples=50, deadline=None)
def test_degree_sums(case):
    n, src, dst, w = case
    g = from_edge_array(n, src, dst, w)
    assert int(g.out_degrees().sum()) == g.num_edges
    rev = g.reverse()
    assert int(rev.out_degrees().sum()) == g.num_edges


@given(edge_sets())
@settings(max_examples=40, deadline=None)
def test_dedup_idempotent(case):
    n, src, dst, w = case
    g = from_edge_array(n, src, dst, w)
    again = from_edge_array(
        n, g.edge_sources(), g.indices, g.weights
    )
    assert again.num_edges == g.num_edges

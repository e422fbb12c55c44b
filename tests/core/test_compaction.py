"""Unit tests for the three compaction strategies and the adaptive rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import (
    StatusArrayView,
    adaptive_compact,
    compact_edge_swap,
    compact_regenerate,
    compact_status_array,
)
from repro.errors import GraphFormatError, VertexError
from repro.graph.build import from_edge_array
from repro.graph.suite import random_st_pairs, suite_graph
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra


@pytest.fixture
def pruned_case(medium_er):
    """A graph plus a realistic keep decision from actual pruning."""
    from repro.core.pruning import k_upper_bound_prune
    from tests.conftest import random_reachable_pair

    s, t = random_reachable_pair(medium_er, seed=13)
    pr = k_upper_bound_prune(medium_er, s, t, 4)
    return medium_er, pr.keep_vertices, pr.keep_edges, s, t


def live_adjacency(graph, keep_v, keep_e):
    """Reference live-edge set computed straight from the masks."""
    src = graph.edge_sources()
    live = keep_e & keep_v[src] & keep_v[graph.indices]
    return {
        (int(src[e]), int(graph.indices[e]), float(graph.weights[e]))
        for e in np.flatnonzero(live)
    }


class TestStatusArray:
    def test_neighbors_filtered(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_status_array(g, kv, ke)
        expect = live_adjacency(g, kv, ke)
        got = set()
        for v in np.flatnonzero(kv).tolist():
            ts, ws = view.neighbors(v)
            got.update((v, int(a), float(w)) for a, w in zip(ts, ws))
        assert got == expect

    def test_num_edges_is_live_count(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_status_array(g, kv, ke)
        assert view.num_edges == len(live_adjacency(g, kv, ke))

    def test_reverse_mask_permuted_correctly(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        rev = compact_status_array(g, kv, ke).reverse()
        expect = {(b, a, w) for a, b, w in live_adjacency(g, kv, ke)}
        got = set()
        for v in range(g.num_vertices):
            ts, ws = rev.neighbors(v)
            got.update((v, int(a), float(w)) for a, w in zip(ts, ws))
        assert got == expect

    def test_bad_mask_length(self, medium_er):
        with pytest.raises(GraphFormatError):
            StatusArrayView(medium_er, np.ones(3, dtype=bool))

    def test_vertex_bounds(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_status_array(g, kv, ke)
        with pytest.raises(VertexError):
            view.neighbors(g.num_vertices)


class TestEdgeSwap:
    def test_live_edges_preserved(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_edge_swap(g, kv, ke)
        expect = live_adjacency(g, kv, ke)
        got = set()
        for v in np.flatnonzero(kv).tolist():
            ts, ws = view.neighbors(v)
            got.update((v, int(a), float(w)) for a, w in zip(ts, ws))
        assert got == expect

    def test_base_graph_untouched(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        before = g.indices.copy()
        compact_edge_swap(g, kv, ke)
        assert np.array_equal(g.indices, before)

    def test_ranges_contiguous(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_edge_swap(g, kv, ke)
        begins, ends, idx, w, mask = view.adjacency_arrays()
        assert mask is None
        assert np.all(ends >= begins[: len(ends)])

    def test_edge_weight_lookup(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        view = compact_edge_swap(g, kv, ke)
        ts, ws = view.neighbors(s)
        if ts.size:
            assert view.edge_weight(s, int(ts[0])) is not None

    def test_reverse_consistent(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        rev = compact_edge_swap(g, kv, ke).reverse()
        expect = {(b, a, w) for a, b, w in live_adjacency(g, kv, ke)}
        got = set()
        for v in np.flatnonzero(kv).tolist():
            ts, ws = rev.neighbors(v)
            got.update((v, int(a), float(w)) for a, w in zip(ts, ws))
        assert got == expect


class TestRegeneration:
    def test_counts(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        regen = compact_regenerate(g, kv, ke)
        assert regen.graph.num_vertices == int(kv.sum())
        assert regen.graph.num_edges == len(live_adjacency(g, kv, ke))

    def test_id_maps_inverse(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        regen = compact_regenerate(g, kv, ke)
        for new, old in enumerate(regen.old_id.tolist()):
            assert regen.new_id[old] == new

    def test_map_vertex_raises_for_pruned(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        regen = compact_regenerate(g, kv, ke)
        dead = int(np.flatnonzero(~kv)[0])
        with pytest.raises(VertexError):
            regen.map_vertex(dead)

    def test_edges_translated(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        regen = compact_regenerate(g, kv, ke)
        expect = live_adjacency(g, kv, ke)
        got = {
            (int(regen.old_id[u]), int(regen.old_id[v]), w)
            for u, v, w in regen.graph.iter_edges()
        }
        assert got == expect

    def test_map_path_back(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        regen = compact_regenerate(g, kv, ke)
        ns, nt = regen.map_vertex(s), regen.map_vertex(t)
        res = dijkstra(regen.graph, ns, target=nt)
        from repro.paths import reconstruct_path

        path = reconstruct_path(res.parent, ns, nt)
        back = regen.map_path_back(path)
        assert back[0] == s and back[-1] == t


class TestEquivalence:
    """All three strategies must expose identical downstream graphs."""

    def test_sssp_identical_across_strategies(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        sa = compact_status_array(g, kv, ke)
        es = compact_edge_swap(g, kv, ke)
        regen = compact_regenerate(g, kv, ke)
        d_sa = dijkstra(sa, s).dist
        d_es = dijkstra(es, s).dist
        d_rg = dijkstra(regen.graph, regen.map_vertex(s)).dist
        assert np.allclose(
            np.nan_to_num(d_sa, posinf=-1), np.nan_to_num(d_es, posinf=-1)
        )
        # regenerated ids differ; compare through the map
        for old in np.flatnonzero(kv).tolist():
            new = int(regen.new_id[old])
            a, b = d_sa[old], d_rg[new]
            assert (np.isinf(a) and np.isinf(b)) or a == pytest.approx(b)

    def test_delta_stepping_works_on_views(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        sa = compact_status_array(g, kv, ke)
        es = compact_edge_swap(g, kv, ke)
        assert np.allclose(
            np.nan_to_num(delta_stepping(sa, s).dist, posinf=-1),
            np.nan_to_num(delta_stepping(es, s).dist, posinf=-1),
        )


class TestAdaptive:
    def test_small_remnant_regenerates(self, medium_er):
        kv = np.zeros(medium_er.num_vertices, dtype=bool)
        kv[:5] = True
        res = adaptive_compact(medium_er, kv, alpha=0.1)
        assert res.strategy == "regeneration"
        assert res.is_regenerated

    def test_large_remnant_edge_swaps(self, medium_er):
        kv = np.ones(medium_er.num_vertices, dtype=bool)
        res = adaptive_compact(medium_er, kv, alpha=0.1)
        assert res.strategy == "edge-swap"

    def test_alpha_moves_the_threshold(self, medium_er):
        kv = np.ones(medium_er.num_vertices, dtype=bool)
        res = adaptive_compact(medium_er, kv, alpha=1.0)
        # everything kept: m_r == m is NOT < alpha*m, so still edge-swap
        assert res.strategy == "edge-swap"
        kv2 = kv.copy()
        kv2[medium_er.num_vertices // 2 :] = False
        assert (
            adaptive_compact(medium_er, kv2, alpha=1.0).strategy
            == "regeneration"
        )

    def test_force_overrides(self, medium_er):
        kv = np.zeros(medium_er.num_vertices, dtype=bool)
        kv[:5] = True
        res = adaptive_compact(medium_er, kv, force="status-array")
        assert res.strategy == "status-array"

    def test_bad_alpha(self, medium_er):
        with pytest.raises(ValueError):
            adaptive_compact(
                medium_er, np.ones(medium_er.num_vertices, bool), alpha=1.5
            )

    def test_bad_force(self, medium_er):
        with pytest.raises(ValueError):
            adaptive_compact(
                medium_er,
                np.ones(medium_er.num_vertices, bool),
                force="quantum",
            )

    def test_result_fields(self, pruned_case):
        g, kv, ke, s, t = pruned_case
        res = adaptive_compact(g, kv, ke)
        assert res.remaining_vertices == int(kv.sum())
        assert 0 <= res.remaining_edge_fraction <= 1
        assert res.build_work > 0
        assert res.build_seconds >= 0


# ---------------------------------------------------------------------------
# Regeneration from the kept set against the mask-built one


def mask_regenerate(graph, keep_vertices, keep_edges):
    """The regenerated CSR as an m-wide edge mask builds it: the reference
    the kept-set builder must equal byte for byte."""
    src_all = graph.edge_sources()
    live = keep_vertices[src_all] & keep_vertices[graph.indices]
    if keep_edges is not None:
        live &= keep_edges
    old_id = np.flatnonzero(keep_vertices).astype(np.int64)
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[old_id] = np.arange(old_id.size, dtype=np.int64)
    src = src_all[live]
    counts = np.bincount(new_id[src], minlength=old_id.size)
    indptr = np.zeros(old_id.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, new_id[graph.indices[live]], graph.weights[live], new_id, old_id


def assert_regeneration_equal(graph, kv, ke, alpha=1.0):
    indptr, indices, weights, new_id, old_id = mask_regenerate(graph, kv, ke)
    m_r, n_r = indices.size, old_id.size
    res = adaptive_compact(graph, kv, ke, alpha=alpha)
    expect = "regeneration" if m_r < alpha * graph.num_edges else "edge-swap"
    assert res.strategy == expect
    assert res.remaining_edges == m_r
    assert res.remaining_vertices == n_r
    forced = adaptive_compact(graph, kv, ke, force="regeneration")
    assert forced.build_work == (
        graph.num_edges + 2 * graph.num_vertices + m_r + 2 * n_r
    )
    for regen in (forced.compacted, compact_regenerate(graph, kv, ke)):
        assert regen.graph.indptr.tobytes() == indptr.tobytes()
        assert regen.graph.indices.tobytes() == indices.tobytes()
        assert regen.graph.weights.tobytes() == weights.tobytes()
        assert regen.new_id.tobytes() == new_id.tobytes()
        assert regen.old_id.tobytes() == old_id.tobytes()


@st.composite
def keep_cases(draw):
    """A raw digraph (parallel edges, self-loops, unsorted rows) and
    arbitrary vertex and edge keep masks."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 70))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    g = from_edge_array(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64), dedup=False, drop_self_loops=False,
    )
    kv = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ke = None
    if draw(st.booleans()):
        ke = np.asarray(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return g, kv, ke


class TestKeptSetRegeneration:
    @given(keep_cases(), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_byte_identical_to_mask_build(self, case, alpha):
        assert_regeneration_equal(*case, alpha=alpha)

    @pytest.mark.parametrize("strong", [False, True])
    @pytest.mark.parametrize("name", ["LJ", "WLU"])
    def test_prune_decisions(self, name, strong):
        from repro.core.pruning import k_upper_bound_prune

        g = suite_graph(name, "tiny")
        for s, t in random_st_pairs(g, 3, seed=2):
            for k in (1, 8, 128):
                pr = k_upper_bound_prune(g, s, t, k, strong_edge_prune=strong)
                assert_regeneration_equal(g, pr.keep_vertices, pr.keep_edges, alpha=0.1)

    def test_parallel_edges(self):
        src = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3])
        dst = np.array([1, 1, 2, 2, 2, 3, 0, 0, 1, 1])
        w = np.array([2.0, 1.0, 4.0, 1.0, 3.0, 1.0, 5.0, 1.0, 2.0, 2.0])
        g = from_edge_array(4, src, dst, w, dedup=False)
        for kv in ([1, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1]):
            kv = np.asarray(kv, dtype=bool)
            assert_regeneration_equal(g, kv, None)
            assert_regeneration_equal(g, kv, g.weights <= 2.0)

    def test_bad_mask_length_on_every_path(self, medium_er):
        kv = np.ones(3, dtype=bool)
        with pytest.raises(GraphFormatError):
            compact_regenerate(medium_er, kv)
        with pytest.raises(GraphFormatError):
            adaptive_compact(medium_er, kv)


# ---------------------------------------------------------------------------
# The weight rule applied to the kept slices against the m-wide mask


def compacted_arrays(res):
    """Every array a compaction result hands downstream, as bytes."""
    c = res.compacted
    if res.strategy == "regeneration":
        arrays = (c.graph.indptr, c.graph.indices, c.graph.weights, c.new_id, c.old_id)
    elif res.strategy == "edge-swap":
        arrays = (c.indices, c.weights, c.adjacency_arrays()[1], c.keep_vertices)
    else:
        arrays = (c.edge_mask, c.keep_vertices)
    return [a.tobytes() for a in arrays] + [
        res.strategy, res.remaining_vertices, res.remaining_edges, res.build_work,
    ]


class TestThresholdRule:
    @pytest.mark.parametrize("strong", [False, True])
    @pytest.mark.parametrize("name", ["LJ", "WL", "WLU"])
    def test_equals_the_mask_built_compaction(self, name, strong):
        """``threshold=`` (and the strong mask, if any) gives what the
        eager ``weights <= threshold`` mask gives, under every strategy
        and under the α rule."""
        from repro.core.pruning import k_upper_bound_prune

        g = suite_graph(name, "tiny")
        for s, t in random_st_pairs(g, 3, seed=5):
            for k in (1, 8, 128):
                pr = k_upper_bound_prune(g, s, t, k, strong_edge_prune=strong)
                mask = g.weights <= pr.threshold
                if strong:
                    mask &= pr.strong_edges
                for force in (None, "regeneration", "edge-swap", "status-array"):
                    got = adaptive_compact(
                        g, pr.keep_vertices, pr.strong_edges,
                        threshold=pr.threshold, force=force,
                    )
                    ref = adaptive_compact(g, pr.keep_vertices, mask, force=force)
                    assert compacted_arrays(got) == compacted_arrays(ref)

    def test_threshold_drops_heavy_edges_between_kept_vertices(self):
        src = np.array([0, 0, 1, 1, 2])
        dst = np.array([1, 2, 2, 0, 0])
        w = np.array([1.0, 5.0, 2.0, 3.0, 2.5])
        g = from_edge_array(3, src, dst, w, dedup=False)
        kv = np.ones(3, dtype=bool)
        for force in ("regeneration", "edge-swap", "status-array"):
            got = adaptive_compact(g, kv, threshold=2.5, force=force)
            ref = adaptive_compact(g, kv, g.weights <= 2.5, force=force)
            assert got.remaining_edges == 3
            assert compacted_arrays(got) == compacted_arrays(ref)

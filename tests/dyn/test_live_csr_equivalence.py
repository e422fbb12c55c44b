"""Equivalence guard: the array-backed ``LiveGraph`` against a Terrace spine.

``TerraceLiveGraph`` below is the Terrace-backed live graph the serving
path used before :class:`~repro.dyn.live.LiveGraph` became one CSR
snapshot plus an alive mask, kept verbatim except that batch validation
calls the shared :func:`~repro.dyn.stream.check_batch`.  Every test
drives both with the same batches and requires, at every version,
byte-equal snapshot arrays, equal :class:`MutationSummary` fields, equal
liveness and equal versions — and, for an invalid batch, the same
exception with the same message and both graphs left untouched.

The Hypothesis graphs carry what a CSR may legally hold and a generator
never emits: unsorted rows, parallel edges and self-loops.  Batches mix
valid updates with adversarial ones — duplicate deletes, reweights and
inserts, self-loops, inserts toward dead targets, a reweight of an edge
deleted in the same batch, re-tombstoning — and, now and then, an
invalid request.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyn.live import LiveGraph, Snapshot
from repro.dyn.stream import (
    IncidentStream,
    MutationBatch,
    MutationSummary,
    check_batch,
)
from repro.dyn.terrace import TerraceGraph
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.suite import suite_graph


class TerraceLiveGraph:
    """The reference: a Terrace spine exporting ``to_csr`` snapshots."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        alive: np.ndarray | None = None,
        version: int = 0,
    ) -> None:
        if version < 0:
            raise ValueError("start version must be >= 0")
        self._terrace = TerraceGraph.from_csr(graph)
        if alive is not None:
            dead = np.flatnonzero(~alive)
            if dead.size:
                self._terrace.delete_vertices(dead)
        self._version = int(version)
        self._snapshot = Snapshot(
            version=self._version, graph=self._terrace.to_csr()
        )

    @property
    def version(self) -> int:
        return self._version

    @property
    def graph(self) -> CSRGraph:
        return self._snapshot.graph

    @property
    def alive(self) -> np.ndarray:
        return self._terrace.alive_mask()

    def apply(self, batch: MutationBatch) -> Snapshot:
        t = self._terrace
        ins_s = np.asarray(batch.insert_src, dtype=np.int64)
        ins_d = np.asarray(batch.insert_dst, dtype=np.int64)
        ins_w = np.asarray(batch.insert_w, dtype=np.float64)
        del_s = np.asarray(batch.delete_src, dtype=np.int64)
        del_d = np.asarray(batch.delete_dst, dtype=np.int64)
        rw_s = np.asarray(batch.reweight_src, dtype=np.int64)
        rw_d = np.asarray(batch.reweight_dst, dtype=np.int64)
        rw_w = np.asarray(batch.reweight_w, dtype=np.float64)
        tomb = np.asarray(batch.tombstone, dtype=np.int64)

        check_batch(t.alive_mask(), del_s, del_d, None)
        check_batch(t.alive_mask(), rw_s, rw_d, rw_w)
        check_batch(t.alive_mask(), ins_s, ins_d, ins_w)
        if tomb.size and (int(tomb.min()) < 0 or int(tomb.max()) >= t.num_vertices):
            raise VertexError("tombstone vertex id out of range")

        alive_before = t.alive_mask()
        up_s: list[int] = []
        up_d: list[int] = []
        up_w: list[float] = []
        has_insert = False
        has_decrease = False

        for u, v in zip(del_s.tolist(), del_d.tolist()):
            w_old = t.edge_weight(u, v)
            if w_old is not None:
                up_s.append(u)
                up_d.append(v)
                up_w.append(w_old)
        t.delete_edges(del_s, del_d)

        old_w = t.reweight_edges(rw_s, rw_d, rw_w)
        for i in range(rw_s.size):
            if not np.isfinite(old_w[i]) or not alive_before[rw_d[i]]:
                continue
            if rw_w[i] > old_w[i]:
                up_s.append(int(rw_s[i]))
                up_d.append(int(rw_d[i]))
                up_w.append(float(old_w[i]))
            elif rw_w[i] < old_w[i]:
                has_decrease = True

        for i in range(ins_s.size):
            u, v = int(ins_s[i]), int(ins_d[i])
            if u == v or not alive_before[v]:
                continue
            cur = t.edge_weight(u, v)
            if cur is None:
                has_insert = True
            elif float(ins_w[i]) < cur:
                has_decrease = True
        t.insert_edges(ins_s, ins_d, ins_w)

        newly_dead = tomb[alive_before[tomb]] if tomb.size else tomb
        t.delete_vertices(tomb)

        self._version += 1
        summary = MutationSummary(
            version=self._version,
            touched=batch.touched_vertices(),
            has_insert=has_insert,
            has_decrease=has_decrease,
            up_src=np.asarray(up_s, dtype=np.int64),
            up_dst=np.asarray(up_d, dtype=np.int64),
            up_old_w=np.asarray(up_w, dtype=np.float64),
            tombstoned=np.unique(newly_dead),
        )
        self._snapshot = Snapshot(
            version=self._version, graph=t.to_csr(), summary=summary
        )
        return self._snapshot


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(live: LiveGraph, ref: TerraceLiveGraph) -> None:
    got, want = live.graph, ref.graph
    assert _same_array(got.indptr, want.indptr)
    assert _same_array(got.indices, want.indices)
    assert _same_array(got.weights, want.weights)
    assert _same_array(live.alive, ref.alive)
    assert live.version == ref.version == live.snapshot().version


def assert_same_summary(got: MutationSummary, want: MutationSummary) -> None:
    assert got.version == want.version
    assert got.has_insert is want.has_insert
    assert got.has_decrease is want.has_decrease
    for name in ("touched", "up_src", "up_dst", "up_old_w", "tombstoned"):
        assert _same_array(getattr(got, name), getattr(want, name)), name


def apply_both(live: LiveGraph, ref: TerraceLiveGraph, batch: MutationBatch):
    """Apply ``batch`` to both graphs and compare the outcome.

    Returns whether the batch was valid.  An invalid one must raise the
    same exception type and message from both and change neither.
    """
    before = live.graph
    try:
        want = ref.apply(batch)
    except Exception as exc:  # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as raised:
            live.apply(batch)
        assert str(raised.value) == str(exc)
        assert live.graph is before
        assert_same_state(live, ref)
        return False
    got = live.apply(batch)
    assert got is live.snapshot()
    assert_same_summary(got.summary, want.summary)
    assert_same_state(live, ref)
    return True


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
WEIGHTS = (0.5, 1.0, 2.0, 3.0)  # few values: ties, lighter and heavier


@st.composite
def loaded_graphs(draw, max_n=9, max_m=30):
    """A CSR with unsorted rows, parallel edges and self-loops."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(vertex, vertex, st.sampled_from(WEIGHTS)), max_size=max_m
        )
    )
    edges.sort(key=lambda e: e[0])  # group rows, keep in-row draw order
    src = np.array([e[0] for e in edges], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    graph = CSRGraph(
        indptr,
        np.array([e[1] for e in edges], dtype=np.int64),
        np.array([e[2] for e in edges], dtype=np.float64),
    )
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        alive[:] = True
    return graph, alive


@st.composite
def batches(draw, graph: CSRGraph, alive: np.ndarray):
    """One batch against the current state: mostly valid, often
    adversarial, occasionally invalid."""
    n = graph.num_vertices
    live_src = np.flatnonzero(alive).tolist()
    src_all = graph.edge_sources()
    anywhere = st.integers(0, n - 1)
    weight = st.sampled_from(WEIGHTS)

    def source():
        return st.sampled_from(live_src) if live_src else st.nothing()

    def named_edge():
        """An existing live edge, or any pair from a live source."""
        existing = [
            (int(src_all[e]), int(graph.indices[e])) for e in range(graph.num_edges)
        ]
        pair = st.tuples(source(), anywhere)
        return st.sampled_from(existing) | pair if existing else pair

    deletes, reweights, inserts = [], [], []
    if live_src:
        deletes = draw(st.lists(named_edge(), max_size=4))
        reweights = [
            (u, v, draw(weight)) for u, v in draw(st.lists(named_edge(), max_size=4))
        ]
        inserts = [
            (u, v, draw(weight)) for u, v in draw(st.lists(named_edge(), max_size=4))
        ]
        if deletes and draw(st.booleans()):  # reweight what this batch deletes
            u, v = draw(st.sampled_from(deletes))
            reweights.append((u, v, draw(weight)))
        for edits in (deletes, reweights, inserts):  # exact duplicates
            if edits and draw(st.booleans()):
                edits.append(draw(st.sampled_from(edits)))
        if draw(st.booleans()):  # a self-loop in every edge operation
            u = draw(source())
            deletes.append((u, u))
            reweights.append((u, u, draw(weight)))
            inserts.append((u, u, draw(weight)))
    tombstones = draw(st.lists(anywhere, max_size=2))  # dead ones too
    invalid = draw(st.sampled_from([None] * 8 + ["range", "dead", "weight", "tomb"]))
    if invalid == "range":
        inserts.append((0, n, 1.0))
    elif invalid == "dead" and not alive.all():
        deletes.append((int(np.flatnonzero(~alive)[0]), 0))
    elif invalid == "weight" and live_src:
        reweights.append((live_src[0], 0, -1.0))
    elif invalid == "tomb":
        tombstones.append(-1)
    return MutationBatch.build(
        inserts=inserts, deletes=deletes, reweights=reweights, tombstones=tombstones
    )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@given(loaded_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_hypothesis_streams_match_terrace(case, data):
    graph, alive = case
    version = data.draw(st.integers(0, 5))
    live = LiveGraph(graph, alive=alive, version=version)
    ref = TerraceLiveGraph(graph, alive=alive, version=version)
    assert_same_state(live, ref)
    for _ in range(data.draw(st.integers(1, 6))):
        apply_both(live, ref, data.draw(batches(live.graph, live.alive)))


@pytest.mark.parametrize("profile", ["LJ", "GT"])
def test_incident_streams_match_terrace(profile):
    """All five incident kinds on suite graphs, at every version."""
    graph = suite_graph(profile, "tiny")
    live, ref = LiveGraph(graph), TerraceLiveGraph(graph)
    assert_same_state(live, ref)
    stream = IncidentStream(
        seed=5, rate=60.0, batch_size=8, p_tombstone=0.15, p_clear=0.2, p_reopen=0.2
    )
    applied = 0
    for batch in stream.batches(live, horizon=1.0):
        assert apply_both(live, ref, batch)
        applied += 1
    assert applied > 20
    assert live.graph.num_edges < graph.num_edges


def test_adversarial_batch_on_a_tiny_graph():
    """One batch of every adversarial kind, checked against the oracle
    and against the expected summary."""
    graph = CSRGraph(
        np.array([0, 3, 4, 4, 4]),
        np.array([2, 1, 1, 3]),  # row 0 unsorted, parallel 0→1
        np.array([1.0, 2.0, 1.5, 1.0]),
    )
    live, ref = LiveGraph(graph), TerraceLiveGraph(graph)
    assert live.graph.indices.tolist() == [1, 1, 2, 3]
    assert live.graph.weights.tolist() == [2.0, 1.5, 1.0, 1.0]
    apply_both(live, ref, MutationBatch.build(tombstones=[3]))
    batch = MutationBatch.build(
        deletes=[(0, 2), (0, 2), (1, 1)],
        reweights=[(0, 2, 5.0), (0, 1, 3.0), (0, 1, 4.0)],
        inserts=[(0, 3, 1.0), (2, 2, 1.0), (0, 1, 9.0), (0, 1, 9.0)],
        tombstones=[3, 2, 2],
    )
    assert apply_both(live, ref, batch)
    s = live.snapshot().summary
    assert s.up_src.tolist() == [0, 0, 0, 0]
    assert s.up_dst.tolist() == [2, 2, 1, 1]
    # deletes read the old weight once per request; both reweights of
    # (0, 1) read the weight before the batch, and the last one wins
    assert s.up_old_w.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert not s.has_insert and not s.has_decrease
    assert s.tombstoned.tolist() == [2]
    # the insert merged 0's parallel edges: the lighter 1.5 survives
    assert live.graph.indices.tolist() == [1]
    assert live.graph.weights.tolist() == [1.5]


def test_invalid_batches_raise_like_terrace_and_change_nothing():
    graph = suite_graph("LJ", "tiny")
    live, ref = LiveGraph(graph), TerraceLiveGraph(graph)
    apply_both(live, ref, MutationBatch.build(tombstones=[4]))
    n = graph.num_vertices
    for bad in (
        MutationBatch.build(deletes=[(0, 1)], inserts=[(0, n, 1.0)]),
        MutationBatch.build(deletes=[(-1, 0)]),
        MutationBatch.build(reweights=[(4, 0, 1.0)]),  # dead source
        MutationBatch.build(inserts=[(0, 1, 0.0)]),
        MutationBatch.build(reweights=[(0, 1, float("nan"))]),
        MutationBatch.build(tombstones=[n]),
        MutationBatch(delete_src=np.array([0, 1]), delete_dst=np.array([0])),
        MutationBatch(
            insert_src=np.array([0]), insert_dst=np.array([1]), insert_w=np.array([])
        ),
    ):
        assert not apply_both(live, ref, bad)
    assert live.version == 1


def test_checkpoint_rebuild_matches_terrace():
    """``LiveGraph(csr, alive=, version=)`` equals the reference."""
    graph = suite_graph("LJ", "tiny")
    alive = np.ones(graph.num_vertices, dtype=bool)
    alive[[0, 3, 17]] = False
    live = LiveGraph(graph, alive=alive, version=4)
    ref = TerraceLiveGraph(graph, alive=alive, version=4)
    assert_same_state(live, ref)
    stream = IncidentStream(seed=9, rate=40.0)
    for batch in stream.batches(live, horizon=0.5):
        apply_both(live, ref, batch)
    assert live.version > 4


def test_reweight_only_batch_shares_the_structure():
    graph = suite_graph("LJ", "tiny")
    live = LiveGraph(graph)
    before = live.graph
    u, v = int(before.edge_sources()[0]), int(before.indices[0])
    after = live.apply(MutationBatch.build(reweights=[(u, v, 7.0)])).graph
    assert after.indptr is before.indptr and after.indices is before.indices
    assert after.weights is not before.weights
    assert before.weights[0] != 7.0 and after.weights[0] == 7.0


def test_terrace_view_follows_the_version():
    live = LiveGraph(suite_graph("LJ", "tiny"))
    view = live.terrace
    assert live.terrace is view  # cached while the version stands
    u, v = int(live.graph.edge_sources()[0]), int(live.graph.indices[0])
    live.apply(MutationBatch.build(deletes=[(u, v)]))
    assert live.terrace is not view
    assert not live.terrace.has_edge(u, v) and view.has_edge(u, v)

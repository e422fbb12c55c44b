"""Tests for mutation batches and the seeded incident stream."""

import numpy as np
import pytest

from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream, MutationBatch
from repro.graph.generators import erdos_renyi


class TestMutationBatch:
    def test_build_and_size(self):
        b = MutationBatch.build(
            inserts=[(0, 1, 2.0)],
            deletes=[(2, 3), (4, 5)],
            reweights=[(6, 7, 1.5)],
            tombstones=[8],
            at=1.25,
        )
        assert b.size == 5
        assert not b.is_empty
        assert b.at == 1.25
        assert b.insert_w.dtype == np.float64
        assert b.delete_src.dtype == np.int64

    def test_empty(self):
        b = MutationBatch.build()
        assert b.is_empty
        assert b.size == 0

    def test_touched_vertices_sorted_unique(self):
        b = MutationBatch.build(
            inserts=[(9, 1, 2.0)],
            deletes=[(1, 3)],
            reweights=[(3, 9, 1.5)],
            tombstones=[0, 9],
        )
        assert b.touched_vertices().tolist() == [0, 1, 3, 9]


class TestIncidentStream:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IncidentStream(rate=0.0)
        with pytest.raises(ValueError):
            IncidentStream(batch_size=0)
        with pytest.raises(ValueError):
            IncidentStream(congestion=(0.5, 2.0))
        with pytest.raises(ValueError):
            IncidentStream(
                p_close=0, p_congest=0, p_clear=0, p_reopen=0, p_tombstone=0
            )

    @staticmethod
    def _replay(seed: int) -> list[tuple]:
        live = LiveGraph(erdos_renyi(60, 4.0, seed=3))
        stream = IncidentStream(seed=seed, rate=20.0)
        trace = []
        for batch in stream.batches(live, horizon=2.0):
            trace.append(
                (
                    batch.at,
                    batch.delete_src.tolist(),
                    batch.delete_dst.tolist(),
                    batch.reweight_src.tolist(),
                    batch.reweight_w.tolist(),
                    batch.insert_src.tolist(),
                    batch.tombstone.tolist(),
                )
            )
            live.apply(batch)
        return trace

    def test_deterministic_replay(self):
        a = self._replay(42)
        b = self._replay(42)
        assert a and a == b

    def test_different_seeds_differ(self):
        assert self._replay(1) != self._replay(2)

    def test_increase_only_stream(self):
        """Without clears/reopens every summary satisfies increase_only."""
        live = LiveGraph(erdos_renyi(60, 4.0, seed=5))
        stream = IncidentStream(
            seed=9, rate=25.0, p_clear=0.0, p_reopen=0.0, p_tombstone=0.1
        )
        applied = 0
        for batch in stream.batches(live, horizon=2.0):
            snap = live.apply(batch)
            assert snap.summary.increase_only
            applied += 1
        assert applied > 0

    def test_full_mix_produces_decreases(self):
        """With clears enabled some batch must defeat the certificate."""
        live = LiveGraph(erdos_renyi(80, 5.0, seed=6))
        stream = IncidentStream(
            seed=3, rate=60.0, p_close=0.3, p_congest=0.4, p_clear=0.3,
            p_reopen=0.0, p_tombstone=0.0,
        )
        summaries = [
            live.apply(b).summary for b in stream.batches(live, horizon=4.0)
        ]
        assert any(not s.increase_only for s in summaries)

    def test_batch_mutations_disjoint(self):
        """A batch never touches the same edge twice."""
        live = LiveGraph(erdos_renyi(50, 4.0, seed=8))
        stream = IncidentStream(seed=11, rate=10.0, batch_size=8)
        for batch in stream.batches(live, horizon=3.0):
            pairs = list(
                zip(batch.delete_src.tolist(), batch.delete_dst.tolist())
            ) + list(
                zip(batch.reweight_src.tolist(), batch.reweight_dst.tolist())
            ) + list(
                zip(batch.insert_src.tolist(), batch.insert_dst.tolist())
            )
            assert len(pairs) == len(set(pairs))
            live.apply(batch)

    def test_batches_drawn_ahead_still_apply(self):
        """A consumer may draw batch N+1 before applying batch N: no
        batch updates a source an earlier batch tombstoned, so the
        batches still apply in order."""
        live = LiveGraph(erdos_renyi(40, 4.0, seed=4))
        stream = IncidentStream(seed=5, batch_size=8, p_tombstone=0.4)
        batches = [stream.next_batch(live, at=0.1 * i) for i in range(30)]
        dead: set[int] = set()
        for batch in batches:
            sources = {
                *batch.delete_src.tolist(),
                *batch.reweight_src.tolist(),
                *batch.insert_src.tolist(),
            }
            assert not sources & dead
            dead |= set(batch.tombstone.tolist())
        for batch in batches:
            live.apply(batch)


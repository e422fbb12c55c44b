"""Query mixes: *what* the arriving queries ask for.

A mix is a seeded sampler of ``(source, target, k)`` triples over a
fixed graph.  Two endpoint distributions —

* :class:`UniformMix` — endpoints uniform over the vertex set (every
  query distinct, cache-hostile: the worst case for the BatchPeeK LRU);
* :class:`HotspotMix` — targets drawn degree-biased (weight
  ``(in_degree + 1) ** exponent``), sources uniform: the "everyone
  routes to the hub" traffic shape, cache-friendly and skew-heavy;

crossed with two ``k`` distributions —

* ``uniform`` over ``[k_min, k_max]``;
* ``small_heavy`` — geometric with success probability ``1 - p``,
  clipped to ``k_max``: most users want a handful of alternatives, a
  tail wants many (mean ≈ ``1 / (1 - p)`` before clipping).

All draws come from the caller's ``random.Random``; the mixes hold no
seed state of their own.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from random import Random

import numpy as np

__all__ = [
    "KSampler",
    "QueryMix",
    "UniformMix",
    "HotspotMix",
    "largest_scc",
    "make_mix",
]


def largest_scc(graph) -> np.ndarray:
    """Vertex ids of the graph's largest strongly connected component.

    Every (source, target) pair inside it is mutually reachable, so a
    mix restricted to it (``{"scc": true}`` in the spec) never produces
    a query whose only honest answer is ``failed``-unreachable — the
    sampling convention of the paper's KSP experiments, and what an
    availability SLO needs (a fabric can't be penalised for paths that
    do not exist).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = graph.num_vertices
    mat = csr_matrix(
        (
            np.ones(graph.indices.size, dtype=np.int8),
            graph.indices,
            graph.indptr,
        ),
        shape=(n, n),
    )
    _, labels = connected_components(mat, directed=True, connection="strong")
    counts = np.bincount(labels)
    return np.flatnonzero(labels == int(counts.argmax()))


@dataclass(frozen=True)
class KSampler:
    """The ``k`` marginal: ``"uniform"`` on [k_min, k_max] or
    ``"small_heavy"`` (clipped geometric, continue-probability ``p``)."""

    dist: str = "small_heavy"
    k_min: int = 1
    k_max: int = 8
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.dist not in ("uniform", "small_heavy"):
            raise ValueError(f"unknown k distribution {self.dist!r}")
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError("need 1 <= k_min <= k_max")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("p must be in [0, 1)")

    def sample(self, rng: Random) -> int:
        # `dist` is the distribution *name*, not a path cost
        if self.dist == "uniform":  # contracts: disable=RPR004
            return rng.randint(self.k_min, self.k_max)
        k = self.k_min
        while k < self.k_max and rng.random() < self.p:
            k += 1
        return k


class QueryMix:
    """Base: a sampler of ``(source, target, k)`` with ``source != target``."""

    def sample(self, rng: Random) -> tuple[int, int, int]:
        raise NotImplementedError


class UniformMix(QueryMix):
    """Endpoints uniform over the vertex set (or a ``vertices`` subset)."""

    def __init__(self, graph, k: KSampler | None = None, vertices=None) -> None:
        self._ids = (
            [int(v) for v in vertices]
            if vertices is not None
            else list(range(graph.num_vertices))
        )
        self.n = len(self._ids)
        if self.n < 2:
            raise ValueError("graph too small for source != target queries")
        self.k_sampler = k if k is not None else KSampler()

    def sample(self, rng: Random) -> tuple[int, int, int]:
        source = rng.randrange(self.n)
        target = rng.randrange(self.n - 1)
        if target >= source:  # uniform over the n-1 non-source vertices
            target += 1
        return self._ids[source], self._ids[target], self.k_sampler.sample(rng)


class HotspotMix(QueryMix):
    """Degree-biased targets: hub vertices soak up the traffic.

    Target weight is ``(in_degree + 1) ** exponent`` (+1 keeps sinks
    reachable by the sampler; ``exponent`` sharpens or flattens the
    skew).  Sources stay uniform — the many-clients-few-destinations
    shape.  Sampling is one binary search over the cumulative weights.
    """

    def __init__(
        self,
        graph,
        k: KSampler | None = None,
        exponent: float = 1.0,
        vertices=None,
    ) -> None:
        self._ids = (
            [int(v) for v in vertices]
            if vertices is not None
            else list(range(graph.num_vertices))
        )
        self.n = len(self._ids)
        if self.n < 2:
            raise ValueError("graph too small for source != target queries")
        self.k_sampler = k if k is not None else KSampler()
        in_degree = np.bincount(graph.indices, minlength=graph.num_vertices)
        weights = (in_degree.astype(np.float64)[self._ids] + 1.0) ** float(exponent)
        # cumulative weights as plain floats: bisect-friendly and
        # platform-stable (no BLAS in sight)
        self._cum = list(accumulate(weights.tolist()))

    def sample(self, rng: Random) -> tuple[int, int, int]:
        total = self._cum[-1]
        while True:
            source = rng.randrange(self.n)
            target = bisect.bisect_right(self._cum, rng.random() * total)
            if target >= self.n:  # guard the r == total edge draw
                target = self.n - 1
            if target != source:
                return (
                    self._ids[source],
                    self._ids[target],
                    self.k_sampler.sample(rng),
                )


def make_mix(graph, spec: dict) -> QueryMix:
    """Build a mix from a plain-dict spec (run tables, ``peek-load``).

    ``{"kind": "hotspot", "exponent": 1.5, "k": {"dist": "small_heavy",
    "k_max": 8}}`` — the ``k`` sub-dict maps to :class:`KSampler`.
    ``"scc": true`` restricts both endpoints to the largest strongly
    connected component (see :func:`largest_scc`), guaranteeing every
    sampled pair is reachable.
    """
    spec = dict(spec)
    kind = spec.pop("kind", "uniform")
    k_spec = spec.pop("k", None)
    k_sampler = KSampler(**k_spec) if k_spec is not None else KSampler()
    if spec.pop("scc", False):
        spec["vertices"] = largest_scc(graph)
    if kind == "uniform":
        return UniformMix(graph, k=k_sampler, **spec)
    if kind == "hotspot":
        return HotspotMix(graph, k=k_sampler, **spec)
    raise ValueError(f"unknown mix kind {kind!r}; choose from ['uniform', 'hotspot']")

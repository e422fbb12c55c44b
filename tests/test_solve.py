"""repro.solve — the front-door API — and the AlgorithmSpec registry."""

from __future__ import annotations

import pytest

import repro
from repro.ksp.registry import ALGORITHMS, AlgorithmSpec
from tests.conftest import random_reachable_pair


def test_algorithms_lists_registry():
    names = repro.algorithms()
    assert names == tuple(ALGORITHMS)
    assert "PeeK" in names and "Yen" in names and "SB*" in names


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_solve_matches_direct_instantiation(medium_er, name):
    """solve(algorithm=name) == make_algorithm(name, ...).run(k), per spec."""
    s, t = random_reachable_pair(medium_er, seed=5)
    k = 6
    via_solve = repro.solve(medium_er, s, t, k, algorithm=name)
    direct = repro.make_algorithm(name, medium_er, s, t).run(k)
    assert via_solve.distances == pytest.approx(direct.distances)
    assert [p.vertices for p in via_solve.paths] == [
        p.vertices for p in direct.paths
    ]


def test_solve_default_is_peek(diamond_graph):
    result = repro.solve(diamond_graph, 0, 3, k=3)
    assert isinstance(result, repro.PeeKResult)
    assert result.distances == pytest.approx([2.0, 3.0, 4.0])


def test_solve_unknown_algorithm(diamond_graph):
    with pytest.raises(KeyError, match="unknown algorithm"):
        repro.solve(diamond_graph, 0, 3, k=2, algorithm="Dijkstra")


def test_solve_rejects_unknown_kwarg(diamond_graph):
    with pytest.raises(TypeError, match="valid keyword"):
        repro.solve(diamond_graph, 0, 3, k=2, algorithm="Yen", alpha=0.5)


def test_solve_rejects_unsupported_capability_kwarg(diamond_graph):
    # PeeK is not deviation-based at top level: no `lawler` knob.
    with pytest.raises(TypeError, match="lawler"):
        repro.solve(diamond_graph, 0, 3, k=2, algorithm="PeeK", lawler=True)


def test_solve_forwards_algorithm_options(diamond_graph):
    result = repro.solve(
        diamond_graph, 0, 3, k=3, algorithm="PeeK",
        kernel="dijkstra", compaction_force="status-array",
    )
    assert result.compaction.strategy == "status-array"
    assert result.distances == pytest.approx([2.0, 3.0, 4.0])


@pytest.mark.parametrize(
    "alias, name",
    [
        (repro.yen_ksp, "Yen"),
        (repro.nc_ksp, "NC"),
        (repro.optyen_ksp, "OptYen"),
        (repro.sb_ksp, "SB"),
        (repro.sb_star_ksp, "SB*"),
        (repro.pnc_ksp, "PNC"),
        (repro.peek_ksp, "PeeK"),
    ],
)
def test_free_function_aliases_delegate_to_solve(diamond_graph, alias, name):
    got = alias(diamond_graph, 0, 3, 3)
    want = repro.solve(diamond_graph, 0, 3, 3, algorithm=name)
    assert got.distances == pytest.approx(want.distances)


def test_psb_alias_variants(diamond_graph):
    from repro.ksp import psb_ksp

    for variant, name in (("v1", "PSB"), ("v2", "PSB-v2"), ("v3", "PSB-v3")):
        got = psb_ksp(diamond_graph, 0, 3, 3, variant=variant)
        want = repro.solve(diamond_graph, 0, 3, 3, algorithm=name)
        assert got.distances == pytest.approx(want.distances)


# ---------------------------------------------------------------------------
# AlgorithmSpec semantics
# ---------------------------------------------------------------------------
def test_registry_entries_are_specs():
    for name, spec in ALGORITHMS.items():
        assert isinstance(spec, AlgorithmSpec)
        assert spec.name == name
        assert spec.summary


def test_spec_capability_flags():
    peek = repro.algorithm_spec("PeeK")
    assert not peek.supports_lawler
    assert not peek.is_deviation_based
    assert "alpha" in peek.valid_kwargs
    assert "lawler" not in peek.valid_kwargs

    yen = repro.algorithm_spec("Yen")
    assert yen.supports_deadline and yen.supports_lawler
    assert yen.valid_kwargs == frozenset({"deadline", "lawler"})

    psb3 = repro.algorithm_spec("PSB-v3")
    assert {"threshold", "memory_budget_bytes"} <= psb3.valid_kwargs


def test_spec_validate_kwargs_names_offender_and_options():
    spec = repro.algorithm_spec("SB")
    with pytest.raises(TypeError) as exc:
        spec.validate_kwargs({"bogus": 1})
    assert "bogus" in str(exc.value)
    assert "deadline" in str(exc.value)
    spec.validate_kwargs({"deadline": None, "lawler": True})  # no raise


def test_spec_is_callable_like_a_factory(diamond_graph):
    """Legacy call sites do ALGORITHMS[name](graph, s, t, ...)."""
    algo = ALGORITHMS["Yen"](diamond_graph, 0, 3)
    assert algo.run(2).distances == pytest.approx([2.0, 3.0])


def test_algorithm_spec_unknown_name():
    with pytest.raises(KeyError, match="unknown algorithm"):
        repro.algorithm_spec("nope")


def test_deviation_based_flag_matches_class_hierarchy():
    from repro.ksp.base import DeviationKSP
    from repro.graph.build import from_edge_list

    g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
    for name, spec in ALGORITHMS.items():
        algo = spec(g, 0, 2)
        assert isinstance(algo, DeviationKSP) == spec.is_deviation_based, name

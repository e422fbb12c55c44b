"""One checker per contract: the merged answer and CSR checkers against
the two hand-written checkers each replaced.

The KSP answer used to be checked twice — by
:func:`repro.verify.verify_ksp_result` and by the ``SAN-PATH`` sanitizer —
and the CSR invariants twice — by ``CSRGraph._validate`` and by the
``SAN-CSR`` sanitizer — and each pair disagreed at the edges.  Both
contracts now have one checker (:func:`repro.verify.verify_ksp_result`,
:func:`repro.graph.csr.csr_violation`) behind two front doors each.  This
module keeps the four earlier checkers verbatim as references (only their
names changed) and asserts, on a seeded corpus with one corruption per
case, that every front door rejects exactly when at least one of its two
references rejects, with the same sanitizer rule and finding context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.findings import Finding
from repro.errors import GraphFormatError, InvalidWeightError, SanitizerError
from repro.graph.build import from_edge_array, from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.suite import SUITE_NAMES, random_st_pairs, suite_graph
from repro.ksp.base import KSPResult
from repro.ksp.registry import ALGORITHMS, make_algorithm
from repro.paths import COST_REL_TOL, Path, costs_close
from repro.verify import enumerate_simple_paths, verify_ksp_result


# ----------------------------------------------------------------------
# the four earlier checkers, verbatim
# ----------------------------------------------------------------------
@dataclass
class VerificationReport:
    """The outcome of a verification run; falsy when anything failed."""

    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "OK" if self.ok else "; ".join(self.failures)


def reference_verify_ksp_result(
    graph,
    source: int,
    target: int,
    result: KSPResult,
    *,
    rel_tol: float = 1e-9,
    check_completeness: bool = False,
    completeness_limit: int = 2000,
) -> VerificationReport:
    """Audit a KSP result against the graph it claims to describe.

    Local checks (always): every path starts at ``source``, ends at
    ``target``, is simple, uses only existing edges, reports the correct
    distance, the list is sorted, and no path repeats.

    ``check_completeness=True`` additionally enumerates *all* simple s→t
    paths (bounded by ``completeness_limit``; intended for test-sized
    graphs) and confirms the result equals the true top-K.
    """
    report = VerificationReport()
    seen: set[tuple[int, ...]] = set()
    prev_dist = float("-inf")
    for i, path in enumerate(result.paths):
        label = f"path #{i}"
        if path.vertices[0] != source:
            report.fail(f"{label} starts at {path.vertices[0]}, not {source}")
        if path.vertices[-1] != target:
            report.fail(f"{label} ends at {path.vertices[-1]}, not {target}")
        if not path.is_simple():
            report.fail(f"{label} is not simple")
        if path.vertices in seen:
            report.fail(f"{label} duplicates an earlier path")
        seen.add(path.vertices)
        total = 0.0
        for u, v in path.edges():
            w = graph.edge_weight(u, v)
            if w is None:
                report.fail(f"{label} uses missing edge {u}->{v}")
                total = float("nan")
                break
            total += w
        if not math.isnan(total) and abs(total - path.distance) > rel_tol * max(
            1.0, abs(total)
        ):
            report.fail(
                f"{label} claims distance {path.distance}, edges sum to {total}"
            )
        if path.distance < prev_dist - rel_tol:
            report.fail(f"{label} breaks the non-decreasing distance order")
        prev_dist = max(prev_dist, path.distance)

    if check_completeness:
        true_dists = sorted(
            d for _, d in enumerate_simple_paths(
                graph, source, target, limit=completeness_limit
            )
        )
        k = len(result.paths)
        expected = true_dists[:k]
        got = [p.distance for p in result.paths]
        if len(result.paths) < min(result.k_requested, len(true_dists)):
            report.fail(
                f"result has {len(result.paths)} paths but "
                f"{len(true_dists)} simple paths exist"
            )
        for i, (g_, e_) in enumerate(zip(got, expected)):
            if abs(g_ - e_) > rel_tol * max(1.0, abs(e_)):
                report.fail(
                    f"rank {i}: got distance {g_}, true top-K has {e_}"
                )
    return report


def _fail(rule: str, message: str, **context) -> None:
    raise SanitizerError(
        f"{rule}: {message}",
        finding=Finding(
            tool="sanitize",
            rule=rule,
            severity="error",
            message=message,
            context=context,
        ),
    )


def reference_check_result_paths(
    graph, result, source: int, target: int, *, rel_tol: float = COST_REL_TOL
) -> None:
    """Returned paths are simple, correctly summed, sorted, and distinct."""
    prev = float("-inf")
    seen: set[tuple[int, ...]] = set()
    # the sanitizer walks an already-computed result: <= K paths, each
    # a finite vertex list — no checkpoint needed after kernel exit
    for i, path in enumerate(result.paths):  # contracts: disable=CTR201 (bounded)
        verts = path.vertices
        if verts[0] != source or verts[-1] != target:
            _fail(
                "SAN-PATH",
                f"path #{i} runs {verts[0]}->{verts[-1]}, query was "
                f"{source}->{target}",
                path=i,
            )
        marked: set[int] = set()
        for v in verts:  # contracts: disable=CTR201 (bounded)
            if v in marked:
                _fail(
                    "SAN-PATH",
                    f"path #{i} is not simple: vertex {v} repeats",
                    path=i,
                    vertex=int(v),
                )
            marked.add(v)
        total = 0.0
        for u, v in zip(verts[:-1], verts[1:]):  # contracts: disable=CTR201 (bounded)
            w = graph.edge_weight(u, v)
            if w is None:
                _fail(
                    "SAN-PATH",
                    f"path #{i} uses edge {u}->{v}, absent from the graph",
                    path=i,
                    edge=(int(u), int(v)),
                )
            total += w
        if not costs_close(total, path.distance, rel_tol=rel_tol):
            _fail(
                "SAN-PATH",
                f"path #{i} claims distance {path.distance!r} but its edges "
                f"sum to {total!r}",
                path=i,
            )
        if path.distance < prev and not costs_close(path.distance, prev, rel_tol=rel_tol):
            _fail(
                "SAN-PATH",
                f"path #{i} (distance {path.distance!r}) breaks the "
                "non-decreasing order",
                path=i,
            )
        if verts in seen:
            _fail("SAN-PATH", f"path #{i} duplicates an earlier path", path=i)
        seen.add(verts)
        prev = max(prev, path.distance)
    if len(result.paths) > result.k_requested:
        _fail(
            "SAN-PATH",
            f"{len(result.paths)} paths returned for k={result.k_requested}",
        )


def reference_check_csr(graph, *, name: str = "graph") -> None:
    """CSR structural integrity: monotone indptr, in-range targets, weights."""
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    weights = np.asarray(graph.weights)
    n = int(indptr.size - 1)
    if indptr.size < 1 or int(indptr[0]) != 0:
        _fail("SAN-CSR", f"{name}: indptr[0] is {int(indptr[0])}, expected 0")
    deltas = np.diff(indptr)
    bad = np.flatnonzero(deltas < 0)
    if bad.size:
        v = int(bad[0])
        _fail(
            "SAN-CSR",
            f"{name}: indptr decreases at vertex {v} "
            f"({int(indptr[v])} -> {int(indptr[v + 1])})",
            vertex=v,
        )
    if int(indptr[-1]) != indices.size:
        _fail(
            "SAN-CSR",
            f"{name}: indptr[-1]={int(indptr[-1])} but {indices.size} edges stored",
        )
    if indices.size:
        out = np.flatnonzero((indices < 0) | (indices >= n))
        if out.size:
            e = int(out[0])
            _fail(
                "SAN-CSR",
                f"{name}: edge {e} targets vertex {int(indices[e])}, "
                f"outside [0, {n})",
                edge=e,
                target=int(indices[e]),
            )
        nan = np.flatnonzero(np.isnan(weights))
        if nan.size:
            e = int(nan[0])
            _fail("SAN-CSR", f"{name}: edge {e} has NaN weight", edge=e)
        nonpos = np.flatnonzero(~np.isfinite(weights) | (weights <= 0.0))
        if nonpos.size:
            e = int(nonpos[0])
            _fail(
                "SAN-CSR",
                f"{name}: edge {e} has non-finite or non-positive weight "
                f"{float(weights[e])}",
                edge=e,
                weight=float(weights[e]),
            )


class ReferenceCSR:
    """Just enough of the earlier ``CSRGraph`` to run its ``_validate``."""

    def __init__(self, indptr, indices, weights) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphFormatError("indptr must be a 1-D array of length n + 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if self.indices.ndim != 1 or self.weights.ndim != 1:
            raise GraphFormatError("indices and weights must be 1-D arrays")
        if self.indices.size != self.weights.size:
            raise GraphFormatError(
                f"indices ({self.indices.size}) and weights ({self.weights.size}) "
                "must have the same length"
            )
        if int(self.indptr[-1]) != self.indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({int(self.indptr[-1])}) must equal the edge count "
                f"({self.indices.size})"
            )
        neg = np.flatnonzero(np.diff(self.indptr) < 0)
        if neg.size:
            v = int(neg[0])
            raise GraphFormatError(
                f"indptr must be non-decreasing: it drops from "
                f"{int(self.indptr[v])} to {int(self.indptr[v + 1])} at "
                f"vertex {v}"
            )
        n = self.num_vertices
        if self.indices.size and (
            int(self.indices.min()) < 0 or int(self.indices.max()) >= n
        ):
            raise GraphFormatError("edge target out of range [0, n)")
        if self.weights.size:
            # NaN gets its own diagnosis: it is the classic silent-corruption
            # value (it fails *every* comparison, so Dijkstra never relaxes
            # through it) and deserves a sharper message than "not finite".
            nan = np.flatnonzero(np.isnan(self.weights))
            if nan.size:
                raise InvalidWeightError(
                    f"edge {int(nan[0])} has NaN weight; weights must be "
                    "finite and strictly positive (paper Definition 1)"
                )
            if (
                not np.all(np.isfinite(self.weights))
                or float(self.weights.min()) <= 0.0
            ):
                raise InvalidWeightError(
                    "all edge weights must be finite and strictly positive "
                    "(paper Definition 1)"
                )


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
@dataclass
class Verdicts:
    """Which front doors rejected a case, and the sanitizer's finding."""

    library: bool  # verify_ksp_result / CSRGraph(...)
    sanitizer: bool  # SAN-PATH / SAN-CSR
    finding: Finding | None = None
    error: type | None = None  # the constructor's exception class, if any
    crashed: list[str] = field(default_factory=list)

    @property
    def rejects(self) -> bool:
        return self.library or self.sanitizer


def _sanitizer_finding(fn, *args) -> Finding | None:
    try:
        fn(*args)
    except SanitizerError as exc:
        return exc.finding
    return None


def reference_answer_verdicts(graph, s, t, result) -> Verdicts:
    found = _sanitizer_finding(reference_check_result_paths, graph, result, s, t)
    return Verdicts(
        library=not reference_verify_ksp_result(graph, s, t, result),
        sanitizer=found is not None,
        finding=found,
    )


def merged_answer_verdicts(graph, s, t, result) -> Verdicts:
    found = _sanitizer_finding(sanitize.check_result_paths, graph, result, s, t)
    return Verdicts(
        library=not verify_ksp_result(graph, s, t, result),
        sanitizer=found is not None,
        finding=found,
    )


def reference_csr_verdicts(indptr, indices, weights) -> Verdicts:
    """A reference that crashes (the earlier ``SAN-CSR`` raised
    ``IndexError`` on an empty ``indptr``) counts as not rejecting."""
    out = Verdicts(library=False, sanitizer=False)
    try:
        ReferenceCSR(indptr, indices, weights)._validate()
    except (GraphFormatError, InvalidWeightError) as exc:
        out.library, out.error = True, type(exc)
    graph = CSRGraph(indptr, indices, weights, check=False)
    try:
        out.finding = _sanitizer_finding(reference_check_csr, graph)
    except (IndexError, TypeError) as exc:  # indexing a malformed array
        out.crashed.append(type(exc).__name__)
    out.sanitizer = out.finding is not None
    return out


def merged_csr_verdicts(indptr, indices, weights) -> Verdicts:
    out = Verdicts(library=False, sanitizer=False)
    try:
        CSRGraph(indptr, indices, weights)
    except (GraphFormatError, InvalidWeightError) as exc:
        out.library, out.error = True, type(exc)
    out.finding = _sanitizer_finding(
        sanitize.check_csr, CSRGraph(indptr, indices, weights, check=False)
    )
    out.sanitizer = out.finding is not None
    return out


def assert_merged_matches(ref: Verdicts, merged: Verdicts, label: str) -> None:
    assert merged.library == ref.rejects, label
    assert merged.sanitizer == ref.rejects, label
    if ref.sanitizer:
        assert merged.finding.rule == ref.finding.rule, label
        assert merged.finding.context == ref.finding.context, label
    if ref.library and ref.error is not None:
        assert merged.error is ref.error, label


# ----------------------------------------------------------------------
# the answer corpus: every registry algorithm on the tiny suite graphs
# ----------------------------------------------------------------------
K = 5


def _tie_graph(seed: int) -> CSRGraph:
    """Integer weights in the hundreds: many equal-cost paths above cost 1,
    where an absolute and a relative order slack differ."""
    rng = np.random.default_rng(seed)
    n, m = 40, 200
    return from_edge_array(
        n,
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        100.0 * rng.integers(1, 3, m),
    )


@pytest.fixture(scope="module")
def answers():
    """``(label, graph, s, t, result)`` for every registry algorithm."""
    graphs = [(name, suite_graph(name, "tiny")) for name in SUITE_NAMES]
    graphs += [(f"ties{seed}", _tie_graph(seed)) for seed in range(2)]
    out = []
    for gname, g in graphs:
        (s, t), = random_st_pairs(g, 1, seed=7)
        for alg in sorted(ALGORITHMS):
            result = make_algorithm(alg, g, s, t).run(K)
            out.append((f"{gname}/{alg}", g, s, t, result))
    return out


def _resum(graph, verts) -> float:
    total = 0.0
    for u, v in zip(verts[:-1], verts[1:]):
        total += graph.edge_weight(u, v)
    return total


def _with(result, paths, k=None) -> KSPResult:
    return KSPResult(
        paths=list(paths), k_requested=result.k_requested if k is None else k
    )


def wrong_endpoint(graph, s, t, result):
    other = next(v for v in range(graph.num_vertices) if v not in (s, t))
    return other, t, result


def repeated_vertex(graph, s, t, result):
    last = result.paths[-1]
    rev = graph.reverse()
    for j, v in enumerate(last.vertices):
        back, _ = rev.neighbors(v)  # x with an edge x -> v
        for x in back.tolist():
            if graph.edge_weight(v, x) is not None:
                verts = last.vertices[: j + 1] + (x, v) + last.vertices[j + 1 :]
                bad = Path(_resum(graph, verts), verts)
                return s, t, _with(result, result.paths[:-1] + [bad])
    return None


def missing_edge(graph, s, t, result):
    for i in reversed(range(len(result.paths))):
        verts = result.paths[i].vertices
        for j in range(len(verts) - 2):
            if graph.edge_weight(verts[j], verts[j + 2]) is None:
                bad = Path(result.paths[i].distance, verts[: j + 1] + verts[j + 2 :])
                paths = list(result.paths)
                paths[i] = bad
                return s, t, _with(result, paths)
    return None


def wrong_distance(graph, s, t, result):
    last = result.paths[-1]
    bad = Path(last.distance + 1e-3 * max(1.0, last.distance), last.vertices)
    return s, t, _with(result, result.paths[:-1] + [bad])


def relative_misorder(graph, s, t, result):
    first, last = result.paths[0], result.paths[-1]
    if not last.distance - first.distance > 1e-6 * max(1.0, first.distance):
        return None
    return s, t, _with(result, [last] + result.paths[1:-1] + [first])


def absolute_misorder(graph, s, t, result):
    """Claim a tied pair's costs 4e-10 apart the wrong way round: inside
    both distance tolerances, a misorder by more than 1e-9 absolute."""
    paths = list(result.paths)
    for i in range(len(paths) - 1):
        d = paths[i].distance
        if d == paths[i + 1].distance and d > 2.0:
            paths[i] = Path(d * (1 + 4e-10), paths[i].vertices)
            paths[i + 1] = Path(d * (1 - 4e-10), paths[i + 1].vertices)
            return s, t, _with(result, paths)
    return None


def duplicate_path(graph, s, t, result):
    if len(result.paths) < 2:
        return None
    return s, t, _with(result, result.paths[:-1] + [result.paths[-2]])


def too_many_paths(graph, s, t, result):
    if len(result.paths) < 2:
        return None
    return s, t, _with(result, result.paths, k=len(result.paths) - 1)


ANSWER_CORRUPTIONS = {
    f.__name__: f
    for f in (
        wrong_endpoint,
        repeated_vertex,
        missing_edge,
        wrong_distance,
        relative_misorder,
        absolute_misorder,
        duplicate_path,
        too_many_paths,
    )
}


def test_every_registry_answer_passes_all_four_checkers(answers):
    assert {label.split("/")[1] for label, *_ in answers} == set(ALGORITHMS)
    for label, g, s, t, result in answers:
        assert result.paths, label
        ref = reference_answer_verdicts(g, s, t, result)
        merged = merged_answer_verdicts(g, s, t, result)
        assert not ref.rejects and not merged.rejects, label


@pytest.mark.parametrize("kind", sorted(ANSWER_CORRUPTIONS))
def test_merged_answer_checker_rejects_iff_a_reference_does(answers, kind):
    made = 0
    for label, g, s, t, result in answers:
        case = ANSWER_CORRUPTIONS[kind](g, s, t, result)
        if case is None:
            continue
        made += 1
        qs, qt, bad = case
        ref = reference_answer_verdicts(g, qs, qt, bad)
        assert ref.rejects, f"{label}: the {kind} corruption corrupted nothing"
        assert_merged_matches(ref, merged_answer_verdicts(g, qs, qt, bad), label)
    assert made >= 5, f"only {made} {kind} cases in the corpus"


# ----------------------------------------------------------------------
# the CSR corpus: the tiny suite graphs and small random ones
# ----------------------------------------------------------------------
def _csr_bases():
    graphs = [suite_graph(name, "tiny") for name in SUITE_NAMES]
    graphs += [_tie_graph(seed) for seed in range(4)]
    return [(g.indptr.copy(), g.indices.copy(), g.weights.copy()) for g in graphs]


def _pick(rng, size: int) -> int:
    return int(rng.integers(0, size))


def indptr_start(ip, ix, w, rng):
    ip[0] = 1
    return ip, ix, w


def indptr_decreases(ip, ix, w, rng):
    v = next(v for v in range(1, ip.size - 2) if ip[v] < ip[v + 1])
    ip[v], ip[v + 1] = ip[v + 1], ip[v]
    return ip, ix, w


def indptr_end(ip, ix, w, rng):
    ip[-1] += 1
    return ip, ix, w


def target_too_large(ip, ix, w, rng):
    ix[_pick(rng, ix.size)] = ip.size - 1
    return ip, ix, w


def target_negative(ip, ix, w, rng):
    ix[_pick(rng, ix.size)] = -1
    return ip, ix, w


def _weight(value):
    def corrupt(ip, ix, w, rng):
        w[_pick(rng, w.size)] = value
        return ip, ix, w

    return corrupt


def fewer_weights(ip, ix, w, rng):
    return ip, ix, w[:-1]


def more_weights(ip, ix, w, rng):
    return ip, ix, np.append(w, 1.0)


def empty_indptr(ip, ix, w, rng):
    return ip[:0], ix, w


def indptr_2d(ip, ix, w, rng):
    return ip[None, :], ix, w


def indices_2d(ip, ix, w, rng):
    return ip, ix[None, :], w


def weights_2d(ip, ix, w, rng):
    return ip, ix, w[None, :]


CSR_CORRUPTIONS = {
    "indptr_start": indptr_start,
    "indptr_decreases": indptr_decreases,
    "indptr_end": indptr_end,
    "target_too_large": target_too_large,
    "target_negative": target_negative,
    "weight_nan": _weight(math.nan),
    "weight_inf": _weight(math.inf),
    "weight_minus_inf": _weight(-math.inf),
    "weight_zero": _weight(0.0),
    "weight_negative": _weight(-2.5),
    "fewer_weights": fewer_weights,
    "more_weights": more_weights,
    "empty_indptr": empty_indptr,
    "indptr_2d": indptr_2d,
    "indices_2d": indices_2d,
    "weights_2d": weights_2d,
}


def test_every_suite_csr_passes_all_four_checkers():
    for ip, ix, w in _csr_bases():
        ref = reference_csr_verdicts(ip, ix, w)
        assert not ref.rejects and not ref.crashed
        assert not merged_csr_verdicts(ip, ix, w).rejects


@pytest.mark.parametrize("kind", sorted(CSR_CORRUPTIONS))
def test_merged_csr_checker_rejects_iff_a_reference_does(kind):
    rng = np.random.default_rng(sorted(CSR_CORRUPTIONS).index(kind))
    for i, base in enumerate(_csr_bases()):
        ip, ix, w = CSR_CORRUPTIONS[kind](*(a.copy() for a in base), rng)
        ref = reference_csr_verdicts(ip, ix, w)
        assert ref.rejects, f"base {i}: the {kind} corruption corrupted nothing"
        assert_merged_matches(ref, merged_csr_verdicts(ip, ix, w), f"base {i}")


# ----------------------------------------------------------------------
# where the earlier pairs disagreed: the merged checker keeps the stricter
# ----------------------------------------------------------------------
def test_verify_rejects_more_paths_than_k(diamond_graph):
    paths = make_algorithm("Yen", diamond_graph, 0, 3).run(3).paths
    report = verify_ksp_result(diamond_graph, 0, 3, KSPResult(paths, k_requested=2))
    assert not report
    assert report.failures == ["3 paths returned for k=2"]


def test_san_path_rejects_a_small_absolute_misorder_at_cost_200():
    g = from_edge_list(
        4, [(0, 1, 100.0), (1, 3, 100.0), (0, 2, 100.0), (2, 3, 100.0)]
    )
    result = KSPResult(
        [Path(200.0, (0, 1, 3)), Path(200.0 - 1e-7, (0, 2, 3))], k_requested=2
    )
    with pytest.raises(SanitizerError, match="non-decreasing") as exc:
        sanitize.check_result_paths(g, result, 0, 3)
    assert exc.value.finding.rule == "SAN-PATH"
    assert exc.value.finding.context == {"path": 1}


def test_san_csr_rejects_an_empty_indptr():
    empty = np.zeros(0)
    g = CSRGraph(empty, empty, empty, check=False)
    with pytest.raises(SanitizerError, match="1-D array of length n") as exc:
        sanitize.check_csr(g)
    assert exc.value.finding.rule == "SAN-CSR"


def test_san_csr_rejects_two_targets_with_one_weight():
    g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0]), check=False)
    with pytest.raises(SanitizerError, match=r"indices \(2\) and weights \(1\)"):
        sanitize.check_csr(g)

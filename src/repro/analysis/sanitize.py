"""Runtime sanitizers: machine-checked invariants for the PeeK pipeline.

PeeK's correctness story rests on invariants that are cheap to *check* but
easy to silently break while refactoring: CSR structural integrity, the
faithfulness of the compaction views, the simplicity/ordering/re-summation
contract of returned paths, the prune bound's certificate over the result,
and the epoch discipline of the shared SSSP workspaces.  This module turns
each into an explicit check that raises :class:`~repro.errors.SanitizerError`
carrying a structured :class:`~repro.analysis.findings.Finding` naming the
offending vertex/edge/path.  Two of the checks only front the library's own
checker of the contract: ``SAN-CSR`` raises the first violation
:func:`repro.graph.csr.csr_violation` finds and ``SAN-PATH`` the first one
:func:`repro.verify.verify_ksp_result` reports.

Enable per call with ``repro.solve(..., sanitize=True)`` or process-wide
with ``RPR_SANITIZE=1``.  The checks only *read* — a sanitized run returns
bitwise-identical results to an unsanitized one (asserted by the slow test
in ``tests/analysis/test_overhead.py``, which also bounds the overhead at
under 2× the untraced runtime on the medium suite).

Check ids: ``SAN-CSR`` (CSR structure), ``SAN-VIEW`` (compaction views),
``SAN-PATH`` (result paths), ``SAN-PRUNE`` (PeeK prune certificate),
``SAN-WS`` (workspace epoch integrity), ``SAN-DYN`` (live-graph
reuse: a reused prune must match a cold re-prune on the current snapshot,
and a carried SSSP tree a cold tree).
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.findings import Finding
from repro.cancel import fault_scope
from repro.errors import SanitizerError
from repro.graph.csr import csr_violation
from repro.obs.tracer import NOOP_TRACER, use_tracer
from repro.paths import COST_REL_TOL, costs_close
from repro.verify import verify_ksp_result

__all__ = [
    "sanitize_enabled_from_env",
    "check_graph",
    "check_csr",
    "check_reverse_roundtrip",
    "check_status_view",
    "check_edge_swap_view",
    "check_regenerated",
    "check_result_paths",
    "check_prune_certificate",
    "check_dyn_reuse",
    "check_carried_tree",
    "check_workspace",
    "run_sanitized",
]


def sanitize_enabled_from_env() -> bool:
    """True when ``RPR_SANITIZE`` requests process-wide sanitizing."""
    return os.environ.get("RPR_SANITIZE", "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    )


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


# ----------------------------------------------------------------------
# structural checks
# ----------------------------------------------------------------------
def check_csr(graph, *, name: str = "graph") -> None:
    """CSR structural integrity — :func:`repro.graph.csr.csr_violation`'s
    checks, raised with the offending vertex/edge as context."""
    bad = csr_violation(
        np.asarray(graph.indptr), np.asarray(graph.indices), np.asarray(graph.weights)
    )
    if bad is not None:
        _fail("SAN-CSR", f"{name}: {bad.message}", **bad.context)


def check_reverse_roundtrip(graph, *, name: str = "graph") -> None:
    """``reverse()`` preserves the edge multiset and round-trips."""
    rev = graph.reverse()
    if rev.num_edges != graph.num_edges:
        _fail(
            "SAN-CSR",
            f"{name}: reverse() has {rev.num_edges} edges, original has "
            f"{graph.num_edges}",
        )
    n = graph.num_vertices
    in_deg = np.bincount(graph.indices, minlength=n)
    if not np.array_equal(in_deg, rev.out_degrees()):
        v = int(np.flatnonzero(in_deg != rev.out_degrees())[0])
        _fail(
            "SAN-CSR",
            f"{name}: vertex {v} has in-degree {int(in_deg[v])} but "
            f"reverse out-degree {int(rev.out_degrees()[v])}",
            vertex=v,
        )
    if graph.num_edges and not costs_close(
        float(graph.weights.sum()), float(rev.weights.sum())
    ):
        _fail("SAN-CSR", f"{name}: reverse() changed the total edge weight")
    back = rev.reverse()
    if back is not graph and not back.structurally_equal(graph):
        _fail("SAN-CSR", f"{name}: reverse().reverse() is not the original graph")


def check_status_view(view) -> None:
    """Status-array view: mask shape and endpoint-liveness consistency."""
    base = view.base
    check_csr(base, name="StatusArrayView.base")
    m = base.num_edges
    if view.edge_mask.size != m:
        _fail(
            "SAN-VIEW",
            f"StatusArrayView: edge_mask has {view.edge_mask.size} entries "
            f"for {m} edges",
        )
    if view.keep_vertices.size != base.num_vertices:
        _fail(
            "SAN-VIEW",
            f"StatusArrayView: keep_vertices has {view.keep_vertices.size} "
            f"entries for {base.num_vertices} vertices",
        )
    # a live edge must connect two kept vertices
    live = np.flatnonzero(view.edge_mask)
    if live.size:
        src = base.edge_sources()[live]
        dst = base.indices[live]
        bad = np.flatnonzero(
            ~view.keep_vertices[src] | ~view.keep_vertices[dst]
        )
        if bad.size:
            e = int(live[bad[0]])
            _fail(
                "SAN-VIEW",
                f"StatusArrayView: edge {e} "
                f"({int(base.edge_sources()[e])}->{int(base.indices[e])}) is "
                "live but one endpoint is pruned",
                edge=e,
            )


def check_edge_swap_view(view) -> None:
    """Edge-swap view: segment ends in range, live slice structurally valid."""
    base = view.base
    indptr = base.indptr
    n = base.num_vertices
    ends = view._ends
    bad = np.flatnonzero((ends < indptr[:-1]) | (ends > indptr[1:]))
    if bad.size:
        v = int(bad[0])
        _fail(
            "SAN-VIEW",
            f"EdgeSwapView: vertex {v} live segment end {int(ends[v])} "
            f"outside its CSR segment [{int(indptr[v])}, {int(indptr[v + 1])}]",
            vertex=v,
        )
    degs = np.diff(indptr)
    live = np.arange(base.num_edges, dtype=np.int64) < np.repeat(ends, degs)
    if int(live.sum()) != view.num_edges:
        _fail(
            "SAN-VIEW",
            f"EdgeSwapView: num_edges={view.num_edges} but live segments "
            f"hold {int(live.sum())} edges",
        )
    live_pos = np.flatnonzero(live)
    if live_pos.size:
        tgt = view.indices[live_pos]
        out = np.flatnonzero((tgt < 0) | (tgt >= n))
        if out.size:
            e = int(live_pos[out[0]])
            _fail(
                "SAN-VIEW",
                f"EdgeSwapView: live edge at position {e} targets vertex "
                f"{int(view.indices[e])}, outside [0, {n}) — dangling index",
                edge=e,
                target=int(view.indices[e]),
            )
        w = view.weights[live_pos]
        badw = np.flatnonzero(~np.isfinite(w) | (w <= 0.0))
        if badw.size:
            e = int(live_pos[badw[0]])
            _fail(
                "SAN-VIEW",
                f"EdgeSwapView: live edge at position {e} has invalid "
                f"weight {float(view.weights[e])}",
                edge=e,
            )


def check_regenerated(regen) -> None:
    """Regenerated graph: fresh CSR valid, id maps mutually inverse."""
    check_csr(regen.graph, name="RegeneratedGraph.graph")
    n_new = regen.graph.num_vertices
    if regen.old_id.size != n_new:
        _fail(
            "SAN-VIEW",
            f"RegeneratedGraph: old_id has {regen.old_id.size} entries for "
            f"{n_new} vertices",
        )
    if not np.array_equal(
        regen.new_id[regen.old_id], np.arange(n_new, dtype=np.int64)
    ):
        _fail("SAN-VIEW", "RegeneratedGraph: new_id/old_id maps are not inverse")


def check_graph(graph, *, name: str = "graph") -> None:
    """Dispatch the structural check matching ``graph``'s concrete type."""
    from repro.core.compaction import (
        EdgeSwapView,
        RegeneratedGraph,
        StatusArrayView,
    )
    from repro.graph.csr import CSRGraph

    if isinstance(graph, CSRGraph):
        check_csr(graph, name=name)
        check_reverse_roundtrip(graph, name=name)
    elif isinstance(graph, StatusArrayView):
        check_status_view(graph)
    elif isinstance(graph, EdgeSwapView):
        check_edge_swap_view(graph)
    elif isinstance(graph, RegeneratedGraph):
        check_regenerated(graph)
    else:
        # adjacency-protocol duck types (tests' stubs): best-effort only
        if hasattr(graph, "indptr"):
            check_csr(graph, name=name)


# ----------------------------------------------------------------------
# result checks
# ----------------------------------------------------------------------
def check_result_paths(
    graph, result, source: int, target: int, *, rel_tol: float = COST_REL_TOL
) -> None:
    """Returned paths are simple, correctly summed, sorted, distinct and at
    most K — :func:`repro.verify.verify_ksp_result`'s local checks, raised
    on the first violation with its path/vertex/edge context."""
    report = verify_ksp_result(graph, source, target, result, rel_tol=rel_tol)
    if report.violations:
        first = report.violations[0]
        _fail("SAN-PATH", first.message, **first.context)


def check_prune_certificate(result, *, rel_tol: float = COST_REL_TOL) -> None:
    """PeeK-specific: every returned path survives the prune bound.

    The K-upper-bound ``b`` dominates the true K-th shortest distance
    (paper Lemma 4.2 / Theorem 4.3), so every returned path must cost at
    most ``b`` and every vertex on it must have ``spSum[v] <= b`` — i.e.
    none of the returned paths touches anything the prune was allowed to
    delete.  This certifies the compaction stage changed no answer.
    """
    pr = getattr(result, "prune", None)
    if pr is None or not np.isfinite(pr.bound):
        return
    slack = rel_tol * max(1.0, abs(pr.bound))
    # bounded by the <= K returned paths of a finished run
    for i, path in enumerate(result.paths):  # contracts: disable=CTR201 (bounded)
        if path.distance > pr.bound + slack:
            _fail(
                "SAN-PRUNE",
                f"path #{i} costs {path.distance!r}, above the prune bound "
                f"{pr.bound!r} — the prune certificate is violated",
                path=i,
                bound=float(pr.bound),
            )
        verts = np.asarray(path.vertices, dtype=np.int64)
        sp = pr.sp_sum[verts]
        bad = np.flatnonzero(sp > pr.bound + slack)
        if bad.size:
            v = int(verts[bad[0]])
            _fail(
                "SAN-PRUNE",
                f"path #{i} visits vertex {v} with spSum {float(pr.sp_sum[v])!r} "
                f"above the prune bound {pr.bound!r} — that vertex should "
                "have been prunable",
                path=i,
                vertex=v,
                bound=float(pr.bound),
            )


def check_dyn_reuse(graph, prune, source: int, target: int, k: int) -> None:
    """Live-graph reuse audit: a reused prune must equal a cold re-prune.

    :meth:`repro.core.batch.BatchPeeK.prepare` may answer a query from a
    cached pruning decision when the mutation batches since it was
    computed satisfied :func:`repro.core.pruning.prune_reuse_certificate`.
    This check recomputes the prune from scratch on the *current*
    snapshot and asserts the certificate's promise: the K upper bound
    agrees (to :data:`~repro.paths.COST_REL_TOL`) and the kept-vertex set
    is identical.  Expensive (two SSSPs + a spSum scan), so it only runs
    under sanitizers.
    """
    from repro.core.pruning import k_upper_bound_prune

    # the audit is not the query's work: no checkpoint inside it may bill
    # simulated time or fire an injected fault, and it leaves no trace
    with fault_scope(None), use_tracer(NOOP_TRACER):
        cold = k_upper_bound_prune(graph, source, target, k)
    both_inf = not (np.isfinite(prune.bound) or np.isfinite(cold.bound))
    if not both_inf and not costs_close(prune.bound, cold.bound):
        _fail(
            "SAN-DYN",
            f"reused prune bound {prune.bound!r} disagrees with a cold "
            f"re-prune's bound {cold.bound!r} for query "
            f"({source}, {target}, k={k}) — the reuse certificate admitted "
            "a batch it should have refused",
            source=source,
            target=target,
            k=k,
            reused_bound=float(prune.bound),
            cold_bound=float(cold.bound),
        )
    if not np.array_equal(prune.keep_vertices, cold.keep_vertices):
        delta = np.flatnonzero(prune.keep_vertices != cold.keep_vertices)
        v = int(delta[0])
        _fail(
            "SAN-DYN",
            f"reused kept-vertex set disagrees with a cold re-prune at "
            f"vertex {v} (reused keeps it: {bool(prune.keep_vertices[v])}) "
            f"for query ({source}, {target}, k={k})",
            source=source,
            target=target,
            k=k,
            vertex=v,
        )


def check_carried_tree(graph, tree) -> None:
    """Live-graph repair audit: a carried SSSP tree must equal a cold one.

    :meth:`repro.core.batch.BatchPeeK.rebind` carries each cached tree
    onto the new snapshot, repairing what the batch changed
    (:func:`repro.sssp.repair.carry_trees`), or re-homes it when the
    batch cannot change it.  This check runs a cold
    :func:`~repro.sssp.dijkstra.dijkstra_tree` on ``graph`` and asserts
    bitwise equality of ``dist``, of the parents the tree would build
    from its SciPy predecessors, of every memoised parent and of a built
    parent array.  It reads the tree's state without resolving anything,
    so the audited tree is left as it was.
    """
    from repro.sssp.dijkstra import dijkstra_tree, loop_parents

    root = tree.source
    with fault_scope(None), use_tracer(NOOP_TRACER):
        cold = dijkstra_tree(graph, root)
    want = cold.parent
    if tree._graph is not graph:
        _fail("SAN-DYN", f"carried tree from {root} is not on the new snapshot", root=root)
    got, want_d = tree.dist, cold.dist
    bad = np.flatnonzero(got != want_d)
    if bad.size:
        v = int(bad[0])
        _fail(
            "SAN-DYN",
            f"carried tree from {root} has dist {got[v]!r} at vertex {v}, "
            f"a cold tree {want_d[v]!r}",
            root=root,
            vertex=v,
        )
    parents = [("predecessor", loop_parents(graph, root, tree.dist, tree._pred))]
    if tree._parent is not None:
        parents.append(("parent array", tree._parent))
    memo = np.fromiter(tree._resolved, dtype=np.int64, count=len(tree._resolved))
    memo_parent = np.full(want.size, -2, dtype=np.int64)
    memo_parent[memo] = list(tree._resolved.values())
    parents.append(("memoised", np.where(memo_parent == -2, want, memo_parent)))
    for what, got in parents:
        bad = np.flatnonzero(got != want)
        if bad.size:
            v = int(bad[0])
            _fail(
                "SAN-DYN",
                f"carried tree from {root}: {what} parent of vertex {v} is "
                f"{int(got[v])}, a cold tree's is {int(want[v])}",
                root=root,
                vertex=v,
            )


def check_workspace(ws) -> None:
    """Workspace epoch integrity: no future stamps, consistent ban mask."""
    ep = ws.epoch
    dstamp = np.asarray(ws._dstamp, dtype=np.int64)
    sstamp = np.asarray(ws._sstamp, dtype=np.int64)
    bad = np.flatnonzero(dstamp > ep)
    if bad.size:
        v = int(bad[0])
        _fail(
            "SAN-WS",
            f"workspace vertex {v} carries distance stamp {int(dstamp[v])} "
            f"beyond the current epoch {ep} — stale-epoch discipline broken",
            vertex=v,
            epoch=ep,
        )
    bad = np.flatnonzero(sstamp > ep)
    if bad.size:
        v = int(bad[0])
        _fail(
            "SAN-WS",
            f"workspace vertex {v} carries settled stamp {int(sstamp[v])} "
            f"beyond the current epoch {ep}",
            vertex=v,
            epoch=ep,
        )
    mask_set = set(np.flatnonzero(ws.ban).tolist())
    if mask_set != ws._ban_current:
        delta = mask_set.symmetric_difference(ws._ban_current)
        v = int(next(iter(delta)))
        _fail(
            "SAN-WS",
            f"workspace incremental ban mask out of sync at vertex {v} "
            f"(mask says {v in mask_set}, tracking set says "
            f"{v in ws._ban_current})",
            vertex=v,
        )


# ----------------------------------------------------------------------
# the sanitized solve pipeline
# ----------------------------------------------------------------------
def run_sanitized(graph, source: int, target: int, k: int, algorithm: str, opts):
    """Run one solve under the full sanitizer battery.

    Called by :func:`repro.solve` when sanitizing is requested.  Checks the
    input graph structurally, runs the untouched solver, then audits the
    result paths, PeeK's prune certificate and compaction artefacts, and
    any SSSP workspace the solver used.  The result object is returned
    unmodified.
    """
    from repro.ksp.registry import make_algorithm
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    with tracer.span("sanitize.pre", algorithm=algorithm):
        check_graph(graph, name="input graph")

    solver = make_algorithm(algorithm, graph, source, target, **opts)
    result = solver.run(k)

    with tracer.span("sanitize.post", algorithm=algorithm):
        check_result_paths(graph, result, source, target)
        check_prune_certificate(result)
        comp = getattr(solver, "compaction_result", None)
        if comp is not None:
            check_graph(comp.compacted, name="compacted graph")
        prepared = getattr(solver, "prepared", None)
        inner = prepared.inner if prepared is not None else solver
        ws = getattr(inner, "_workspace", None)
        if ws is not None:
            check_workspace(ws)
    return result

"""repro-contracts: the repo's static analyzer.

This package builds a *project-wide* view — every module's AST, a
per-function control-flow graph with exception edges, and an
interprocedural call graph that resolves through the ``AlgorithmSpec``
registry indirection — and checks the contracts that make the repo's
reproducibility claims *provable* rather than merely tested:

* **determinism discipline** (``CTR101``–``CTR103``) — no reachable use
  of unseeded module-level RNG state, no wall-clock reads outside the
  injectable clock of :mod:`repro.cancel`, no RNG objects smuggled
  across subsystem boundaries through module globals;
* **cancellation coverage** (``CTR201``) — every unbounded-work loop
  reachable from ``serve()`` / ``solve()`` checkpoints, directly or via
  its callees;
* **interprocedural span pairing** (``CTR301``) — a tracer span opened
  in one function and closed in another is closed on *all* CFG paths,
  including exception edges;
* **static footprint audit** (``CTR401``/``CTR402``) — the arrays each
  parallel phase actually writes match the :class:`Footprint`
  declarations the dynamic race detector trusts;
* **entry-point contracts** (``CTR501``) — every public entry validates
  the request before touching kernel code;
* **module-local rules** (``RPR001``–``RPR005``) — CSR arrays are
  immutable, spans live in ``with`` blocks, hot loops allocate no O(n)
  buffers, float costs are never compared exactly, and the registry
  aliases stay thin (:mod:`repro.analysis.contracts.local`).

Run as ``python -m repro.analysis.contracts`` or via the installed
``repro-contracts`` script; see ``docs/correctness_tooling.md``.
"""

from repro.analysis.contracts.analyzer import AnalysisResult, analyze_paths
from repro.analysis.contracts.config import ContractConfig, default_config
from repro.analysis.contracts.registry import PASSES, PassInfo

__all__ = [
    "AnalysisResult",
    "analyze_paths",
    "ContractConfig",
    "default_config",
    "PASSES",
    "PassInfo",
]

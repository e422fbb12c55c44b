"""Configuration for the contract analyzer.

Everything repo-specific lives here as *data*: which functions are
public entries, which module owns the injectable clock, which parallel
phase functions are audited against which recorder declarations.  The
fixture corpora under ``tests/analysis/fixtures/contracts/`` run the
same passes with the same default config — fixture modules masquerade as
library modules via ``# contracts: module=repro/...`` pragmas — so a
fixture exercises exactly the code path CI runs on the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AuditGroup", "ContractConfig", "default_config"]


@dataclass(frozen=True)
class AuditGroup:
    """One footprint audit: phase functions vs. a recorder's declaration.

    ``functions`` are ``(module-suffix, qualname)`` pairs; the static
    writes inferred across the whole group (a decomposition may span
    several functions — one relax method per engine, or a worker
    function and a committing master) are diffed
    against the read/write resource names declared by ``recorder`` in
    the declarations module.
    """

    label: str
    recorder: str
    functions: tuple[tuple[str, str], ...]
    #: array names treated as shared state
    shared: frozenset[str]

    def resource_of(self, name: str) -> str | None:
        """The declared resource a (normalised) array name maps to."""
        stripped = name.lstrip("_")
        if name in self.shared or stripped in self.shared:
            return stripped
        return None


@dataclass(frozen=True)
class ContractConfig:
    """Tunable surface of the analyzer (defaults match this repo)."""

    # -- entry points ---------------------------------------------------
    #: bare function/method names treated as public entries (CTR1xx
    #: reachability roots and CTR501 subjects)
    entry_names: frozenset[str] = frozenset({"solve", "serve", "main"})
    #: subset of entries whose call trees must checkpoint (CTR201):
    #: the deadline-carrying doors, not the CLI drivers
    cancellation_roots: frozenset[str] = frozenset({"solve", "serve"})

    # -- determinism ----------------------------------------------------
    #: modules allowed to touch the wall clock (the injectable substrate)
    clock_modules: frozenset[str] = frozenset({"repro/cancel.py"})

    # -- cancellation ---------------------------------------------------
    #: the cooperative-cancellation seam (call by this name = coverage)
    checkpoint_names: frozenset[str] = frozenset({"checkpoint"})

    # -- entry contracts ------------------------------------------------
    #: request validators (reaching one of these = validated)
    validator_names: frozenset[str] = frozenset({"validate_query"})
    #: module prefixes that count as "kernel code" for CTR501 — the
    #: query-serving KSP kernel.  SSSP and graph plumbing are excluded
    #: on purpose: ``validate_query`` validates a *query*, and a bench
    #: running bare ``delta_stepping(graph, src)`` has none to validate.
    kernel_prefixes: tuple[str, ...] = ("repro/ksp/",)
    #: call names resolved through the AlgorithmSpec registry
    indirection_names: frozenset[str] = frozenset({"make_algorithm"})
    #: module (suffix) holding the ALGORITHMS registry table
    registry_module: str = "repro/ksp/registry.py"

    # -- footprints -----------------------------------------------------
    #: module holding the Footprint recorder declarations
    declarations_module: str = "repro/analysis/race.py"
    audits: tuple[AuditGroup, ...] = ()

    # -- span pairing ---------------------------------------------------
    #: method name opening a span (the obs tracer API)
    span_open_attr: str = "span"
    #: call names / attrs that close a manually-held span
    span_close_attrs: frozenset[str] = frozenset({"__exit__", "close"})


def default_config() -> ContractConfig:
    """The shipped configuration: this repo's contracts."""
    return ContractConfig(
        audits=(
            AuditGroup(
                label="delta-stepping",
                recorder="DeltaSteppingFootprints",
                functions=(
                    ("repro/sssp/delta_stepping.py", "_VectorizedEngine.relax"),
                    ("repro/sssp/delta_stepping.py", "_ScalarEngine.relax"),
                ),
                shared=frozenset({"dist", "parent"}),
            ),
            AuditGroup(
                label="dist-delta",
                recorder="DistDeltaFootprints",
                functions=(
                    (
                        "repro/distributed/dist_sssp.py",
                        "distributed_delta_stepping",
                    ),
                ),
                shared=frozenset({"dist", "parent", "needs"}),
            ),
        ),
    )

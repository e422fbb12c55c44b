"""RPR005 regression fixture: an alias that grew its own behaviour."""
# contracts: module=repro/ksp/rpr005_bad.py


def yen_ksp(graph, source, target, k, **kwargs):
    """Not a thin alias: clamps k before delegating."""
    from repro.api import solve

    if k > 10:
        k = 10
    return solve(graph, source, target, k, algorithm="Yen", **kwargs)

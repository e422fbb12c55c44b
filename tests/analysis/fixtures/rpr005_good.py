"""RPR005 good fixture: the sanctioned thin-alias shape."""
# contracts: module=repro/ksp/rpr005_good.py


def yen_ksp(graph, source, target, k, **kwargs):
    """Thin alias for :func:`repro.solve` with ``algorithm="Yen"``."""
    from repro.api import solve

    return solve(graph, source, target, k, algorithm="Yen", **kwargs)

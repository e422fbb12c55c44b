"""Call-graph fixture: a module whose basename a caller's local reuses."""
# contracts: module=repro/fixture/fabric.py


def run(horizon):
    return horizon

"""RPR003 regression fixture: per-spur O(n) allocation in the hot loop."""
# contracts: module=repro/ksp/rpr003_bad.py

import numpy as np


def spur_searches(n, spurs):
    out = []
    for _ in spurs:
        banned = np.zeros(n, dtype=bool)
        out.append(banned)
    return out

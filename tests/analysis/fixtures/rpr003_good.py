"""RPR003 good fixture: hoisted buffer; small constant scratch allowed."""
# contracts: module=repro/ksp/rpr003_good.py

import numpy as np


def spur_searches(n, spurs):
    banned = np.zeros(n, dtype=bool)  # hoisted, reset sparsely per spur
    out = []
    for _ in spurs:
        scratch = np.empty(16, dtype=np.int64)  # constant-size: not O(n)
        out.append((banned, scratch))
    return out

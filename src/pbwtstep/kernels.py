"""Per-column build kernels, written as whole-column numpy operations.

Symbols are ints in [0, sigma) of the internal alphabet; ``run_starts``
returns 0-based int64 indices.
"""

import numpy as np

BACKEND = "numpy"  # named in benchmark reports


def run_starts(sym):
    """0-based indices where maximal equal-symbol runs begin."""
    if sym.size == 0:
        return np.empty(0, np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(sym) != 0) + 1)).astype(np.int64)

"""Per-column build kernels, written as whole-column numpy operations.

All kernels speak the internal convention: symbols are ints in [0, sigma);
``lo`` is the smallest steppable symbol (1 when symbol 0 is a terminator that
drops out of the next column, else 0). ``fore_column`` returns 1-based
positions in the smallest unsigned dtype that holds the column length,
``run_starts`` 0-based int64 indices.
"""

import numpy as np

BACKEND = "numpy"  # named in benchmark reports


def fore_column(sym, lo):
    """1-based forward-step targets for one column; 0 where undefined.

    fore[i] = (#symbols in [lo, c)) + (#occurrences of c at or before i),
    with c = sym[i], which is i's place in a stable sort of the column less
    the positions below lo; positions with sym[i] < lo have no target.
    """
    out = np.zeros(sym.size, np.min_scalar_type(sym.size))
    live = np.argsort(sym, kind="stable")[np.count_nonzero(sym < lo):]
    out[live] = np.arange(1, live.size + 1)
    return out


def run_starts(sym):
    """0-based indices where maximal equal-symbol runs begin."""
    if sym.size == 0:
        return np.empty(0, np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(sym) != 0) + 1)).astype(np.int64)

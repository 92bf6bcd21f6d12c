"""Hot build kernels, written as whole-column numpy operations.

All kernels speak the internal convention: symbols are ints in [0, sigma);
``lo`` is the smallest steppable symbol (1 when symbol 0 is a terminator that
drops out of the next column, else 0). Returned positions are 1-based.
"""

import numpy as np

BACKEND = "numpy"  # named in benchmark reports


def pbwt_matrix(mat, sigma):
    """Column-wise stable bucket pass over a fixed-length panel.

    mat: (h, w) int64 matrix of symbols. Returns (pbwt, pa), both (h, w)
    int64; pa holds 1-based row ids. The stable argsort on an integer
    column is numpy's radix sort, i.e. one counting-sort bucket pass.
    """
    h, w = mat.shape
    pbwt = np.empty((h, w), np.int64)
    pa = np.empty((h, w), np.int64)
    order = np.arange(1, h + 1, dtype=np.int64)
    for j in range(w):
        col = mat[order - 1, j]
        pa[:, j] = order
        pbwt[:, j] = col
        if j + 1 < w:
            order = order[np.argsort(col, kind="stable")]
    return pbwt, pa


def fore_column(sym, sigma, lo):
    """1-based forward-step targets for one column; 0 where undefined.

    fore[i] = (#symbols in [lo, c)) + (#occurrences of c at or before i),
    with c = sym[i]; positions with sym[i] < lo have no target.
    """
    cnt = np.bincount(sym, minlength=sigma)
    base = np.zeros(sigma, np.int64)
    base[lo:] = np.cumsum(cnt[lo:]) - cnt[lo:]
    out = base[sym] + occ_column(sym, sigma)
    if lo > 0:
        out[sym < lo] = 0
    return out


def occ_column(sym, sigma):
    """occ[i] = number of occurrences of sym[i] in sym[:i+1] (1-based count)."""
    n = sym.size
    cnt = np.bincount(sym, minlength=sigma)
    order = np.argsort(sym, kind="stable")
    grp = np.repeat(np.cumsum(cnt) - cnt, cnt)
    occ = np.empty(n, np.int64)
    occ[order] = np.arange(n, dtype=np.int64) - grp
    return occ + 1


def run_starts(sym):
    """0-based indices where maximal equal-symbol runs begin."""
    if sym.size == 0:
        return np.empty(0, np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(sym) != 0) + 1)).astype(np.int64)

"""PBWT and prefix-array construction.

Column j (1-based) of the prefix array lists file row ids in stable
co-lexicographic order of their (j-1)-prefixes, ties in column 1's order (file
order, or lexicographic for a sorted index); the PBWT column holds each ordered
row's symbol at column j. Runs are the maximal equal-symbol blocks of a PBWT
column, kept as the ascending array of their 1-based starts.

In ragged mode every row is extended with a terminator that sorts below all
real symbols (stored internally as 0, real symbols shifted up by one), and
column j only lists rows still alive there. A forward step (the LF-mapping)
moves a row to its position in column j+1's prefix array; it is undefined on
terminator positions, while the backward step to column j-1 is always defined.
``cols`` and ``pas`` use the smallest unsigned dtype that holds the internal
alphabet and h. No forward targets are kept: a row holding c at s goes to
C[c] + rank_c(s), which ``subruns.fore_image`` reads off a stable sort by symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import Panel


@dataclass
class PbwtColumns:
    """Per-column PBWT symbols, prefix-array permutations and run starts."""

    h: int
    w: int
    sigma: int                      # internal alphabet size (incl. terminator)
    ragged: bool                    # rows end in the terminator, internal symbol 0
    cols: list[np.ndarray]          # per column: symbols, length n_j
    pas: list[np.ndarray]           # per column: 1-based row ids, length n_j
    runs: list[np.ndarray]          # per column: 1-based start of each run, ascending
    total_runs: int

    def col_len(self, j: int) -> int:
        return len(self.cols[j - 1])

    def runs_at(self, j: int) -> np.ndarray:
        return self.runs[j - 1]


def extract_runs(symbols) -> np.ndarray:
    """1-based starts of the maximal equal-symbol blocks of a column."""
    sym = np.asarray(symbols)
    if sym.size == 0:
        raise ValueError("empty column")
    return np.concatenate(([1], np.flatnonzero(sym[1:] != sym[:-1]) + 2))


def internal_matrix(p: Panel) -> np.ndarray:
    """The panel as one column-major matrix of the smallest unsigned dtype
    that holds the internal alphabet: ``p.mat`` itself when that needs no
    cast; ragged panels shift real symbols up by one and add a terminator
    column, so every row ends in a 0."""
    dtype = np.min_scalar_type(p.sigma - 1 + p.ragged)
    if not p.ragged:
        return p.mat.astype(dtype, copy=False)
    mat = np.zeros((p.h, p.w + 1), dtype, order="F")
    mat[:, :-1] = p.mat
    mat[:, :-1] += np.arange(p.w) < p.lens[:, None]
    return mat


def _columns(p: Panel, cols: list[np.ndarray], pas: list[np.ndarray]) -> PbwtColumns:
    runs = [extract_runs(c) for c in cols]
    return PbwtColumns(h=p.h, w=len(cols), sigma=p.sigma + p.ragged, ragged=p.ragged, cols=cols,
                       pas=pas, runs=runs, total_runs=sum(r.size for r in runs))


def build_pbwt(p: Panel, first: np.ndarray | None = None) -> PbwtColumns:
    """Counting-sort construction, one stable bucket pass per column.

    Column 1 lists the 1-based row ids ``first`` (file order when None), and
    every later order follows from it; ``pas`` hold file row ids either way.
    Column j is a gather along the current order from column j of the
    column-major ``internal_matrix``. Rows whose symbol is below the steppable
    range (a ragged row's terminator) drop out before the next column; the
    stable argsort on a narrow integer column is numpy's radix sort, i.e. one
    counting-sort bucket pass.
    """
    by_col = np.ascontiguousarray(internal_matrix(p).T)
    lo = int(p.ragged)
    order = (np.arange(1, p.h + 1) if first is None else first).astype(np.min_scalar_type(p.h))
    cols, pas = [], []
    for j, column in enumerate(by_col, 1):
        col = column[order - 1]
        cols.append(col)
        pas.append(order)
        if j < by_col.shape[0]:
            # the dropped rows hold the smallest symbols, so they sort first
            order = order[np.argsort(col, kind="stable")[np.count_nonzero(col < lo):]]
    return _columns(p, cols, pas)

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
``column_orders`` yields each column's symbols and prefix array in turn; the
build keeps the symbols and, of each prefix array, only the row at each run
start, in the smallest unsigned dtypes that hold the internal alphabet and h.
No forward targets are kept: a row holding c at s goes to C[c] + rank_c(s),
which ``stepindex.fore_shift`` reads off one stable sort by symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .panel import Panel


@dataclass
class PbwtColumns:
    """Per-column PBWT symbols, run starts and the row at each run start."""

    h: int
    w: int
    sigma: int                      # internal alphabet size (incl. terminator)
    ragged: bool                    # rows end in the terminator, internal symbol 0
    cols: list[np.ndarray]          # per column: symbols, length n_j
    runs: list[np.ndarray]          # per column: 1-based start of each run, ascending
    run_rows: list[np.ndarray]      # per column: the 1-based row id at each run start
    total_runs: int


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


def column_orders(p: Panel, first: np.ndarray | None = None
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each column's PBWT symbols and prefix array (1-based row ids), in turn.

    Column 1 lists the row ids ``first`` (file order when None), and every
    later order follows from it. Column j is a gather along the current order
    from column j of the column-major ``internal_matrix``. Rows whose symbol
    is below the steppable range (a ragged row's terminator) drop out before
    the next column; the stable argsort on a narrow integer column is numpy's
    radix sort, i.e. one counting-sort bucket pass. Only the current order is
    alive: the caller keeps what it needs of each column.
    """
    by_col = np.ascontiguousarray(internal_matrix(p).T)
    lo = int(p.ragged)
    order = (np.arange(1, p.h + 1) if first is None else first).astype(np.min_scalar_type(p.h))
    for j, column in enumerate(by_col, 1):
        col = column[order - 1]
        yield col, order
        if j < by_col.shape[0]:
            # the dropped rows hold the smallest symbols, so they sort first
            order = order[np.argsort(col, kind="stable")[np.count_nonzero(col < lo):]]


def build_pbwt(p: Panel, first: np.ndarray | None = None) -> PbwtColumns:
    """Counting-sort construction over ``column_orders(p, first)``, keeping
    each column's symbols and runs and, of its prefix array, only the file
    row id at each run start."""
    cols, runs, run_rows = [], [], []
    for col, order in column_orders(p, first):
        r = extract_runs(col)
        cols.append(col)
        runs.append(r)
        run_rows.append(order[r - 1])
    return PbwtColumns(h=p.h, w=len(cols), sigma=p.sigma + p.ragged, ragged=p.ragged, cols=cols,
                       runs=runs, run_rows=run_rows, total_runs=sum(r.size for r in runs))

"""PBWT and prefix-array construction plus naive stepping.

Column j (1-based) of the prefix array lists row ids in stable co-lexicographic
order of their (j-1)-prefixes; the PBWT column holds each ordered row's symbol
at column j. Runs are the maximal equal-symbol blocks of a PBWT column, kept
as the ascending array of their 1-based starts.

In ragged mode every row is extended with a terminator that sorts below all
real symbols (stored internally as 0, real symbols shifted up by one), and
column j only lists rows still alive there. Forward stepping is undefined on
terminator positions; backward stepping is always defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .panel import Panel, validate_panel


@dataclass
class PbwtColumns:
    """Per-column PBWT symbols, prefix-array permutations and run starts."""

    h: int
    w: int
    sigma: int                      # internal alphabet size (incl. terminator)
    terminator: int | None          # 0 in ragged mode, None otherwise
    cols: list[np.ndarray]          # per column: symbols, length n_j
    pas: list[np.ndarray]           # per column: 1-based row ids, length n_j
    runs: list[np.ndarray]          # per column: 1-based start of each run, ascending
    total_runs: int
    _fore: dict = field(default_factory=dict, repr=False)

    def col_len(self, j: int) -> int:
        return len(self.cols[j - 1])

    def pbwt_col(self, j: int) -> np.ndarray:
        return self.cols[j - 1]

    def pa_col(self, j: int) -> np.ndarray:
        return self.pas[j - 1]

    def runs_at(self, j: int) -> np.ndarray:
        return self.runs[j - 1]

    def steppable_from(self) -> int:
        """Smallest symbol with a forward-step target (1 skips the terminator)."""
        return 0 if self.terminator is None else 1

    def fore_all(self, j: int) -> np.ndarray:
        """Forward-step targets for every position of column j (0 = undefined)."""
        if j not in self._fore:
            self._fore[j] = kernels.fore_column(self.cols[j - 1], self.steppable_from())
        return self._fore[j]


def extract_runs(symbols) -> np.ndarray:
    """1-based starts of the maximal equal-symbol blocks of a column."""
    sym = np.asarray(symbols, dtype=np.int64)
    if sym.size == 0:
        raise ValueError("empty column")
    return kernels.run_starts(sym) + 1


def _internal_rows(p: Panel) -> list[np.ndarray]:
    if p.ragged:
        return [np.append(r + 1, 0).astype(np.int64) for r in p.rows]
    return [np.asarray(r, dtype=np.int64) for r in p.rows]


def _columns(p: Panel, cols: list[np.ndarray], pas: list[np.ndarray]) -> PbwtColumns:
    runs = [extract_runs(c) for c in cols]
    return PbwtColumns(h=p.h, w=len(cols), sigma=p.sigma + (1 if p.ragged else 0),
                       terminator=0 if p.ragged else None, cols=cols, pas=pas, runs=runs,
                       total_runs=sum(r.size for r in runs))


def build_pbwt(p: Panel) -> PbwtColumns:
    """Counting-sort construction, one stable bucket pass per column.

    The internal rows sit in one zero-padded h×w matrix, so column j is a
    gather along the current order. Rows whose symbol is below the steppable
    range (a ragged row's terminator) drop out before the next column; the
    stable argsort on an integer column is numpy's radix sort, i.e. one
    counting-sort bucket pass.
    """
    validate_panel(p)
    rows = _internal_rows(p)
    w = max(r.size for r in rows)
    mat = np.zeros((p.h, w), np.int64)
    for k, r in enumerate(rows):
        mat[k, :r.size] = r
    lo = 1 if p.ragged else 0
    order = np.arange(1, p.h + 1, dtype=np.int64)
    cols, pas = [], []
    for j in range(w):
        col = mat[order - 1, j]
        cols.append(col)
        pas.append(order)
        if j + 1 < w:
            keep = col >= lo
            order = order[keep][np.argsort(col[keep], kind="stable")]
    return _columns(p, cols, pas)


def build_pbwt_reference(p: Panel) -> PbwtColumns:
    """Quadratic comparison-sort construction, kept as an independent oracle.

    Sorts, for every column, the reversed (j-1)-prefixes with Python's stable
    sort instead of the incremental bucket pass.
    """
    validate_panel(p)
    rows = _internal_rows(p)
    w = max(r.size for r in rows)
    cols, pas = [], []
    for j in range(1, w + 1):
        alive = [i for i in range(1, p.h + 1) if rows[i - 1].size >= j]
        alive.sort(key=lambda i: tuple(rows[i - 1][:j - 1][::-1]))
        pas.append(np.array(alive, np.int64))
        cols.append(np.array([rows[i - 1][j - 1] for i in alive], np.int64))
    return _columns(p, cols, pas)


def naive_fore(pc: PbwtColumns, i: int, j: int) -> int:
    """Position of col_j(PA)[i] in column j+1, by direct column scan."""
    if not 1 <= j < pc.w:
        raise ValueError(f"column {j} out of range [1..{pc.w - 1}] for forward step")
    col = pc.cols[j - 1]
    if not 1 <= i <= col.size:
        raise ValueError(f"row {i} out of range for column {j}")
    c = int(col[i - 1])
    lo = pc.steppable_from()
    if c < lo:
        raise ValueError(f"forward step undefined on terminator position {i} in column {j}")
    below = int(np.count_nonzero((col >= lo) & (col < c)))
    rank = int(np.count_nonzero(col[:i] == c))
    return below + rank


def naive_back(pc: PbwtColumns, i: int, j: int) -> int:
    """Position of col_j(PA)[i] in column j-1, by direct scan of that column."""
    if not 1 < j <= pc.w:
        raise ValueError(f"column {j} out of range (1..{pc.w}] for backward step")
    col = pc.cols[j - 1]
    if not 1 <= i <= col.size:
        raise ValueError(f"row {i} out of range for column {j}")
    rid = int(pc.pas[j - 1][i - 1])
    hits = np.flatnonzero(pc.pas[j - 2] == rid)
    if hits.size != 1:
        raise ValueError(f"row id {rid} not unique in column {j - 1}")
    return int(hits[0]) + 1

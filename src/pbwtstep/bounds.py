"""Run-count statistics and the bounds they must satisfy.

For a fixed-length panel, the total run count is squeezed between the number
of adjacent distinct row pairs (plus one) and that quantity times the width;
per column, runs are no more numerous than the canonical blocks of fully
identical rows, whose count never grows from one column to the next.

One lexsort gives each row a class, so a column's canonical blocks are the
runs of classes along its prefix array, which one pass of ``column_orders``
yields with the column's symbols: O(h*w) for the whole panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .panel import Panel
from .pbwt import column_orders, extract_runs, internal_matrix
from .prefixsearch import sort_panel


def _row_classes(p: Panel) -> np.ndarray:
    """Per row (0-based), the rank of its value among the distinct rows: a
    cumsum of adjacent differences in lexicographic order."""
    order = sort_panel(p) - 1
    cls = np.zeros(p.h, np.int64)
    cls[order[1:]] = np.cumsum(np.diff(internal_matrix(p)[order], axis=0).any(axis=1))
    return cls


def adjacent_distinct_pairs(p: Panel) -> int:
    """Count of i < h with row i differing from row i+1, in the given order."""
    return int(np.count_nonzero(np.diff(_row_classes(p))))


@dataclass
class BoundsReport:
    h: int
    w: int
    h_pp: int                      # adjacent distinct pairs, input order
    h_pp_sorted: int               # same after lexicographic sorting
    distinct: int
    total_runs: int
    r_per_col: list[int]
    ell_per_col: list[int]
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = [f"h={self.h}", f"w={self.w}", f"h_pp={self.h_pp}",
               f"h_pp_sorted={self.h_pp_sorted}", f"distinct={self.distinct}",
               f"r_tilde={self.total_runs}",
               "r_per_col=" + ",".join(map(str, self.r_per_col)),
               "ell_per_col=" + ",".join(map(str, self.ell_per_col))]
        for name, ok in self.checks.items():
            out.append(f"check_{name}={'pass' if ok else 'FAIL'}")
        out.append(f"all_checks={'pass' if self.passed else 'FAIL'}")
        return out


def check_bounds(p: Panel) -> BoundsReport:
    """Compute every bound ingredient and evaluate the inequalities. Per
    column, ``r_per_col`` counts the runs and ``ell_per_col`` the canonical
    blocks, the maximal blocks of the prefix array whose full rows are
    identical.

    A failed check indicates an implementation bug, never an input property.
    """
    if p.ragged:
        raise ValueError("bounds are defined for fixed-length panels")
    cls = _row_classes(p)
    h_pp = int(np.count_nonzero(np.diff(cls)))     # equal rows share a class
    h_pp_sorted = int(cls.max())    # adjacent distinct pairs after lexicographic sorting
    distinct = h_pp_sorted + 1      # sorted rows put equal rows next to each other
    r_per_col, ell_per_col = [], []
    for col, order in column_orders(p):
        r_per_col.append(extract_runs(col).size)
        ell_per_col.append(extract_runs(cls[order - 1]).size)
    rt, w = sum(r_per_col), len(r_per_col)
    checks = {
        "lower_adjacent": rt >= h_pp + 1,
        "lower_distinct": rt >= distinct,
        "runs_le_canonical": all(r <= ell for r, ell in zip(r_per_col, ell_per_col)),
        "canonical_le_hpp1": all(ell <= h_pp + 1 for ell in ell_per_col),
        "upper_width": rt <= w * (h_pp + 1),
        "canonical_monotone": all(b <= a for a, b in zip(ell_per_col, ell_per_col[1:])),
    }
    return BoundsReport(h=p.h, w=w, h_pp=h_pp, h_pp_sorted=h_pp_sorted,
                        distinct=distinct, total_runs=rt, r_per_col=r_per_col,
                        ell_per_col=ell_per_col, checks=checks)

"""Prefix search over a haplotype panel in run-compressed space.

The index keeps, per column, the forward-stepping sub-run boundaries plus
three arrays sampled at sub-run starts: the prefix-array entry, the symbol,
and the running count of that symbol. Rank/select over the per-column symbol
arrays then locates the first/last occurrence of a pattern symbol inside the
current match interval, and the tuple tables advance both ends in O(1).

A query returns the longest prefix of the pattern shared with any row, how
many rows carry it, and the smallest such row id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .panel import Panel
from .stepindex import StepIndex


class SymbolPositions:
    """Rank/select over a short symbol array via per-symbol position lists."""

    def __init__(self, vals: np.ndarray):
        self.n = int(vals.size)
        # a stable sort leaves each symbol's positions in ascending order;
        # slicing beats np.split on the many columns with few sub-runs
        order = np.argsort(vals, kind="stable")
        srt = vals[order]
        bounds = [0, *(np.flatnonzero(srt[1:] != srt[:-1]) + 1).tolist(), self.n]
        pos1 = order + 1
        self.pos: dict[int, np.ndarray] = {
            int(srt[a]): pos1[a:b] for a, b in zip(bounds, bounds[1:]) if a < b}

    def rank(self, c: int, x: int) -> int:
        """Occurrences of c among positions 1..x."""
        arr = self.pos.get(c)
        if arr is None:
            return 0
        return int(np.searchsorted(arr, x, side="right"))

    def select(self, c: int, k: int) -> int:
        """Position of the k-th occurrence of c (k >= 1); n+1 past the last."""
        if k < 1:
            raise ValueError(f"select index {k} < 1")
        arr = self.pos.get(c)
        if arr is None or k > arr.size:
            return self.n + 1
        return int(arr[k - 1])


def _lex_order(p: Panel) -> np.ndarray:
    keys = [tuple(int(s) for s in r) for r in p.rows]
    return np.array(sorted(range(1, p.h + 1), key=lambda i: keys[i - 1]), np.int64)


@dataclass
class PrefixSearchIndex:
    step: StepIndex                    # forward side populated
    pa_at_start: list[np.ndarray]      # per column: PA entry at each sub-run start
    rank_at_start: list[np.ndarray]    # per column: own-symbol rank at sub-run start
    sorted_rows: bool
    orig_ids: np.ndarray | None        # sorted position -> original row id
    sigma_public: int
    rank_select: list[SymbolPositions] = field(init=False, repr=False)

    def __post_init__(self):
        self.rank_select = [SymbolPositions(fc.vals) for fc in self.step.fore_cols]

    @property
    def h(self) -> int:
        return self.step.h

    @property
    def w(self) -> int:
        return self.step.w

    @property
    def terminator_mode(self) -> bool:
        return self.step.terminator is not None

    def sym_at_start(self, j: int) -> np.ndarray:
        return self.step.fore_cols[j - 1].vals

    # -- rank/select over the per-column symbol arrays -----------------------

    def rank_sym(self, j: int, c: int, x: int) -> int:
        return self.rank_select[j - 1].rank(c, x)

    def select_sym(self, j: int, c: int, k: int) -> int:
        return self.rank_select[j - 1].select(c, k)

    # -- queries --------------------------------------------------------------

    def partial_prefix_search(self, pattern) -> tuple[int, int, int]:
        """Longest shared prefix length, its row count, and a witness row id.

        The witness is the smallest id among matching rows (of the sorted
        panel when built with sorted_rows). An empty longest prefix reports
        (0, h, 1). Patterns use the public alphabet; symbols outside it never
        match, and the ragged-mode terminator is not addressable at all.
        """
        pat = [int(c) for c in pattern]
        if any(c < 0 for c in pat):
            raise ValueError("pattern symbols must be non-negative")
        if self.terminator_mode:
            pat = [c + 1 for c in pat]
        st = self.step
        m_eff = min(len(pat), st.w)
        b, e = 1, int(st.col_lens[0])
        x, xp = 1, st.fore_cols[0].starts.size
        witness = int(self.pa_at_start[0][0])
        j = 1
        full = False
        while j <= m_eff:
            c = pat[j - 1]
            if c >= st.sigma:
                break
            fc = st.fore_cols[j - 1]
            rs = self.rank_select[j - 1]
            # first occurrence of c at or after b within [b, e]
            if int(fc.vals[x - 1]) == c:
                bt, xt, moved = b, x, False
            else:
                xt = rs.select(c, rs.rank(c, x) + 1)
                if xt > rs.n:
                    break
                bt = int(fc.starts[xt - 1])
                if bt > e:
                    break
                moved = True
            # last occurrence of c within [b, e]
            if int(fc.vals[xp - 1]) == c:
                et, xtp = e, xp
            else:
                xtp = rs.select(c, rs.rank(c, xp))
                et = st.fore_subrun_end(j, xtp)
            if moved:
                witness = int(self.pa_at_start[j - 1][xt - 1])
            if j < m_eff:
                b, x = st.fore_step(bt, j, xt)
                e, xp = st.fore_step(et, j, xtp)
            else:
                b, x, e, xp = bt, xt, et, xtp
                full = True
            j += 1
        m_prime = j - 1
        if m_prime == 0:
            return 0, self.h, 1
        if full:
            fc = st.fore_cols[m_eff - 1]
            count1 = int(self.rank_at_start[m_eff - 1][x - 1]) + b - int(fc.starts[x - 1])
            count2 = int(self.rank_at_start[m_eff - 1][xp - 1]) + e - int(fc.starts[xp - 1])
            return m_prime, count2 - count1 + 1, witness
        return m_prime, e - b + 1, witness

    def prefix_search_sorted(self, pattern) -> tuple[int, tuple[int, int]]:
        """Longest shared prefix length and the sorted-row interval carrying it."""
        if not self.sorted_rows:
            raise ValueError("index was not built over sorted rows")
        m_prime, occ, witness = self.partial_prefix_search(pattern)
        return m_prime, (witness, witness + occ - 1)

    def enumerate_prefixed(self, pattern) -> tuple[int, list[int]]:
        """Longest shared prefix length and the original ids of all rows
        carrying it, in sorted-position order."""
        if self.orig_ids is None:
            raise ValueError("index was not built with the id permutation")
        m_prime, (lo, hi) = self.prefix_search_sorted(pattern)
        return m_prime, [int(self.orig_ids[t - 1]) for t in range(lo, hi + 1)]


def assemble_prefix_index(pc, step: StepIndex, sorted_rows: bool,
                          orig_ids: np.ndarray | None,
                          sigma_public: int) -> PrefixSearchIndex:
    """Sample the prefix array and each symbol's running count at every
    forward sub-run start of ``step``."""
    pa_at_start, rank_at_start = [], []
    for j, fc in enumerate(step.fore_cols, 1):
        at = fc.starts - 1
        pa_at_start.append(pc.pas[j - 1][at].astype(np.int64))
        rank_at_start.append(kernels.occ_column(pc.cols[j - 1], pc.sigma)[at])
    return PrefixSearchIndex(step=step, pa_at_start=pa_at_start,
                             rank_at_start=rank_at_start, sorted_rows=sorted_rows,
                             orig_ids=orig_ids, sigma_public=sigma_public)


def sort_panel(p: Panel) -> tuple[Panel, np.ndarray]:
    """Lexicographically sorted copy plus the sorted-position -> id map."""
    orig_ids = _lex_order(p)
    return Panel(rows=[p.rows[i - 1] for i in orig_ids], sigma=p.sigma,
                 ragged=p.ragged), orig_ids


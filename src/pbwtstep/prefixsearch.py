"""Prefix search over a haplotype panel in run-compressed space.

The index adds the prefix-array entry at every forward sub-run start to the
step index, which supplies each sub-run's symbol and that symbol's running
count. Rank/select over the per-column symbol arrays then locates the
first/last occurrence of a pattern symbol inside the current match interval,
and forward steps advance both ends in O(1).

A query returns the longest prefix of the pattern shared with any row, how
many rows carry it, and the smallest such row id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .panel import Panel
from .pbwt import internal_matrix
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


@dataclass
class PrefixSearchIndex:
    step: StepIndex
    pa_at_start: np.ndarray            # row at each fore sub-run start (sorted position if sorted)
    orig_ids: np.ndarray | None        # sorted position -> original row id; None when unsorted
    rank_select: list[SymbolPositions] = field(init=False, repr=False)

    def __post_init__(self):
        """Check the samples against the step index; build rank/select."""
        pa, h = self.pa_at_start, self.step.h
        if pa.size != self.step.fore_starts.size or ((pa < 1) | (pa > h)).any():
            raise ValueError("prefix-array samples do not fit the step index")
        ids = self.orig_ids
        if ids is not None and (ids.size != h or
                                not np.array_equal(np.sort(ids), np.arange(1, h + 1))):
            raise ValueError("stored row ids are not a permutation of 1..h")
        self.rank_select = [SymbolPositions(fc.vals) for fc in self.step.fore_cols]

    @property
    def h(self) -> int:
        return self.step.h

    @property
    def w(self) -> int:
        return self.step.w

    @property
    def sorted_rows(self) -> bool:
        return self.orig_ids is not None

    @property
    def sigma_public(self) -> int:
        """Alphabet size of the panel, without the ragged-mode terminator."""
        return self.step.sigma - self.step.ragged

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
        if self.step.ragged:
            pat = [c + 1 for c in pat]
        st = self.step
        m_eff = min(len(pat), st.w)
        b, e = 1, int(st.col_lens[0])
        x, xp = 1, st.fore_cols[0].starts.size
        witness = int(self.pa_at_start[0])
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
                witness = int(self.pa_at_start[st.fore_first[j - 1] + xt - 1])
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
            count1 = int(fc.rank_at_start[x - 1]) + b - int(fc.starts[x - 1])
            count2 = int(fc.rank_at_start[xp - 1]) + e - int(fc.starts[xp - 1])
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
        return m_prime, self.orig_ids[lo - 1:hi].tolist()


def assemble_prefix_index(pc, step: StepIndex,
                          orig_ids: np.ndarray | None) -> PrefixSearchIndex:
    """Sample the prefix array at every forward sub-run start of ``step``, as
    int64 like ``load_index``, so built and loaded indexes hold the same dtypes.
    The samples are file row ids; a sorted index (``orig_ids``: file ids in
    sorted order) numbers rows by sorted position, so it maps them through the
    inverse permutation, which is the argsort of ``orig_ids``."""
    samples = [pa[fc.starts - 1] for pa, fc in zip(pc.pas, step.fore_cols)]
    pa_at_start = np.concatenate(samples).astype(np.int64)
    if orig_ids is not None:
        pa_at_start = np.argsort(orig_ids)[pa_at_start - 1] + 1
    return PrefixSearchIndex(step=step, pa_at_start=pa_at_start, orig_ids=orig_ids)


def sort_panel(p: Panel) -> np.ndarray:
    """The order of a sorted index, not a sorted panel: the 1-based row ids in
    lexicographic row order, ties in file order; a ragged row's terminator and
    padding sort it before its extensions."""
    return np.lexsort(internal_matrix(p).T[::-1]) + 1

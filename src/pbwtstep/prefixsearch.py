"""Prefix search over a haplotype panel in run-compressed space.

The index adds the prefix-array entry at every forward sub-run start to the
step index, which supplies each sub-run's symbol and forward image. Bisects
over its flat (column, symbol, position) order locate the first/last
occurrence of a pattern symbol inside the current match interval, and
forward steps on the flat tables advance both ends in O(1); in the last
column the distance of the ends' images counts the symbol's rows between.

A query returns the longest prefix of the pattern shared with any row, how
many rows carry it, and the smallest such row id.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .panel import Panel
from .pbwt import internal_matrix
from .stepindex import StepIndex, run_starts


class _ColumnRankSelect:
    """Rank/select over column j's fore sub-run symbols, for the benchmark's probe."""

    def __init__(self, step: StepIndex, j: int):
        self.run, self.by_symbol = partial(step.symbol_run, j), step.mv.by_symbol
        self.first = step.mv.fore_first[j - 1]
        self.n = step.mv.fore_first[j] - self.first

    def rank(self, c: int, x: int) -> int:
        """Occurrences of c among positions 1..x."""
        a, b = self.run(c)
        return bisect_right(self.by_symbol, self.first + x - 1, a, b) - a

    def select(self, c: int, k: int) -> int:
        """Position of the k-th occurrence of c (k >= 1); n+1 past the last."""
        if k < 1:
            raise ValueError(f"select index {k} < 1")
        a, b = self.run(c)
        return self.by_symbol[a + k - 1] - self.first + 1 if k <= b - a else self.n + 1


@dataclass
class PrefixSearchIndex:
    step: StepIndex
    pa_at_start: np.ndarray            # row at each fore sub-run start (sorted position if sorted)
    orig_ids: np.ndarray | None        # sorted position -> original row id; None when unsorted

    def __post_init__(self):
        """Check the samples and the ids against the step index."""
        pa, h = self.pa_at_start, self.step.h
        if pa.size != self.step.fore_starts.size or ((pa < 1) | (pa > h)).any():
            raise ValueError("prefix-array samples do not fit the step index")
        ids = self.orig_ids
        if ids is not None and (ids.size != h or
                                not np.array_equal(np.sort(ids), np.arange(1, h + 1))):
            raise ValueError("stored row ids are not a permutation of 1..h")
        self._pa = memoryview(pa)

    @cached_property
    def rank_select(self) -> list[_ColumnRankSelect]:
        return [_ColumnRankSelect(self.step, j) for j in range(1, self.step.w + 1)]

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
        st = self.step
        if st.ragged:
            pat = [c + 1 for c in pat]
        m = st.mv
        sym, start, end, delta, lam, by_sym = (m.fore_vals, m.fore_starts, m.fore_ends,
                                               m.fore_delta, m.fore_lam, m.by_symbol)
        m_eff = min(len(pat), st.w)
        # rows b..e of the current column match pat[:j]; they lie in flat sub-runs g..gp
        b, e, g, gp, j, witness = 1, st.h, 0, m.fore_first[1] - 1, 0, self._pa[0]
        while j < m_eff:
            c = pat[j]
            if c >= st.sigma:
                break
            if sym[g] != c or sym[gp] != c:
                lo, hi = st.symbol_run(j + 1, c)
            if sym[g] != c:
                # the first sub-run of c at or after g must start inside the interval
                p = bisect_left(by_sym, g, lo, hi)
                if p == hi or start[by_sym[p]] > e:
                    break
                g = by_sym[p]
                b = start[g]
                witness = self._pa[g]
            if sym[gp] != c:
                # the last sub-run of c at or before gp; g holds c, so there is one
                gp = by_sym[bisect_right(by_sym, gp, lo, hi) - 1]
                e = end[gp] - 1
            j += 1
            if j < m_eff:
                b += delta[g]
                g = lam[g]
                while end[g] <= b:
                    g += 1
                e += delta[gp]
                gp = lam[gp]
                while end[gp] <= e:
                    gp += 1
        if j == 0:
            return 0, st.h, 1
        if j == m_eff:
            # b and e hold c in the pattern's last column, and the c rows between
            # them step to consecutive rows
            return j, e + delta[gp] - b - delta[g] + 1, witness
        return j, e - b + 1, witness

    def row_ids(self, witness: int, occ: int) -> list[int]:
        """Original ids of the ``occ`` sorted rows from position ``witness`` on."""
        if self.orig_ids is None:
            raise ValueError("index was not built with the id permutation")
        if not 1 <= witness < witness + occ <= self.orig_ids.size + 1:
            raise ValueError(f"rows {witness}..{witness + occ - 1} out of range")
        return self.orig_ids[witness - 1:witness + occ - 1].tolist()


def assemble_prefix_index(pc, step: StepIndex,
                          orig_ids: np.ndarray | None) -> PrefixSearchIndex:
    """The prefix-array entry at every forward sub-run start of ``step``, from
    the rows ``pc.run_rows`` that the build keeps at run starts, in the step
    tables' dtype like ``load_index``, so built and loaded indexes hold the
    same dtypes.

    A sub-run that starts inside a run was pulled back from a sub-run start
    of the next column, so its start steps to the start of sub-run
    ``fore_lam[g]`` and holds that one's row (the toehold lemma of Gagie,
    Navarro and Prezza, JACM 2020). Column w's sub-runs are all runs, so
    following ``fore_lam`` ends at a run start; pointer doubling gets there
    in about log2 of the longest chain's length in gathers. The samples are
    file row ids; a sorted index (``orig_ids``: file ids in sorted order)
    numbers rows by sorted position, so it maps them through the inverse
    permutation, the argsort of ``orig_ids``."""
    dt = step.fore_starts.dtype
    run_start = run_starts(step.fore_vals, step.fore_first)
    at_run = np.flatnonzero(run_start)
    ptr = step.fore_lam.copy()
    ptr[at_run] = at_run
    for _ in range(step.w):             # a chain crosses fewer than w columns
        if run_start[ptr].all():
            break
        ptr = ptr[ptr]                  # each round doubles the distance followed
    rows = np.zeros_like(ptr)           # 0, refused as a sample, off the run starts
    rows[at_run] = np.concatenate(pc.run_rows)
    pa_at_start = rows[ptr]
    if orig_ids is not None:
        pa_at_start = (np.argsort(orig_ids)[pa_at_start - 1] + 1).astype(dt)
        orig_ids = orig_ids.astype(dt)
    return PrefixSearchIndex(step=step, pa_at_start=pa_at_start, orig_ids=orig_ids)


def sort_panel(p: Panel) -> np.ndarray:
    """The order of a sorted index, not a sorted panel: the 1-based row ids in
    lexicographic row order, ties in file order; a ragged row's terminator and
    padding sort it before its extensions. Each row of the unsigned
    ``internal_matrix``, laid out in big-endian bytes, is one byte string that
    compares as the row does, so one stable argsort orders them."""
    mat = internal_matrix(p)
    rows = np.ascontiguousarray(mat, mat.dtype.newbyteorder(">"))
    return np.argsort(rows.view((np.void, rows[0].nbytes)).ravel(), kind="stable") + 1

"""Constant-time forward/backward stepping over sub-runs: a move structure.

The index stores each column's sub-run starts and the fore sub-runs'
symbols. ``assemble_step_index`` derives the rest, for both
``build_step_index`` and ``io.load_index``, as tables kept flat over all
columns and indexed by a 0-based flat sub-run number, column j holding
``fore_first[j-1]`` up to ``fore_first[j]``: move tables as in Nishimoto and
Tabei (ICALP 2021), laid out flat as in Brown, Gagie and Rossi ("RLBWT
tricks", SEA 2022). Fore sub-run g maps row t to ``t + fore_delta[g]``, in
sub-run ``fore_lam[g]`` or one of the two after it; ``fore_ends`` (one past
each sub-run's last row) stops that advance in the column. Back sub-run g
overlaps at most three pieces, the images of the previous column's back
sub-runs, from ``first_piece[g]`` on. ``by_symbol`` orders the fore sub-runs
by (column, symbol, position) for rank/select. Queries read the tables
through the memoryviews in ``mv``, which return Python ints; ``fore_cols``
and ``back_cols`` are lazy per-column views for the benchmark's table probe.

The assembly raises ValueError unless the arrays describe a valid index that
meets the paper's bounds (fewer than ``2*total_runs`` sub-runs per side, at
most three overlaps per image), so no step can fail on a file that loaded.
Queries take and return 1-based (row, sub-run) pairs, so steps chain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .pbwt import PbwtColumns


@dataclass
class StepIndex:
    h: int
    w: int
    sigma: int                         # internal alphabet size
    ragged: bool                       # rows end in the terminator, internal symbol 0
    col_lens: np.ndarray               # per-column height (h everywhere when fixed)
    fore_starts: np.ndarray            # stored: every column's fore sub-run starts in turn
    fore_vals: np.ndarray              # stored: their symbols
    total_runs: int
    fore_first: np.ndarray             # each column's first flat sub-run, then the count
    fore_ends: np.ndarray              # one past each sub-run's last row
    fore_rank: np.ndarray              # count of its symbol in the column up to its start
    fore_delta: np.ndarray             # image of the start in the next column minus the start
    fore_lam: np.ndarray               # flat next-column sub-run holding that image
    fore_nq: np.ndarray                # next-column sub-runs the image overlaps; 0 where no step
    by_symbol: np.ndarray              # flat fore sub-runs by (column, symbol, position)
    sym_first: np.ndarray              # each column's first entry in sym_vals, then the count
    sym_vals: np.ndarray               # each column's distinct fore symbols, ascending
    sym_offsets: np.ndarray            # where each sym_vals entry's sub-runs begin in by_symbol
    back_starts: np.ndarray | None = None   # stored: back sub-run starts; None when fore-only
    back_first: np.ndarray | None = None
    back_ends: np.ndarray | None = None
    back_vals: np.ndarray | None = None
    back_nq: np.ndarray | None = None       # pieces each sub-run overlaps; 0 in column 1
    first_piece: np.ndarray | None = None   # flat index of the first of them
    piece_starts: np.ndarray | None = None  # every column's pieces in turn, ascending
    piece_ends: np.ndarray | None = None
    piece_shift: np.ndarray | None = None   # source row minus piece row
    piece_src: np.ndarray | None = None     # flat back sub-run each piece is the image of

    def __post_init__(self):
        self.mv = SimpleNamespace(**{k: memoryview(v) for k, v in vars(self).items()
                                     if isinstance(v, np.ndarray)})

    # per-column slices for the benchmark's table probe; no query reads them
    @cached_property
    def fore_cols(self) -> list[SimpleNamespace]:
        f = self.fore_first.tolist()
        return [SimpleNamespace(starts=self.fore_starts[a:b], vals=self.fore_vals[a:b],
                                nquints=self.fore_nq[a:b] if j < self.w else None)
                for j, (a, b) in enumerate(zip(f, f[1:]), 1)]

    @cached_property
    def back_cols(self) -> list[SimpleNamespace] | None:
        if self.back_starts is None:
            return None
        f = self.back_first.tolist()
        return [SimpleNamespace(starts=self.back_starts[a:b],
                                nquads=self.back_nq[a:b] if j > 1 else None)
                for j, (a, b) in enumerate(zip(f, f[1:]), 1)]

    # -- locate helpers (queries proper take the sub-run index as input) ----

    def find_back_subrun(self, j: int, i: int) -> int:
        a = self.mv.back_first[j - 1]
        return bisect_right(self.mv.back_starts, i, a, self.mv.back_first[j]) - a

    def find_fore_subrun(self, j: int, i: int) -> int:
        a = self.mv.fore_first[j - 1]
        return bisect_right(self.mv.fore_starts, i, a, self.mv.fore_first[j]) - a

    def fore_subrun_end(self, j: int, x: int) -> int:
        return self.mv.fore_ends[self.mv.fore_first[j - 1] + x - 1] - 1

    def symbol_run(self, j: int, c: int) -> tuple[int, int]:
        """The slice of ``by_symbol`` that lists column j's sub-runs of symbol c."""
        m = self.mv
        end = m.sym_first[j]
        k = bisect_left(m.sym_vals, c, m.sym_first[j - 1], end)
        if k < end and m.sym_vals[k] == c:
            return m.sym_offsets[k], m.sym_offsets[k + 1]
        return 0, 0

    # -- queries -------------------------------------------------------------

    def back_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, back sub-run x) of column j to column j-1."""
        if self.back_starts is None or not 2 <= j <= self.w:
            raise ValueError(f"no backward step from column {j}")
        m = self.mv
        p = m.first_piece[_locate(m.back_first, m.back_starts, m.back_ends, i, j, x, "back")]
        while m.piece_ends[p] <= i:
            p += 1
        return i + m.piece_shift[p], m.piece_src[p] - m.back_first[j - 2] + 1

    def fore_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, fore sub-run x) of column j to column j+1."""
        if not 1 <= j < self.w:
            raise ValueError(f"no forward step from column {j}")
        m = self.mv
        g = _locate(m.fore_first, m.fore_starts, m.fore_ends, i, j, x, "fore")
        if m.fore_vals[g] < self.ragged:
            raise ValueError(f"no forward step from terminator sub-run {x} of column {j}")
        t, g = i + m.fore_delta[g], m.fore_lam[g]
        while m.fore_ends[g] <= t:
            g += 1
        return t, g - m.fore_first[j] + 1

    def symbol_at_back(self, j: int, x: int) -> int:
        return self.mv.back_vals[self.mv.back_first[j - 1] + x - 1]

    def symbol_at_fore(self, j: int, x: int) -> int:
        return self.mv.fore_vals[self.mv.fore_first[j - 1] + x - 1]

    def stored_words(self) -> int:
        """Integers the index file stores for stepping."""
        back = 0 if self.back_starts is None else self.back_starts.size
        return self.col_lens.size + 2 * self.fore_starts.size + back


def _locate(first, starts, ends, i: int, j: int, x: int, side: str) -> int:
    """Flat index of sub-run x of column j; raises unless row i lies in it."""
    g = first[j - 1] + x - 1
    if not (1 <= x <= first[j] - first[j - 1] and starts[g] <= i < ends[g]):
        raise ValueError(f"row {i} outside {side} sub-run {x} of column {j}")
    return g


def _split_columns(starts: np.ndarray, col_lens: np.ndarray, side: str):
    """Each flat start's column, each column's first flat index then the count,
    and one past each sub-run's last row. A column's starts begin at 1, which
    marks the boundaries, and strictly increase."""
    first = np.flatnonzero(starts == 1)
    if first.size != col_lens.size or first[:1].any():
        raise ValueError(f"{side} sub-run starts do not split into {col_lens.size} columns")
    col = np.cumsum(starts == 1) - 1
    first = np.append(first, starts.size)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[first[1:] - 1] = col_lens + 1
    if (ends <= starts).any():
        raise ValueError(f"{side} sub-run starts not increasing inside their column")
    return col, first, ends


def assemble_step_index(h: int, w: int, sigma: int, ragged: bool,
                        col_lens, fore_starts, fore_vals, back_starts) -> StepIndex:
    """Derive the step tables from the stored arrays, which hold every
    column's sub-runs in turn (``back_starts`` is None for a fore-only index);
    raises ValueError when they do not describe a valid index."""
    col_lens, fs, fv = (np.asarray(a, dtype=np.int64) for a in (col_lens, fore_starts, fore_vals))
    # the limits keep the global row positions below inside int64
    if not (h >= 1 and w >= 1 and 1 <= sigma < 2**62 and h * w < 2**62):
        raise ValueError(f"dimensions out of range: h={h} w={w} sigma={sigma}")
    if col_lens.size != w or int(col_lens[0]) != h or fv.size != fs.size:
        raise ValueError("array sizes do not match the dimensions")
    fcol, ffirst, fends = _split_columns(fs, col_lens, "fore")
    if ((fv < 0) | (fv >= sigma)).any():
        raise ValueError("fore sub-run symbol outside the alphabet")
    lo = int(ragged)
    if not np.array_equal(col_lens[1:], np.add.reduceat((fends - fs) * (fv >= lo),
                                                        ffirst[:-1])[:-1]):
        raise ValueError("column lengths differ from the rows stepping into them")
    base = np.cumsum(col_lens) - col_lens          # row i of column j sits at base[j-1] + i
    fglob = base[fcol] + fs
    # fore_rank, the images and rank/select: one stable sort on (column, symbol)
    order = np.lexsort((fv, fcol))
    scol, ssym, slen = fcol[order], fv[order], (fends - fs)[order]
    group = np.append(True, (scol[1:] != scol[:-1]) | (ssym[1:] != ssym[:-1]))
    offsets = np.flatnonzero(group)
    excl = np.cumsum(slen) - slen
    rank = np.empty_like(fs)
    rank[order] = excl - excl[offsets][np.cumsum(group) - 1] + 1
    slive = slen * (ssym >= lo)                    # terminators sort first and add nothing
    simage = np.cumsum(slive) - slive
    simage -= simage[ffirst[:-1]][scol] - 1
    del fcol, excl, group, slive
    # the next column's sub-runs under each image, searched in sort order,
    # where the images ascend
    ssteps = np.flatnonzero((ssym >= lo) & (scol < w - 1))
    tb = base[scol[ssteps] + 1] + simage[ssteps]
    first = np.searchsorted(fglob, tb, side="right") - 1
    nq = np.searchsorted(fglob, tb + slen[ssteps] - 1, side="right") - first
    if (nq > 3).any():
        raise ValueError("a fore sub-run's image overlaps more than 3 sub-runs")
    steps = order[ssteps]
    delta, lam, fore_nq = np.zeros_like(fs), np.zeros_like(fs), np.zeros(fs.size, np.int8)
    delta[steps], lam[steps], fore_nq[steps] = simage[ssteps] - fs[steps], first, nq
    sym_first, sym_vals = np.searchsorted(scol[offsets], np.arange(w + 1)), ssym[offsets]
    del scol, ssym, slen, simage, ssteps, tb, first, nq, steps
    run_start = np.append(True, fv[1:] != fv[:-1])
    run_start[ffirst[:-1]] = True
    total_runs = int(run_start.sum())
    if fs.size >= 2 * total_runs:
        raise ValueError(f"{fs.size} fore sub-runs, not fewer than 2*total_runs")
    back = {}
    if back_starts is not None:
        bs = np.asarray(back_starts, dtype=np.int64)
        bcol, bfirst, bends = _split_columns(bs, col_lens, "back")
        if bs.size >= 2 * total_runs:
            raise ValueError(f"{bs.size} back sub-runs, not fewer than 2*total_runs")
        bglob = base[bcol] + bs
        if not np.isin(fglob[run_start], bglob).all():
            raise ValueError("a run boundary is not a back sub-run start")
        # each back sub-run lies in one run, so the fore sub-run holding its
        # start gives its symbol and the shift of its contiguous image
        k = np.searchsorted(fglob, bglob, side="right") - 1
        bvals = fv[k]
        src = np.flatnonzero((bvals >= lo) & (bcol < w - 1))
        pglob = base[bcol[src] + 1] + bs[src] + delta[k[src]]
        porder = np.argsort(pglob, kind="stable")
        pglob, src = pglob[porder], src[porder]
        piece_starts = pglob - base[bcol[src] + 1]
        # the pieces tile columns 2..w, so they split like sub-runs and the
        # searches below stay in the column
        _, _, piece_ends = _split_columns(piece_starts, col_lens[1:], "piece")
        t = int(bfirst[1])
        first = np.searchsorted(pglob, bglob[t:], side="right") - 1
        nq = np.searchsorted(pglob, base[bcol[t:]] + bends[t:] - 1, side="right") - first
        if (nq > 3).any():
            raise ValueError("a back sub-run overlaps more than 3 pieces")
        first_piece, back_nq = np.zeros_like(bs), np.zeros(bs.size, np.int8)
        first_piece[t:], back_nq[t:] = first, nq
        back = dict(back_starts=bs, back_first=bfirst, back_ends=bends, back_vals=bvals,
                    back_nq=back_nq, first_piece=first_piece, piece_starts=piece_starts,
                    piece_ends=piece_ends, piece_shift=bs[src] - piece_starts, piece_src=src)
    return StepIndex(h=h, w=w, sigma=sigma, ragged=ragged, col_lens=col_lens, fore_starts=fs,
                     fore_vals=fv, total_runs=total_runs, fore_first=ffirst, fore_ends=fends,
                     fore_rank=rank, fore_delta=delta, fore_lam=lam, fore_nq=fore_nq,
                     by_symbol=order, sym_first=sym_first, sym_vals=sym_vals,
                     sym_offsets=np.append(offsets, fs.size), **back)


def build_step_index(pc: PbwtColumns, fore_lists: list[np.ndarray],
                     back_lists: list[np.ndarray]) -> StepIndex:
    """Step tables from built sub-run lists, one start array per column;
    backward tables only when ``back_lists`` is non-empty. Only the starts and
    the fore sub-runs' symbols are read, and ``assemble_step_index`` derives
    the rest."""
    vals = [col[s - 1] for col, s in zip(pc.cols, fore_lists)]
    back = np.concatenate(back_lists) if back_lists else None
    return assemble_step_index(pc.h, pc.w, pc.sigma, pc.ragged,
                               [col.size for col in pc.cols], np.concatenate(fore_lists),
                               np.concatenate(vals), back)

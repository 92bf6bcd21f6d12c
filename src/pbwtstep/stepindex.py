"""Constant-time forward/backward stepping over sub-runs: a move structure.

The index stores each column's sub-run starts and the fore sub-runs'
symbols. ``assemble_step_index`` derives the rest, for both
``build_step_index`` and ``io.load_index``, as tables kept flat over all
columns and indexed by a 0-based flat sub-run number, column j holding
``fore_first[j-1]`` up to ``fore_first[j]``: move tables as in Nishimoto and
Tabei (ICALP 2021), laid out flat as in Brown, Gagie and Rossi ("RLBWT
tricks", SEA 2022). Fore sub-run g maps row t to ``t + fore_delta[g]``, in
sub-run ``fore_lam[g]`` or one of the two after it; ``fore_ends`` (one past
each sub-run's last row) stops that advance in the column. ``fore_delta``
covers every live sub-run of every column, column w's images landing in a
virtual column w+1, so the rows of one symbol between two positions of any
column count as the distance of their images. Back sub-run g overlaps at
most three pieces, the images of the previous column's back sub-runs, from
``first_piece[g]`` on. ``by_symbol`` orders the fore sub-runs by (column,
symbol, position) for rank/select, one radix sort in ``fore_shift``, in
which the images tile columns 2..w. Queries read the tables through the
memoryviews in ``mv``, which return Python ints; ``fore_cols`` and
``back_cols`` are lazy per-column views for the benchmark's table probe.

Every table is one dtype, ``table_dtype``: int32 when the global row numbers
and the symbols fit it, int64 otherwise, as move tables store only the bits
positions need; the two overlap counts are int8. The assembly raises
ValueError unless the arrays describe a valid index that meets the paper's
bounds (fewer than ``2*total_runs`` sub-runs per side, at most three overlaps
per image), so no step can fail on a file that loaded. Queries take and
return 1-based (row, sub-run) pairs, so steps chain. ``extract`` retrieves a
whole row from the fore tables alone, one forward step per column.
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
    piece_ends: np.ndarray | None = None    # one past each piece's last row, column by column
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

    def _span(self, side: str, j: int, k: int, rows: bool) -> tuple[int, int]:
        """Column j's flat ``side`` sub-runs a..b-1, after checking row or sub-run k."""
        first = getattr(self.mv, side + "_first", None)
        if first is None or not 1 <= j <= self.w:
            raise ValueError(f"no {side} sub-runs in column {j}")
        a, b = first[j - 1], first[j]
        if not 1 <= k <= (self.mv.col_lens[j - 1] if rows else b - a):
            raise ValueError(f"{'row' if rows else 'sub-run'} {k} out of range in column {j}")
        return a, b

    def find_back_subrun(self, j: int, i: int) -> int:
        a, b = self._span("back", j, i, True)
        return bisect_right(self.mv.back_starts, i, a, b) - a

    def find_fore_subrun(self, j: int, i: int) -> int:
        a, b = self._span("fore", j, i, True)
        return bisect_right(self.mv.fore_starts, i, a, b) - a

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
        a, _ = self._span("back", j, x, False)
        return self.mv.back_vals[a + x - 1]

    def symbol_at_fore(self, j: int, x: int) -> int:
        a, _ = self._span("fore", j, x, False)
        return self.mv.fore_vals[a + x - 1]

    def extract(self, i: int) -> list[int]:
        """Reconstruct row i from the forward-stepping tables alone. Column 1
        of the prefix array is the identity, so a predecessor search over
        column 1's sub-run starts locates row i's first sub-run; then one
        symbol read and one forward step per column reproduce the row. In
        ragged mode the output stops before the terminator, so ragged rows
        come back at their true lengths."""
        m, shift = self.mv, int(self.ragged)
        sym, delta, lam, end = m.fore_vals, m.fore_delta, m.fore_lam, m.fore_ends
        g, out = self.find_fore_subrun(1, i) - 1, []
        for _ in range(self.w - 1):
            c = sym[g]
            if c < shift:
                return out
            out.append(c - shift)
            i += delta[g]
            g = lam[g]
            while end[g] <= i:
                g += 1
        c = sym[g]
        if c >= shift:
            out.append(c - shift)
        return out

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


def table_dtype(col_lens, sigma: int) -> type:
    """The dtype of every step table: int32 when the global row numbers, up
    to the total of the column lengths plus one, and the symbols fit it."""
    return np.int32 if sum(np.asarray(col_lens).tolist()) + 1 < 2**31 and sigma < 2**31 \
        else np.int64


def narrow(a, dtype) -> np.ndarray:
    """``a`` as ``dtype``; raises ValueError for an element that the cast
    would wrap."""
    a, info = np.asarray(a), np.iinfo(dtype)
    if not np.can_cast(a.dtype, dtype) and a.size and (int(a.max()) > info.max or
                                                       int(a.min()) < info.min):
        raise ValueError(f"array element outside {np.dtype(dtype)}")
    return a.astype(dtype, copy=False)


def split_columns(starts: np.ndarray, col_lens: np.ndarray, side: str):
    """Each flat start's column, each column's first flat index then the count
    (both intp, for indexing), and one past each sub-run's last row. A
    column's starts begin at 1, which marks the boundaries, and strictly
    increase."""
    first = np.flatnonzero(starts == 1)
    if first.size != col_lens.size or first[:1].any():
        raise ValueError(f"{side} sub-run starts do not split into {col_lens.size} columns")
    first = np.append(first, starts.size)
    col = np.repeat(np.arange(col_lens.size), np.diff(first))
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[first[1:] - 1] = col_lens + 1
    if (ends <= starts).any():
        raise ValueError(f"{side} sub-run starts not increasing inside their column")
    return col, first, ends


def run_starts(fore_vals, fore_first) -> np.ndarray:
    """Which flat fore sub-runs start a run: a column's first sub-run, and
    every sub-run whose symbol differs from the one before it."""
    run_start = np.append(True, fore_vals[1:] != fore_vals[:-1])
    run_start[fore_first[:-1]] = True
    return run_start


def fore_shift(starts, lens, sym, col, first, lo: int):
    """The forward map of parts that each lie in one run, listed column by
    column (``col``: each part's 0-based column; ``first``: each column's
    first part, then the count). A part of symbol c at s goes to C[c] +
    rank_c(s), so one stable sort on (column, symbol), of the key column *
    (max symbol + 1) + symbol in its narrowest unsigned dtype (numpy's radix
    sort up to 16 bits; ``lexsort`` past int64), lays the images out in
    order; parts below ``lo`` (terminators) sort first and have no image.
    Returns that order, the 1-based image starts in it, and each part's
    shift, image start minus start (0 on a terminator)."""
    m, n = int(sym.max(initial=0)) + 1, first.size - 1      # every key is below n * m
    key = col * m if n * m <= 2**63 else None               # symbols added in place below
    order = np.lexsort((sym, col)) if key is None else np.argsort(np.add(
        key, sym, out=key, dtype=np.int64).astype(np.min_scalar_type(n * m - 1)), kind="stable")
    del key
    live = sym[order] >= lo
    slive = lens[order] * live
    image = np.cumsum(slive, dtype=lens.dtype) - slive
    image -= image[first[:-1]][col] - 1     # the order keeps each part in its column
    delta = np.zeros_like(starts)
    delta[order] = (image - starts[order]) * live
    return order, image, delta


def _overlaps(ref, s, message: str):
    """First ref sub-run and overlap count of the intervals at global starts ``s``, which tile
    ref's rows in order, each ending a row before the next: one search per start. Refuses > 3."""
    first = np.searchsorted(ref, s, side="right") - 1
    nq = np.append(first[1:] - (ref[first[1:]] == s[1:]), ref.size - 1)[:s.size] - first + 1
    if (nq > 3).any():
        raise ValueError(message)
    return first, nq


def assemble_step_index(h: int, w: int, sigma: int, ragged: bool,
                        col_lens, fore_starts, fore_vals, back_starts) -> StepIndex:
    """Derive the step tables from the stored arrays, which hold every
    column's sub-runs in turn (``back_starts`` is None for a fore-only index);
    raises ValueError when they do not describe a valid index. Every table is
    ``table_dtype``; the sorts' and searches' outputs stay intp, which numpy
    gathers with directly, until they are stored."""
    # the limits keep the global row positions below inside int64
    if not (h >= 1 and w >= 1 and 1 <= sigma < 2**62 and h * w < 2**62):
        raise ValueError(f"dimensions out of range: h={h} w={w} sigma={sigma}")
    dt = table_dtype(col_lens, sigma)
    col_lens, fs, fv = (narrow(a, dt) for a in (col_lens, fore_starts, fore_vals))
    if col_lens.size != w or int(col_lens[0]) != h or fv.size != fs.size:
        raise ValueError("array sizes do not match the dimensions")
    fcol, ffirst, fends = split_columns(fs, col_lens, "fore")
    if ((fv < 0) | (fv >= sigma)).any():
        raise ValueError("fore sub-run symbol outside the alphabet")
    lo = int(ragged)
    if not np.array_equal(col_lens[1:], np.add.reduceat((fends - fs) * (fv >= lo),
                                                        ffirst[:-1])[:-1]):
        raise ValueError("column lengths differ from the rows stepping into them")
    base = np.cumsum(col_lens, dtype=dt) - col_lens    # row i of column j sits at base[j-1] + i
    fglob = base[fcol] + fs
    # the images and rank/select share one stable sort on (column, symbol);
    # every live sub-run has an image, column w's in a virtual column w+1
    order, simage, delta = fore_shift(fs, fends - fs, fv, fcol, ffirst, lo)
    ssym = fv[order]                            # fcol is also the sorted parts' column
    offsets = np.flatnonzero(np.append(True, (fcol[1:] != fcol[:-1]) | (ssym[1:] != ssym[:-1])))
    # in sort order the images tile columns 2..w, the last ending in column w's last
    ssteps = np.flatnonzero((ssym >= lo) & (fcol < w - 1))
    simage = base[fcol[ssteps] + 1] + simage[ssteps]     # now the steps' global images
    first, nq = _overlaps(fglob, simage, "a fore sub-run's image overlaps more than 3 sub-runs")
    del simage
    steps = order[ssteps]
    del ssteps
    lam, fore_nq = np.zeros_like(fs), np.zeros(fs.size, np.int8)
    lam[steps], fore_nq[steps] = first, nq
    del steps, first, nq
    sym_first, sym_vals = np.searchsorted(fcol[offsets], np.arange(w + 1)), ssym[offsets]
    del fcol, ssym
    by_symbol, sym_offsets = order.astype(dt), np.append(offsets, fs.size).astype(dt)
    del order, offsets
    run_start = run_starts(fv, ffirst)
    total_runs = int(run_start.sum())
    if fs.size >= 2 * total_runs:
        raise ValueError(f"{fs.size} fore sub-runs, not fewer than 2*total_runs")
    back = {}
    if back_starts is not None:
        bs = narrow(back_starts, dt)
        bcol, bfirst, bends = split_columns(bs, col_lens, "back")
        if bs.size >= 2 * total_runs:
            raise ValueError(f"{bs.size} back sub-runs, not fewer than 2*total_runs")
        bglob = base[bcol] + bs
        # each run start must be a back start (one at most), so each back sub-run lies in a run
        k = np.searchsorted(fglob, bglob, side="right") - 1
        if np.count_nonzero(run_start[k[fglob[k] == bglob]]) < total_runs:
            raise ValueError("a run boundary is not a back sub-run start")
        bvals = fv[k]
        del k
        # so each live back sub-run has a contiguous image, a piece, which
        # fore_shift lays out as it does the fore sub-runs' images
        order, image, _ = fore_shift(bs, bends - bs, bvals, bcol, bfirst, lo)
        live = np.flatnonzero((bvals[order] >= lo) & (bcol < w - 1))
        src, piece_starts = order[live], image[live]
        del order, image, live
        pglob = base[bcol[src] + 1] + piece_starts
        # the pieces tile columns 2..w, as back sub-runs t on do, so they split like them
        _, _, piece_ends = split_columns(piece_starts, col_lens[1:], "piece")
        t = int(bfirst[1])
        first, nq = _overlaps(pglob, bglob[t:], "a back sub-run overlaps more than 3 pieces")
        del fglob, bglob, bcol, pglob
        first_piece, back_nq = np.zeros_like(bs), np.zeros(bs.size, np.int8)
        first_piece[t:], back_nq[t:] = first, nq
        back = dict(back_starts=bs, back_first=bfirst.astype(dt), back_ends=bends,
                    back_vals=bvals, back_nq=back_nq, first_piece=first_piece,
                    piece_ends=piece_ends, piece_shift=bs[src] - piece_starts,
                    piece_src=src.astype(dt))
    return StepIndex(h=h, w=w, sigma=sigma, ragged=ragged, col_lens=col_lens, fore_starts=fs,
                     fore_vals=fv, total_runs=total_runs, fore_first=ffirst.astype(dt),
                     fore_ends=fends, fore_delta=delta, fore_lam=lam, fore_nq=fore_nq,
                     by_symbol=by_symbol, sym_first=sym_first.astype(dt), sym_vals=sym_vals,
                     sym_offsets=sym_offsets, **back)


def build_step_index(pc: PbwtColumns, fore_lists: list[np.ndarray],
                     back_lists: list[np.ndarray]) -> StepIndex:
    """Step tables from built sub-run lists, one start array per column;
    backward tables only when ``back_lists`` is non-empty. Only the starts and
    the fore sub-runs' symbols are read, joined straight into the table dtype,
    and ``assemble_step_index`` derives the rest."""
    col_lens = [col.size for col in pc.cols]
    dt = table_dtype(col_lens, pc.sigma)
    vals = [col[s - 1] for col, s in zip(pc.cols, fore_lists)]
    back = np.concatenate(back_lists, dtype=dt) if back_lists else None
    return assemble_step_index(pc.h, pc.w, pc.sigma, pc.ragged, col_lens,
                               np.concatenate(fore_lists, dtype=dt),
                               np.concatenate(vals, dtype=dt), back)

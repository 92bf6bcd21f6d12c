"""Constant-time forward/backward stepping over sub-runs: a move structure.

The index stores each column's sub-run starts and the fore sub-runs'
symbols. ``assemble_step_index`` derives the rest for the whole index at
once, from flat arrays concatenated across columns, for both
``build_step_index`` and ``io.load_index``:

* forward: fore sub-run x of column j maps row i to
  ``t = i - starts[x] + image_b[x]``, with ``image_b = C_j[c] + rank_at_start``
  (symbols below c plus the rank of c); t lies in next-column sub-run
  ``first_lam[x]`` or one of the two after it;
* backward: column j's pieces are the forward images of column j-1's back
  sub-runs, by start (``piece_b``, ``piece_src``); back sub-run x overlaps
  at most three of them from ``first_piece[x]`` on.

The assembly raises ValueError unless the arrays describe a valid index
that meets the paper's bounds (fewer than ``2*total_runs`` sub-runs per
side, at most three overlaps per image), so no step can fail on a file that
loaded. Queries take and return (row, sub-run index) pairs, so steps chain
across columns without any lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbwt import PbwtColumns


@dataclass
class ForeStepColumn:
    starts: np.ndarray                 # left endpoints of the column's fore sub-runs
    vals: np.ndarray                   # symbol of each sub-run
    rank_at_start: np.ndarray          # occurrences of that symbol up to the start
    image_b: np.ndarray | None         # image of each start in column j+1; None in the last column
    first_lam: np.ndarray | None       # next-column sub-run holding image_b (1-based)
    nquints: np.ndarray | None         # next-column sub-runs the image overlaps; 0 on terminators


@dataclass
class BackStepColumn:
    starts: np.ndarray                 # left endpoints of the column's back sub-runs
    vals: np.ndarray
    first_piece: np.ndarray | None     # first piece each sub-run overlaps (0-based); None in column 1
    nquads: np.ndarray | None          # pieces each sub-run overlaps
    piece_b: np.ndarray | None         # piece starts, ascending
    piece_src: np.ndarray | None       # column j-1 back sub-run each piece is the image of


@dataclass
class StepIndex:
    h: int
    w: int
    sigma: int                         # internal alphabet size
    ragged: bool                       # rows end in the terminator, internal symbol 0
    col_lens: np.ndarray               # per-column height (h everywhere when fixed)
    fore_starts: np.ndarray            # stored: every column's fore sub-run starts in turn
    fore_vals: np.ndarray              # stored: their symbols
    back_starts: np.ndarray | None     # stored: back sub-run starts; None when fore-only
    fore_first: list[int]              # flat index of each column's first fore sub-run
    total_runs: int
    fore_cols: list[ForeStepColumn]
    back_cols: list[BackStepColumn] | None

    # -- locate helpers (queries proper take the sub-run index as input) ----

    def find_back_subrun(self, j: int, i: int) -> int:
        return int(np.searchsorted(self.back_cols[j - 1].starts, i, side="right"))

    def find_fore_subrun(self, j: int, i: int) -> int:
        return int(np.searchsorted(self.fore_cols[j - 1].starts, i, side="right"))

    def _subrun_end(self, starts: np.ndarray, j: int, x: int) -> int:
        return int(starts[x]) - 1 if x < starts.size else int(self.col_lens[j - 1])

    def back_subrun_end(self, j: int, x: int) -> int:
        return self._subrun_end(self.back_cols[j - 1].starts, j, x)

    def fore_subrun_end(self, j: int, x: int) -> int:
        return self._subrun_end(self.fore_cols[j - 1].starts, j, x)

    def _require_inside(self, starts: np.ndarray, i: int, j: int, x: int, side: str) -> None:
        if not (1 <= x <= starts.size and starts[x - 1] <= i <= self._subrun_end(starts, j, x)):
            raise ValueError(f"row {i} outside {side} sub-run {x} of column {j}")

    # -- queries -------------------------------------------------------------

    def back_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, back sub-run x) of column j to column j-1."""
        if self.back_cols is None or not 2 <= j <= self.w:
            raise ValueError(f"no backward step from column {j}")
        bc = self.back_cols[j - 1]
        self._require_inside(bc.starts, i, j, x, "back")
        pb = bc.piece_b
        p = int(bc.first_piece[x - 1])
        while p + 1 < pb.size and pb[p + 1] <= i:
            p += 1
        src = int(bc.piece_src[p])
        return i - int(pb[p]) + int(self.back_cols[j - 2].starts[src - 1]), src

    def fore_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, fore sub-run x) of column j to column j+1."""
        if not 1 <= j < self.w:
            raise ValueError(f"no forward step from column {j}")
        fc = self.fore_cols[j - 1]
        self._require_inside(fc.starts, i, j, x, "fore")
        if fc.nquints[x - 1] == 0:
            raise ValueError(f"no forward step from terminator sub-run {x} of column {j}")
        t = i - int(fc.starts[x - 1]) + int(fc.image_b[x - 1])
        lam = int(fc.first_lam[x - 1])
        nxt = self.fore_cols[j].starts
        while lam < nxt.size and nxt[lam] <= t:
            lam += 1
        return t, lam

    def symbol_at_back(self, j: int, x: int) -> int:
        return int(self.back_cols[j - 1].vals[x - 1])

    def symbol_at_fore(self, j: int, x: int) -> int:
        return int(self.fore_cols[j - 1].vals[x - 1])

    def stored_words(self) -> int:
        """Integers the index file stores for stepping."""
        back = 0 if self.back_starts is None else self.back_starts.size
        return self.col_lens.size + 2 * self.fore_starts.size + back


def _split_columns(starts: np.ndarray, col_lens: np.ndarray, side: str):
    """Column of each flat sub-run start, each column's first flat index, and
    the sub-run lengths. Each column's starts begin at 1, which is what marks
    the column boundaries, and must strictly increase within the column."""
    first = np.flatnonzero(starts == 1)
    if first.size != col_lens.size or first[0] != 0:
        raise ValueError(f"{side} sub-run starts do not split into {col_lens.size} columns")
    col = np.cumsum(starts == 1) - 1
    ends = np.empty_like(starts)                   # one past each sub-run's last row
    ends[:-1] = starts[1:]
    ends[np.append(first[1:], starts.size) - 1] = col_lens + 1
    lens = ends - starts
    if (lens < 1).any():
        raise ValueError(f"{side} sub-run starts not increasing inside their column")
    return col, first, lens


def assemble_step_index(h: int, w: int, sigma: int, ragged: bool,
                        col_lens, fore_starts, fore_vals, back_starts) -> StepIndex:
    """Derive the step arrays from the stored ones and check them.

    ``fore_starts``/``fore_vals``/``back_starts`` hold every column's sub-runs
    in turn (``back_starts`` is None for a fore-only index). Raises
    ValueError when they do not describe a valid index.
    """
    col_lens, fs, fv = (np.asarray(a, dtype=np.int64) for a in (col_lens, fore_starts, fore_vals))
    # the limits keep the global row positions below inside int64
    if not (h >= 1 and w >= 1 and 1 <= sigma < 2**62 and h * w < 2**62):
        raise ValueError(f"dimensions out of range: h={h} w={w} sigma={sigma}")
    if col_lens.size != w or int(col_lens[0]) != h or fv.size != fs.size:
        raise ValueError("array sizes do not match the dimensions")
    fcol, ffirst, flen = _split_columns(fs, col_lens, "fore")
    if ((fv < 0) | (fv >= sigma)).any():
        raise ValueError("fore sub-run symbol outside the alphabet")
    lo = int(ragged)
    live = fv >= lo
    if not np.array_equal(col_lens[1:], np.add.reduceat(flen * live, ffirst)[:-1]):
        raise ValueError("column lengths differ from the rows stepping into them")
    base = np.cumsum(col_lens) - col_lens          # row i of column j sits at base[j-1] + i
    fglob = base[fcol] + fs

    # rank_at_start and image_b: one stable sort on (column, symbol)
    order = np.lexsort((fv, fcol))
    slen, scol, ssym = flen[order], fcol[order], fv[order]
    group = np.ones(fs.size, bool)
    group[1:] = (scol[1:] != scol[:-1]) | (ssym[1:] != ssym[:-1])
    excl = np.cumsum(slen) - slen
    rank = np.empty_like(fs)
    rank[order] = excl - excl[np.flatnonzero(group)][np.cumsum(group) - 1] + 1
    slive = slen * (ssym >= lo)                    # terminators sort first and add nothing
    lexcl = np.cumsum(slive) - slive
    simage = lexcl - lexcl[ffirst][scol] + 1

    # first_lam and nquints: the next column's sub-runs under each image,
    # searched in sort order, where the images ascend
    ssteps = np.flatnonzero((ssym >= lo) & (scol < w - 1))
    tb = base[scol[ssteps] + 1] + simage[ssteps]
    first = np.searchsorted(fglob, tb, side="right") - 1
    last = np.searchsorted(fglob, tb + slen[ssteps] - 1, side="right") - 1
    if (last - first >= 3).any():
        raise ValueError("a fore sub-run's image overlaps more than 3 sub-runs")
    steps = order[ssteps]
    image, first_lam, nquints = np.zeros_like(fs), np.zeros_like(fs), np.zeros_like(fs)
    image[steps] = simage[ssteps]
    first_lam[steps] = first - ffirst[scol[ssteps] + 1] + 1
    nquints[steps] = last - first + 1

    run_start = np.ones(fs.size, bool)
    run_start[1:] = fv[1:] != fv[:-1]
    run_start[ffirst] = True
    total_runs = int(run_start.sum())
    if fs.size >= 2 * total_runs:
        raise ValueError(f"{fs.size} fore sub-runs, not fewer than 2*total_runs")

    fb = np.append(ffirst, fs.size).tolist()
    fore_cols = [ForeStepColumn(fs[a:b], fv[a:b], rank[a:b], image[a:b], first_lam[a:b],
                                nquints[a:b]) for a, b in zip(fb[:-2], fb[1:-1])]
    a = fb[-2]
    fore_cols.append(ForeStepColumn(fs[a:], fv[a:], rank[a:], None, None, None))

    bs, back_cols = None, None
    if back_starts is not None:
        bs = np.asarray(back_starts, dtype=np.int64)
        bcol, bfirst, blen = _split_columns(bs, col_lens, "back")
        if bs.size >= 2 * total_runs:
            raise ValueError(f"{bs.size} back sub-runs, not fewer than 2*total_runs")
        bglob = base[bcol] + bs
        if not np.isin(fglob[run_start], bglob).all():
            raise ValueError("a run boundary is not a back sub-run start")
        # each back sub-run lies in one run, so the fore sub-run holding its
        # start gives its symbol and the start of its contiguous image
        k = np.searchsorted(fglob, bglob, side="right") - 1
        bvals = fv[k]
        src = np.flatnonzero((bvals >= lo) & (bcol < w - 1))
        pglob = base[bcol[src] + 1] + image[k[src]] + bs[src] - fs[k[src]]
        porder = np.argsort(pglob, kind="stable")
        pglob, src = pglob[porder], src[porder]
        pcol = bcol[src] + 1
        pb = np.searchsorted(pcol, np.arange(w + 1))
        piece_b = pglob - base[pcol]
        piece_src = src - bfirst[bcol[src]] + 1
        # the pieces tile columns 2..w, so these searches stay in the column
        tail = np.flatnonzero(bcol > 0)
        first = np.searchsorted(pglob, bglob[tail], side="right") - 1
        last = np.searchsorted(pglob, bglob[tail] + blen[tail] - 1, side="right") - 1
        nquads = last - first + 1
        if (nquads > 3).any():
            raise ValueError("a back sub-run overlaps more than 3 pieces")
        first_piece, nq = np.zeros_like(bs), np.zeros_like(bs)
        first_piece[tail] = first - pb[bcol[tail]]
        nq[tail] = nquads

        bb, pb = np.append(bfirst, bs.size).tolist(), pb.tolist()
        back_cols = [BackStepColumn(bs[:bb[1]], bvals[:bb[1]], None, None, None, None)]
        for j in range(1, w):
            a, b = bb[j], bb[j + 1]
            back_cols.append(BackStepColumn(bs[a:b], bvals[a:b], first_piece[a:b], nq[a:b],
                                            piece_b[pb[j]:pb[j + 1]],
                                            piece_src[pb[j]:pb[j + 1]]))

    return StepIndex(h=h, w=w, sigma=sigma, ragged=ragged, col_lens=col_lens,
                     fore_starts=fs, fore_vals=fv, back_starts=bs, fore_first=fb[:-1],
                     total_runs=total_runs, fore_cols=fore_cols, back_cols=back_cols)


def build_step_index(pc: PbwtColumns, fore_lists: list[np.ndarray],
                     back_lists: list[np.ndarray]) -> StepIndex:
    """Step tables from built sub-run lists, one start array per column.

    Backward tables are built only when ``back_lists`` is non-empty. Only
    the lists' starts and the fore sub-runs' symbols are read; the rest is
    derived by ``assemble_step_index``.
    """
    vals = [col[s - 1] for col, s in zip(pc.cols, fore_lists)]
    back = np.concatenate(back_lists) if back_lists else None
    return assemble_step_index(pc.h, pc.w, pc.sigma, pc.ragged,
                               [col.size for col in pc.cols], np.concatenate(fore_lists),
                               np.concatenate(vals), back)

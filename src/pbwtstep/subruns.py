"""Per-column sub-run partitions for constant-time stepping.

A partition of column j's positions ``[1..n_j]`` is the ascending int64 array
of its 1-based starts. Two families are built per column: one for backward
steps (splitting each column's runs against the forward image of the
previous column's list) and one for forward steps (splitting each column's
forward run image against the next column's list, then pulling the pieces
back). Both stay below twice the total run count, and every run start is a
sub-run start, so no sub-run crosses a run boundary.

A forward image is the LF-mapping: a part of symbol c at s goes to
C[c] + rank_c(s), so sorting the parts stably by symbol lays their images
out in order, each one past the rows of the parts before it. In ragged mode
terminator parts sort first and have no image; they are left out of the
images and carried through the forward-stepping lists unchanged.
"""

from __future__ import annotations

import numpy as np

from .pbwt import PbwtColumns


def normalize(starts: np.ndarray, n: int, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the parts of a partition of [1..n] so that each piece overlaps at
    most three intervals of the partition ``ref``.

    A part overlapping ref intervals qa..qb is cut at the ends of ref
    intervals qa+2, qa+5, ..., so its pieces start at its own start and at
    ``ref[qa+3]``, ``ref[qa+6]``, ...: ``(qb-qa)//3`` cuts, at most
    floor(len(ref)/2) in all. Returns the piece starts and, per piece, the
    0-based index of the part it came from.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ref = np.asarray(ref, dtype=np.int64)
    ends = np.append(starts[1:] - 1, n)
    qa = np.searchsorted(ref, starts, side="right") - 1
    cuts = (np.searchsorted(ref, ends, side="right") - 1 - qa) // 3
    src = np.repeat(np.arange(starts.size), cuts + 1)
    first = np.cumsum(cuts + 1) - (cuts + 1)        # each part's first piece
    t = np.arange(src.size) - first[src]            # piece number within its part
    pieces = np.where(t == 0, starts[src], ref[qa[src] + 3 * t])
    return pieces, src


def fore_image(pc: PbwtColumns, j: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward image of column-j sub-runs that each lie inside one run.

    Returns the image starts in column j+1, ascending, and the starts of the
    live sub-runs (those off the terminator) in the same order. The images
    partition column j+1, because the forward map is a bijection from the
    live rows that shifts each run's rows by one offset.
    """
    if not 1 <= j < pc.w:
        raise ValueError(f"column {j} has no forward image")
    sym = pc.cols[j - 1][starts - 1]
    # terminator parts sort first and drop out
    order = np.argsort(sym, kind="stable")[np.count_nonzero(sym < pc.ragged):]
    lens = (np.append(starts[1:], pc.col_len(j) + 1) - starts)[order]
    return np.cumsum(lens) - lens + 1, starts[order]


def build_back_subruns(pc: PbwtColumns) -> list[np.ndarray]:
    """Backward-stepping sub-runs: column 1 keeps its runs; afterwards each
    column's runs are normalized against the forward image of the previous
    list."""
    lists = [pc.runs_at(1)]
    for j in range(2, pc.w + 1):
        image, _ = fore_image(pc, j - 1, lists[-1])
        lists.append(normalize(pc.runs_at(j), pc.col_len(j), image)[0])
    return lists


def build_fore_subruns(pc: PbwtColumns) -> list[np.ndarray]:
    """Forward-stepping sub-runs: the last column keeps its runs; walking
    left, each column's forward run image is normalized against the next
    list and the pieces pulled back (terminator runs pass through).

    Within a run the forward map is a shift, so a piece starting at p inside
    the image of run r pulls back to ``run_start[r] + p - image_start[r]``.
    """
    w = pc.w
    lists: list[np.ndarray] = [pc.runs_at(w)] * w
    for j in range(w - 1, 0, -1):
        runs = pc.runs_at(j)
        image, live = fore_image(pc, j, runs)
        pieces, src = normalize(image, pc.col_len(j + 1), lists[j])
        dead = runs[pc.cols[j - 1][runs - 1] < pc.ragged]
        lists[j - 1] = np.sort(np.concatenate((live[src] + pieces - image[src], dead)))
    return lists


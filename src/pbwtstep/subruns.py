"""Per-column sub-run partitions for constant-time stepping.

A partition of column j's positions ``[1..n_j]`` is the ascending int64 array
of its 1-based starts. Two families are built per column: one for backward
steps (cutting each column's runs against the forward image of the previous
column's list) and one for forward steps (cutting each column's run images
against the next column's list, then pulling the cuts back). Both stay below
twice the total run count, and every run start is a sub-run start, so no
sub-run crosses a run boundary.

Both builders read one flat pass over all runs, ``run_shifts``, which a build
runs once for both: within a run the forward map is a shift, so a live run's
image starts at its start plus its shift. Ragged terminator runs have no image
and are never cut; a reference list of at most three sub-runs cuts nothing.
"""

from __future__ import annotations

import numpy as np

from .pbwt import PbwtColumns
from .stepindex import fore_shift, split_columns


def normalize(bounds: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cuts that split parts so that each piece overlaps at most three
    intervals of the partition with starts ``ref``; ``bounds`` holds each
    part's first and last position, interleaved.

    A part overlapping ref intervals qa..qb is cut at the ends of ref
    intervals qa+2, qa+5, ..., so its pieces start at its own start and at
    ``ref[qa+3]``, ``ref[qa+6]``, ...: ``(qb-qa)//3`` cuts, at most
    floor(len(ref)/2) in all. Returns each part's cut count and the cuts,
    part by part, ascending.
    """
    q = np.searchsorted(ref, bounds, side="right")
    k = (q[1::2] - q[::2]) // 3
    if not k.any():
        return k, ref[:0]
    c = np.cumsum(k)
    return k, ref[np.repeat(q[::2] - 3 * (c - k), k) + np.arange(2, 3 * c[-1], 3)]


def run_shifts(pc: PbwtColumns):
    """Every run, flat over the columns, through one ``fore_shift`` pass that
    both builders take: each column's first run then the count, and per run
    its start, last position, liveness and shift; then every column's live run
    images in turn, ascending, and each column's first one among them."""
    starts = np.concatenate(pc.runs)
    col, first, ends = split_columns(starts, np.array([c.size for c in pc.cols]), "run")
    sym = np.concatenate([c[r - 1] for c, r in zip(pc.cols, pc.runs)])
    order, image, delta = fore_shift(starts, ends - starts, sym, col, first, int(pc.ragged))
    live = sym >= pc.ragged
    at = np.append(0, np.cumsum(live))[first].tolist()
    return first.tolist(), starts, ends - 1, live, delta, image[live[order]], at


def build_back_subruns(pc: PbwtColumns, shifts) -> list[np.ndarray]:
    """Backward-stepping sub-runs from ``shifts = run_shifts(pc)``: column 1
    keeps its runs; walking right, each column's runs are cut against the
    forward image of the previous list: that column's live run images while
    its list is its runs, else each live sub-run's start plus its run's shift."""
    first, starts, ends, live, delta, images, at = shifts
    bounds = np.stack((starts, ends), 1).ravel()
    lists = list(pc.runs)
    for j in range(1, pc.w):
        if lists[j - 1] is pc.runs[j - 1]:
            ref = images[at[j - 1]:at[j]]
        else:
            r = np.searchsorted(pc.runs[j - 1], lists[j - 1], side="right") - 1 + first[j - 1]
            ref = np.sort((lists[j - 1] + delta[r])[live[r]])
        if ref.size > 3:
            _, cuts = normalize(bounds[2 * first[j]:2 * first[j + 1]], ref)
            if cuts.size:
                lists[j] = np.sort(np.concatenate((lists[j], cuts)))
    return lists


def build_fore_subruns(pc: PbwtColumns, shifts) -> list[np.ndarray]:
    """Forward-stepping sub-runs from ``shifts = run_shifts(pc)``: the last
    column keeps its runs; walking left, each column's run images are cut
    against the next list and the cuts pulled back by the run's shift. A
    terminator run gets a one-row stand-in image, which no list can cut."""
    first, starts, ends, live, delta, _, _ = shifts
    image = starts + delta
    bounds = np.stack((image, image + (ends - starts) * live), 1).ravel()
    lists = list(pc.runs)
    for j in range(pc.w - 1, 0, -1):
        if lists[j].size > 3:
            a, b = first[j - 1], first[j]
            k, cuts = normalize(bounds[2 * a:2 * b], lists[j])
            if cuts.size:
                cuts -= np.repeat(delta[a:b], k)
                lists[j - 1] = np.sort(np.concatenate((lists[j - 1], cuts)))
    return lists

"""Per-column sub-run partitions for constant-time stepping.

Two families are built per column: one for backward steps (splitting each
column's runs against the forward image of the previous column's list) and
one for forward steps (splitting each column's forward image against the next
column's list, then pulling the pieces back). Both stay below twice the total
run count.

In ragged mode, terminator sub-runs have no forward image; they are excluded
from the interval maps and carried through the forward-stepping lists
unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .normalize import normalize
from .panel import Interval, IntervalList
from .pbwt import PbwtColumns


@dataclass
class SubRunLists:
    """Sub-run partitions per column: back_lists[j-1] / fore_lists[j-1]."""

    back_lists: list[IntervalList]
    fore_lists: list[IntervalList]

    def total_back(self) -> int:
        return sum(len(lst) for lst in self.back_lists)

    def total_fore(self) -> int:
        return sum(len(lst) for lst in self.fore_lists)


def live_subruns(pc: PbwtColumns, j: int, items) -> list[Interval]:
    """Sub-runs of column j that have a forward image (all of them, unless a
    terminator is present)."""
    col, lo = pc.cols[j - 1], pc.steppable_from()
    return [iv for iv in items if col[iv.b - 1] >= lo]


def _check_within_run(pc: PbwtColumns, j: int, iv: Interval) -> None:
    run = pc.runs_at(j)
    if run[run.index_of(iv.b) - 1].e < iv.e:
        raise ValueError(f"interval {iv} spans a run boundary in column {j}")


def fore_map(pc: PbwtColumns, j: int, items) -> IntervalList:
    """Forward image of a list of column-j sub-runs, sorted by left endpoint.

    Images within one symbol class are already in order, so the classes are
    merged rather than sorted. ``sources`` maps each output interval to the
    1-based index of its preimage in ``items``.
    """
    if not 1 <= j < pc.w:
        raise ValueError(f"column {j} has no forward map")
    col = pc.cols[j - 1]
    fore = pc.fore_all(j)
    lo = pc.steppable_from()
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for idx, iv in enumerate(items, 1):
        c = int(col[iv.b - 1])
        if c < lo:
            raise ValueError(f"interval {iv} lies on a terminator run in column {j}")
        _check_within_run(pc, j, iv)
        groups.setdefault(c, []).append((int(fore[iv.b - 1]), int(fore[iv.e - 1]), idx))
    merged = list(heapq.merge(*groups.values()))
    return IntervalList([Interval(b, e) for b, e, _ in merged],
                        sources=[idx for _, _, idx in merged])


def back_map(pc: PbwtColumns, j: int, items, validate: bool = True) -> IntervalList:
    """Backward image of column-j sub-runs, sorted by left endpoint."""
    if not 1 < j <= pc.w:
        raise ValueError(f"column {j} has no backward map")
    pa = pc.pas[j - 1]
    pos = pc.row_pos(j - 1)
    imgs = []
    for idx, iv in enumerate(items, 1):
        bb = int(pos[pa[iv.b - 1]])
        ee = int(pos[pa[iv.e - 1]])
        if bb == 0 or ee == 0 or ee - bb != iv.e - iv.b:
            raise ValueError(f"interval {iv} is not a contiguous preimage at column {j - 1}")
        imgs.append((bb, ee, idx))
    imgs.sort()
    return IntervalList([Interval(b, e) for b, e, _ in imgs],
                        sources=[idx for _, _, idx in imgs], validate=validate)


def build_back_subruns(pc: PbwtColumns) -> list[IntervalList]:
    """Backward-stepping sub-runs: column 1 keeps its runs; afterwards each
    column's runs are normalized against the forward image of the previous
    list."""
    lists = [pc.runs_at(1)]
    for j in range(2, pc.w + 1):
        live = live_subruns(pc, j - 1, lists[-1])
        image = fore_map(pc, j - 1, live)
        lists.append(normalize(pc.runs_at(j), image))
    return lists


def build_fore_subruns(pc: PbwtColumns) -> list[IntervalList]:
    """Forward-stepping sub-runs: the last column keeps its runs; walking
    left, each column's forward run image is normalized against the next
    list and the pieces pulled back (terminator runs pass through)."""
    w = pc.w
    lists: list[IntervalList | None] = [None] * w
    lists[w - 1] = pc.runs_at(w)
    for j in range(w - 1, 0, -1):
        live = live_subruns(pc, j, pc.runs_at(j))
        image = fore_map(pc, j, live)
        refined = normalize(image, lists[j])
        pulled = back_map(pc, j + 1, refined.items, validate=False)
        dead = [iv for iv in pc.runs_at(j)
                if pc.cols[j - 1][iv.b - 1] < pc.steppable_from()]
        items = sorted(pulled.items + dead)
        lists[j - 1] = IntervalList(items)
    return lists  # type: ignore[return-value]


def build_subruns(pc: PbwtColumns) -> SubRunLists:
    return SubRunLists(back_lists=build_back_subruns(pc),
                       fore_lists=build_fore_subruns(pc))

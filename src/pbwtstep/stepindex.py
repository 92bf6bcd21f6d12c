"""Constant-time forward/backward stepping over sub-runs.

Per column, each backward sub-run stores at most three quadruples
(src_b, src_e, dst, dst_idx): the pieces of the previous column's forward
image that cover it, the backward target of each piece's left end, and the
index of the sub-run holding that target. Forward sub-runs store at most
three quintuples (start, image_b, dst_b, dst_e, dst_idx). A step is then one
probe of at most three tuples plus integer arithmetic; neither the panel, the
PBWT nor the prefix arrays are consulted.

Queries take and return (row, sub-run index) pairs so that steps can be
chained across columns without any lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbwt import PbwtColumns
from .subruns import SubRunLists, fore_map, live_subruns

TUPLE_CAP = 3  # inline capacity; the three-overlap constraint makes it exact


@dataclass
class BackStepColumn:
    starts: np.ndarray              # left endpoints of the column's back sub-runs
    vals: np.ndarray                # symbol of each sub-run
    quads: np.ndarray | None        # (n, 3, 4) int64; None in column 1
    nquads: np.ndarray | None


@dataclass
class ForeStepColumn:
    starts: np.ndarray
    vals: np.ndarray
    quints: np.ndarray | None       # (n, 3, 5) int64; None in the last column
    nquints: np.ndarray | None


@dataclass
class StepIndex:
    h: int
    w: int
    sigma: int                      # internal alphabet size
    total_runs: int
    terminator: int | None
    col_lens: np.ndarray            # per-column height (h everywhere when fixed)
    back_cols: list[BackStepColumn] | None
    fore_cols: list[ForeStepColumn]

    # -- locate helpers (queries proper take the sub-run index as input) ----

    def find_back_subrun(self, j: int, i: int) -> int:
        return int(np.searchsorted(self.back_cols[j - 1].starts, i, side="right"))

    def find_fore_subrun(self, j: int, i: int) -> int:
        return int(np.searchsorted(self.fore_cols[j - 1].starts, i, side="right"))

    def back_subrun_end(self, j: int, x: int) -> int:
        starts = self.back_cols[j - 1].starts
        return int(starts[x]) - 1 if x < starts.size else int(self.col_lens[j - 1])

    def fore_subrun_end(self, j: int, x: int) -> int:
        starts = self.fore_cols[j - 1].starts
        return int(starts[x]) - 1 if x < starts.size else int(self.col_lens[j - 1])

    # -- queries -------------------------------------------------------------

    def back_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, back sub-run x) of column j to column j-1."""
        bc = self.back_cols[j - 1]
        assert bc.quads is not None, f"no backward step from column {j}"
        assert bc.starts[x - 1] <= i <= self.back_subrun_end(j, x), \
            f"row {i} outside back sub-run {x} of column {j}"
        quads = bc.quads[x - 1]
        for k in range(int(bc.nquads[x - 1])):
            sb, se, dst, lam = quads[k]
            if sb <= i <= se:
                return int(i - sb + dst), int(lam)
        raise LookupError(f"no covering quadruple for row {i}, column {j}, sub-run {x}")

    def fore_step(self, i: int, j: int, x: int) -> tuple[int, int]:
        """Map (row i, fore sub-run x) of column j to column j+1."""
        fc = self.fore_cols[j - 1]
        assert fc.quints is not None, f"no forward step from column {j}"
        assert fc.starts[x - 1] <= i <= self.fore_subrun_end(j, x), \
            f"row {i} outside fore sub-run {x} of column {j}"
        quints = fc.quints[x - 1]
        nq = int(fc.nquints[x - 1])
        if nq == 0:
            raise LookupError(f"forward step undefined on terminator sub-run {x} of column {j}")
        start, img = int(quints[0, 0]), int(quints[0, 1])
        target = i - start + img
        for k in range(nq):
            _, _, db, de, lam = quints[k]
            if db <= target <= de:
                return target, int(lam)
        raise LookupError(f"no covering quintuple for row {i}, column {j}, sub-run {x}")

    def symbol_at_back(self, j: int, x: int) -> int:
        return int(self.back_cols[j - 1].vals[x - 1])

    def symbol_at_fore(self, j: int, x: int) -> int:
        return int(self.fore_cols[j - 1].vals[x - 1])

    def stored_words(self) -> int:
        """Integer slots actually used (padding excluded)."""
        total = 0
        if self.back_cols is not None:
            for bc in self.back_cols:
                total += 2 * bc.starts.size
                if bc.nquads is not None:
                    total += 4 * int(bc.nquads.sum())
        for fc in self.fore_cols:
            total += 2 * fc.starts.size
            if fc.nquints is not None:
                total += 5 * int(fc.nquints.sum())
        return total


def _overlap_walk(covers, targets):
    """Yield, per ``covers`` interval, the ``targets`` intervals overlapping it.

    Both are sorted partitions of the same range; one monotone pass total.
    Yields (cover_pos, [(target_interval, target_idx), ...]) with 1-based idx.
    """
    k = 0
    items = targets.items
    for pos, iv in enumerate(covers, 1):
        while items[k].e < iv.b:
            k += 1
        kk = k
        hits = []
        while True:
            hits.append((items[kk], kk + 1))
            if items[kk].e >= iv.e:
                break
            kk += 1
        k = kk
        yield pos, hits


def build_step_index(pc: PbwtColumns, sr: SubRunLists) -> StepIndex:
    """Populate the tuple tables from built sub-run lists.

    Backward tables are built only when ``sr.back_lists`` is non-empty;
    forward tables always are. The sub-run lists themselves are not needed
    afterwards; their boundaries survive as the per-column ``starts`` arrays.
    """
    w = pc.w
    col_lens = np.array([pc.col_len(j) for j in range(1, w + 1)], np.int64)

    back_cols = None
    if sr.back_lists:
        back_cols = []
        for j in range(1, w + 1):
            lst = sr.back_lists[j - 1]
            starts = lst.starts()
            vals = pc.cols[j - 1][starts - 1]
            if j == 1:
                back_cols.append(BackStepColumn(starts, vals, None, None))
                continue
            prev = sr.back_lists[j - 2]
            live, live_idx = live_subruns(pc, j - 1, prev)
            image = fore_map(pc, j - 1, live)
            quads = np.zeros((len(lst), TUPLE_CAP, 4), np.int64)
            nquads = np.zeros(len(lst), np.uint8)
            for pos, hits in _overlap_walk(lst.items, image):
                for iv, img_idx in hits:
                    lam = live_idx[image.sources[img_idx - 1] - 1]
                    dst = prev[lam - 1].b
                    slot = nquads[pos - 1]
                    assert slot < TUPLE_CAP, "three-overlap constraint violated"
                    quads[pos - 1, slot] = (iv.b, iv.e, dst, lam)
                    nquads[pos - 1] += 1
            back_cols.append(BackStepColumn(starts, vals, quads, nquads))

    fore_cols = []
    for j in range(1, w + 1):
        lst = sr.fore_lists[j - 1]
        starts = lst.starts()
        vals = pc.cols[j - 1][starts - 1]
        if j == w:
            fore_cols.append(ForeStepColumn(starts, vals, None, None))
            continue
        nxt = sr.fore_lists[j]
        live, live_idx = live_subruns(pc, j, lst)
        image = fore_map(pc, j, live)
        quints = np.zeros((len(lst), TUPLE_CAP, 5), np.int64)
        nquints = np.zeros(len(lst), np.uint8)
        for pos, hits in _overlap_walk(image.items, nxt):
            tau = live_idx[image.sources[pos - 1] - 1]
            start = lst[tau - 1].b
            img_b = image[pos - 1].b
            for iv, lam in hits:
                slot = nquints[tau - 1]
                assert slot < TUPLE_CAP, "three-overlap constraint violated"
                quints[tau - 1, slot] = (start, img_b, iv.b, iv.e, lam)
                nquints[tau - 1] += 1
        fore_cols.append(ForeStepColumn(starts, vals, quints, nquints))

    return StepIndex(h=pc.h, w=w, sigma=pc.sigma, total_runs=pc.total_runs,
                     terminator=pc.terminator, col_lens=col_lens,
                     back_cols=back_cols, fore_cols=fore_cols)

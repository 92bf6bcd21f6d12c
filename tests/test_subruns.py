import numpy as np
import pytest

from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.subruns import build_back_subruns, build_fore_subruns, fore_image, normalize

from conftest import pos_lookup_back, pos_lookup_fore, rand_panel


def _overlaps(b, e, ref):
    """Intervals of the partition with starts ``ref`` that [b, e] meets."""
    return int(np.count_nonzero((ref > b) & (ref <= e))) + 1


def _ends(starts, n):
    return np.append(starts[1:] - 1, n)


def test_fore_map_elementwise(rng):
    # on runs and on the finer back sub-run lists, fixed and ragged, every
    # part off the terminator maps onto the position lookup's block, and a
    # part on the terminator (lookup 0) has no image
    dead_parts = 0
    for ragged in (False, True):
        for _ in range(40):
            p = rand_panel(rng, h_max=12, ragged=ragged)
            pc = build_pbwt(p)
            fore_t, back = pos_lookup_fore(p), build_back_subruns(pc)
            for j in range(1, pc.w):
                for starts in (pc.runs_at(j), back[j - 1]):
                    image, live = fore_image(pc, j, starts)
                    assert image[0] == 1 and (np.diff(image) > 0).all()
                    alive = [s for s in starts.tolist() if fore_t[j - 1][s - 1]]
                    assert sorted(live.tolist()) == alive
                    dead_parts += starts.size - len(alive)
                    ends = dict(zip(starts.tolist(), _ends(starts, pc.col_len(j)).tolist()))
                    img_ends = _ends(image, pc.col_len(j + 1))
                    for b, e, s in zip(image.tolist(), img_ends.tolist(), live.tolist()):
                        assert (b, e) == (fore_t[j - 1][s - 1], fore_t[j - 1][ends[s] - 1])
    assert dead_parts


def test_fore_map_identity_on_identical_rows():
    pc = build_pbwt(Panel.from_strings(["11"] * 6))
    image, live = fore_image(pc, 1, np.array([1]))
    assert image.tolist() == [1] and live.tolist() == [1]
    with pytest.raises(ValueError, match="no forward image"):
        fore_image(pc, 2, np.array([1]))


def test_fore_pullback_lands_on_pieces(rng):
    # the forward step of every live fore sub-run start is a piece start of
    # the column's run image normalized against the next list
    for ragged in (False, True):
        for _ in range(40):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            lists = build_fore_subruns(pc)
            fore_t = pos_lookup_fore(p)
            for j in range(1, pc.w):
                image, _ = fore_image(pc, j, pc.runs_at(j))
                pieces = set(normalize(image, pc.col_len(j + 1), lists[j])[0].tolist())
                for s in lists[j - 1].tolist():
                    if fore_t[j - 1][s - 1]:        # 0 on a terminator
                        assert fore_t[j - 1][s - 1] in pieces


def test_back_map_inverts_fore_map(rng):
    # within a run the forward map is a shift, so position p of column j+1
    # pulls back to live[r] + p - image[r] for the run image r that holds it,
    # and the pulled-back pieces are the next fore list's column-j starts
    for ragged in (False, True):
        for _ in range(40):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            lists = build_fore_subruns(pc)
            back_t = pos_lookup_back(p)
            for j in range(1, pc.w):
                image, live = fore_image(pc, j, pc.runs_at(j))
                pos = np.arange(1, pc.col_len(j + 1) + 1)
                r = np.searchsorted(image, pos, side="right") - 1
                back = live[r] + pos - image[r]
                assert np.array_equal(back, back_t[j])
                pieces, src = normalize(image, pc.col_len(j + 1), lists[j])
                pulled = live[src] + pieces - image[src]
                assert np.isin(pulled, lists[j - 1]).all()


def test_build_back_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert [lst.tolist() for lst in build_back_subruns(pc)] == [[1]] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_back_subruns(pc)
        assert lists[0].tolist() == pc.runs_at(1).tolist()
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(2, pc.w + 1):
            image, _ = fore_image(pc, j - 1, lists[j - 2])
            col = pc.cols[j - 1]
            for b, e in zip(lists[j - 1].tolist(), _ends(lists[j - 1], pc.h).tolist()):
                assert _overlaps(b, e, image) <= 3
                # constant symbol within each sub-run
                assert len(set(col[b - 1:e].tolist())) == 1


def test_build_fore_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert [lst.tolist() for lst in build_fore_subruns(pc)] == [[1]] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_fore_subruns(pc)
        assert lists[pc.w - 1].tolist() == pc.runs_at(pc.w).tolist()
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(1, pc.w):
            # forward images of column-j sub-runs overlap <= 3 next-column sub-runs
            image, _ = fore_image(pc, j, lists[j - 1])
            for b, e in zip(image.tolist(), _ends(image, pc.h).tolist()):
                assert _overlaps(b, e, lists[j]) <= 3
            col = pc.cols[j - 1]
            for b, e in zip(lists[j - 1].tolist(), _ends(lists[j - 1], pc.h).tolist()):
                assert len(set(col[b - 1:e].tolist())) == 1


def test_subruns_partition_each_column(rng):
    for ragged in (False, True):
        for _ in range(30):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            back, fore = build_back_subruns(pc), build_fore_subruns(pc)
            for j in range(1, pc.w + 1):
                for lst in (back[j - 1], fore[j - 1]):
                    assert lst[0] == 1 and (np.diff(lst) > 0).all()
                    assert lst[-1] <= pc.col_len(j)
                    # each sub-run lies inside one run
                    assert np.isin(pc.runs_at(j), lst).all()


def test_ragged_bounds_hold(rng):
    for _ in range(40):
        p = rand_panel(rng, ragged=True)
        pc = build_pbwt(p)
        assert sum(map(len, build_back_subruns(pc))) < 2 * pc.total_runs
        assert sum(map(len, build_fore_subruns(pc))) < 2 * pc.total_runs

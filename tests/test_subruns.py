import pytest

from pbwtstep.panel import Interval, IntervalList, Panel
from pbwtstep.pbwt import build_pbwt, naive_back, naive_fore
from pbwtstep.normalize import overlap_count
from pbwtstep.subruns import (back_map, build_back_subruns, build_fore_subruns,
                              build_subruns, fore_map, live_subruns)

from conftest import fore_map_by_sorting, rand_panel


def test_fore_map_elementwise(rng):
    for _ in range(40):
        p = rand_panel(rng, h_max=12)
        pc = build_pbwt(p)
        for j in range(1, pc.w):
            runs = pc.runs_at(j)
            img = fore_map(pc, j, runs.items)
            img._check_partition()
            by_src = {src: iv for iv, src in zip(img.items, img.sources)}
            for k, run in enumerate(runs.items, 1):
                assert by_src[k] == Interval(naive_fore(pc, run.b, j),
                                             naive_fore(pc, run.e, j))


def test_fore_map_merge_equals_sort(rng):
    for _ in range(40):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        for j in range(1, pc.w):
            a = fore_map(pc, j, pc.runs_at(j).items)
            b = fore_map_by_sorting(pc, j, pc.runs_at(j).items)
            assert a == b and a.sources == b.sources


def test_fore_map_identity_on_identical_rows():
    pc = build_pbwt(Panel.from_strings(["11"] * 6))
    assert fore_map(pc, 1, [Interval(1, 6)]) == IntervalList([(1, 6)])


def test_fore_map_rejects_run_spanning_interval():
    pc = build_pbwt(Panel.from_strings(["01", "10", "00"]))
    with pytest.raises(ValueError, match="run boundary"):
        fore_map(pc, 1, [Interval(1, 3)])  # column 1 = 0,1,0


def test_back_map_inverts_fore_map(rng):
    for _ in range(40):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        for j in range(1, pc.w):
            runs = pc.runs_at(j)
            img = fore_map(pc, j, runs.items)
            back = back_map(pc, j + 1, img.items)
            assert back.items == runs.items
            for iv, src in zip(back.items, back.sources):
                assert iv == Interval(naive_back(pc, img[src - 1].b, j + 1),
                                      naive_back(pc, img[src - 1].e, j + 1))


def test_build_back_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert build_back_subruns(pc) == [IntervalList([(1, 5)])] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_back_subruns(pc)
        assert lists[0] == pc.runs_at(1)
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(2, pc.w + 1):
            live = live_subruns(pc, j - 1, lists[j - 2])
            image = fore_map(pc, j - 1, live)
            for iv in lists[j - 1].items:
                assert overlap_count(iv, image) <= 3
                # constant symbol within each sub-run
                col = pc.pbwt_col(j)
                assert len(set(col[iv.b - 1:iv.e].tolist())) == 1


def test_build_fore_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert build_fore_subruns(pc) == [IntervalList([(1, 5)])] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_fore_subruns(pc)
        assert lists[pc.w - 1] == pc.runs_at(pc.w)
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(1, pc.w):
            # forward images of column-j sub-runs overlap <= 3 next-column sub-runs
            live = live_subruns(pc, j, lists[j - 1])
            image = fore_map(pc, j, live)
            for iv in image.items:
                assert overlap_count(iv, lists[j]) <= 3
            for iv in lists[j - 1].items:
                col = pc.pbwt_col(j)
                assert len(set(col[iv.b - 1:iv.e].tolist())) == 1


def test_subruns_partition_each_column(rng):
    for ragged in (False, True):
        for _ in range(30):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            sr = build_subruns(pc)
            for j in range(1, pc.w + 1):
                for lst in (sr.back_lists[j - 1], sr.fore_lists[j - 1]):
                    lst._check_partition()
                    assert lst.n == pc.col_len(j)
                    # each sub-run lies inside one run
                    runs = pc.runs_at(j)
                    for iv in lst.items:
                        assert runs[runs.index_of(iv.b) - 1].e >= iv.e


def test_ragged_bounds_hold(rng):
    for _ in range(40):
        p = rand_panel(rng, ragged=True)
        pc = build_pbwt(p)
        sr = build_subruns(pc)
        assert sr.total_back() < 2 * pc.total_runs
        assert sr.total_fore() < 2 * pc.total_runs

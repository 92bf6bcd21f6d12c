import numpy as np
import pytest

import pbwtstep.subruns
from pbwtstep.io import build_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.prefixsearch import sort_panel
from pbwtstep.selftest import random_panel
from pbwtstep.subruns import build_back_subruns, build_fore_subruns, normalize, run_shifts

from conftest import (flat_fore_image, normalized_pieces, pos_lookup_back, pos_lookup_fore,
                      rand_panel, reference_back_subruns, reference_fore_subruns)


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
            fore_t, back = pos_lookup_fore(p), build_back_subruns(pc, run_shifts(pc))
            for j in range(1, pc.w):
                for starts in (pc.runs[j - 1], back[j - 1]):
                    image, live = flat_fore_image(pc, j, starts)
                    assert image[0] == 1 and (np.diff(image) > 0).all()
                    alive = [s for s in starts.tolist() if fore_t[j - 1][s - 1]]
                    assert sorted(live.tolist()) == alive
                    dead_parts += starts.size - len(alive)
                    ends = dict(zip(starts.tolist(), _ends(starts, pc.cols[j - 1].size).tolist()))
                    img_ends = _ends(image, pc.cols[j].size)
                    for b, e, s in zip(image.tolist(), img_ends.tolist(), live.tolist()):
                        assert (b, e) == (fore_t[j - 1][s - 1], fore_t[j - 1][ends[s] - 1])
    assert dead_parts


def test_fore_map_identity_on_identical_rows():
    pc = build_pbwt(Panel.from_strings(["11"] * 6))
    image, live = flat_fore_image(pc, 1, np.array([1]))
    assert image.tolist() == [1] and live.tolist() == [1]
    # the flat pass maps column w too, onto a virtual column w+1
    first, starts, _, live, delta, images, at = run_shifts(pc)
    assert first == [0, 1, 2] and delta.tolist() == [0, 0] and live.all()
    assert images.tolist() == [1, 1] and at == [0, 1, 2]


def test_fore_pullback_lands_on_pieces(rng):
    # the forward step of every live fore sub-run start is a piece start of
    # the column's run image normalized against the next list
    for ragged in (False, True):
        for _ in range(40):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            lists = build_fore_subruns(pc, run_shifts(pc))
            fore_t = pos_lookup_fore(p)
            for j in range(1, pc.w):
                image, _ = flat_fore_image(pc, j, pc.runs[j - 1])
                pieces = set(normalized_pieces(image, pc.cols[j].size, lists[j])[0].tolist())
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
            lists = build_fore_subruns(pc, run_shifts(pc))
            back_t = pos_lookup_back(p)
            for j in range(1, pc.w):
                image, live = flat_fore_image(pc, j, pc.runs[j - 1])
                pos = np.arange(1, pc.cols[j].size + 1)
                r = np.searchsorted(image, pos, side="right") - 1
                back = live[r] + pos - image[r]
                assert np.array_equal(back, back_t[j])
                pieces, src = normalized_pieces(image, pc.cols[j].size, lists[j])
                pulled = live[src] + pieces - image[src]
                assert np.isin(pulled, lists[j - 1]).all()


def test_build_back_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert [lst.tolist() for lst in build_back_subruns(pc, run_shifts(pc))] == [[1]] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_back_subruns(pc, run_shifts(pc))
        assert lists[0].tolist() == pc.runs[0].tolist()
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(2, pc.w + 1):
            image, _ = flat_fore_image(pc, j - 1, lists[j - 2])
            col = pc.cols[j - 1]
            for b, e in zip(lists[j - 1].tolist(), _ends(lists[j - 1], pc.h).tolist()):
                assert _overlaps(b, e, image) <= 3
                # constant symbol within each sub-run
                assert len(set(col[b - 1:e].tolist())) == 1


def test_build_fore_subruns_bases_and_bounds(rng):
    pc = build_pbwt(Panel.from_strings(["0101"] * 5))
    assert [lst.tolist() for lst in build_fore_subruns(pc, run_shifts(pc))] == [[1]] * 4
    for _ in range(60):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        lists = build_fore_subruns(pc, run_shifts(pc))
        assert lists[pc.w - 1].tolist() == pc.runs[pc.w - 1].tolist()
        assert sum(len(l) for l in lists) < 2 * pc.total_runs
        for j in range(1, pc.w):
            # forward images of column-j sub-runs overlap <= 3 next-column sub-runs
            image, _ = flat_fore_image(pc, j, lists[j - 1])
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
            shifts = run_shifts(pc)
            back, fore = build_back_subruns(pc, shifts), build_fore_subruns(pc, shifts)
            for j in range(1, pc.w + 1):
                for lst in (back[j - 1], fore[j - 1]):
                    assert lst[0] == 1 and (np.diff(lst) > 0).all()
                    assert lst[-1] <= pc.cols[j - 1].size
                    # each sub-run lies inside one run
                    assert np.isin(pc.runs[j - 1], lst).all()


def test_ragged_bounds_hold(rng):
    for _ in range(40):
        p = rand_panel(rng, ragged=True)
        pc = build_pbwt(p)
        assert sum(map(len, build_back_subruns(pc, run_shifts(pc)))) < 2 * pc.total_runs
        assert sum(map(len, build_fore_subruns(pc, run_shifts(pc)))) < 2 * pc.total_runs


def test_flat_builders_equal_per_column_builders():
    # the flat builders give the reference builders' lists on small panels,
    # fixed and ragged, sorted and unsorted, and on larger ones that cut
    rng = np.random.default_rng(26)
    cuts = 0
    for k in range(1200):
        ragged, sorted_rows, large = k % 2 == 1, k % 4 >= 2, k >= 1000
        p = rand_panel(rng, h_max=300, w_max=40, sigma_max=6, ragged=ragged) if large \
            else random_panel(rng, ragged)
        pc = build_pbwt(p, sort_panel(p) if sorted_rows else None)
        for build, reference in ((build_fore_subruns, reference_fore_subruns),
                                 (build_back_subruns, reference_back_subruns)):
            got, want = build(pc, run_shifts(pc)), reference(pc)
            assert len(got) == len(want) == pc.w
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, build.__name__)
            cuts += (sum(map(len, got)) - pc.total_runs) * large
    assert cuts > 0


@pytest.mark.parametrize("n_runs, cut", [(4, [7]), (3, [])])
def test_cut_only_past_three_sub_runs(n_runs, cut):
    # one run whose image spans n_runs two-row sub-runs of the next list: four
    # give exactly one cut, at the fourth sub-run's start; three give none
    k, cuts = normalize(np.array([1, 2 * n_runs]), np.arange(1, 2 * n_runs, 2))
    assert k.tolist() == [len(cut)] and cuts.tolist() == cut
    # fore side: column 1 is one run, column 2 has n_runs runs
    pc = build_pbwt(Panel.from_rows([(0, r // 2 % 2) for r in range(2 * n_runs)]))
    assert pc.runs[1].size == n_runs
    assert build_fore_subruns(pc, run_shifts(pc))[0].tolist() == [1] + cut
    # back side: column 1 has n_runs runs, whose images column 2's one run spans
    pc = build_pbwt(Panel.from_rows([(r // 2, 0) for r in range(2 * n_runs)]))
    assert pc.runs[0].size == n_runs and pc.runs[1].size == 1
    assert build_back_subruns(pc, run_shifts(pc))[1].tolist() == [1] + cut


@pytest.mark.parametrize("rows", [[(r % 2, r // 2 % 2, r // 4) for r in range(12)],
                                  [(1, 0), (0,), (1, 1), (0, 1, 0)], [(), ()]])
def test_column_before_all_terminators(rows):
    # rows of the longest length end together, so the last column holds only
    # terminators; both sides build and equal the reference builders
    p = Panel.from_rows(rows, ragged=True)
    pc = build_pbwt(p)
    assert (pc.cols[-1] == 0).all()
    shifts = run_shifts(pc)
    for build, reference in ((build_fore_subruns, reference_fore_subruns),
                             (build_back_subruns, reference_back_subruns)):
        assert [a.tolist() for a in build(pc, shifts)] == [b.tolist() for b in reference(pc)]
    ix = build_index(p)
    assert [ix.retrieval.extract(i) for i in range(1, p.h + 1)] == [list(r) for r in rows]


@pytest.mark.parametrize("sorted_rows, fore_only, ragged",
                         [(False, False, False), (True, False, False), (False, True, True)])
def test_build_runs_one_flat_pass(monkeypatch, sorted_rows, fore_only, ragged):
    # a build sorts its runs once, whichever sub-run families it builds: the
    # builders share the caller's run_shifts, whose fore_shift call is counted
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    real = pbwtstep.subruns.fore_shift
    monkeypatch.setattr(pbwtstep.subruns, "fore_shift", counted)
    p = rand_panel(np.random.default_rng(30), h_max=40, ragged=ragged)
    ix = build_index(p, sorted_rows=sorted_rows, fore_only=fore_only)
    assert len(calls) == 1
    assert ix.fore_only == fore_only and ix.sorted_rows == sorted_rows

import numpy as np
import pytest

from pbwtstep.panel import IntervalList, Panel
from pbwtstep.pbwt import (build_pbwt, build_pbwt_reference, extract_runs,
                           naive_back, naive_fore)

from conftest import pos_lookup_back, pos_lookup_fore, rand_panel

SMALL = Panel.from_strings(["01", "10", "00"])


def test_small_panel_columns():
    pc = build_pbwt(SMALL)
    assert pc.pbwt_col(1).tolist() == [0, 1, 0]
    assert pc.pa_col(2).tolist() == [1, 3, 2]
    assert pc.pbwt_col(2).tolist() == [1, 0, 0]
    assert pc.total_runs == 5


def test_identical_rows_single_run():
    p = Panel.from_strings(["0110"] * 7)
    pc = build_pbwt(p)
    assert all(len(pc.runs_at(j)) == 1 for j in range(1, 5))
    assert pc.total_runs == 4
    for j in range(1, 4):
        for i in range(1, 8):
            assert naive_fore(pc, i, j) == i
            assert naive_back(pc, i, j + 1) == i


def test_worked_example_panel():
    # five bi-allelic rows whose forward step from position 5 of column 4
    # lands on 2, inside the first run of column 5
    p = Panel.from_strings(["00000", "00111", "00011", "00100", "00011"])
    pc = build_pbwt(p)
    target = naive_fore(pc, 5, 4)
    assert target == 2
    assert pc.runs_at(5).index_of(target) == 1


def test_naive_fore_example():
    pc = build_pbwt(SMALL)
    assert naive_fore(pc, 2, 1) == 3
    assert pc.pa_col(2).tolist().index(int(pc.pa_col(1)[1])) + 1 == 3


def test_naive_back_example_and_roundtrip():
    pc = build_pbwt(SMALL)
    assert naive_back(pc, 3, 2) == 2
    for j in range(1, pc.w):
        for i in range(1, pc.h + 1):
            assert naive_back(pc, naive_fore(pc, i, j), j + 1) == i


def test_column_range_errors():
    pc = build_pbwt(SMALL)
    with pytest.raises(ValueError):
        naive_fore(pc, 1, 2)
    with pytest.raises(ValueError):
        naive_back(pc, 1, 1)
    with pytest.raises(ValueError):
        naive_fore(pc, 4, 1)


def test_extract_runs_examples():
    assert extract_runs([1, 0, 0]) == IntervalList([(1, 1), (2, 3)])
    assert extract_runs([0, 0, 0]) == IntervalList([(1, 3)])
    col = [7] * 1 + [3] * 10 + [5] * 5
    assert extract_runs(col) == IntervalList([(1, 1), (2, 11), (12, 16)])


def test_stepping_is_monotone_and_adjacent(rng):
    # equal symbols map order-preserving; adjacent equal symbols map adjacently
    for _ in range(40):
        pc = build_pbwt(rand_panel(rng))
        for j in range(1, pc.w):
            col = pc.pbwt_col(j)
            f = [naive_fore(pc, i, j) for i in range(1, pc.h + 1)]
            for i in range(1, pc.h):
                if col[i - 1] == col[i]:
                    assert f[i - 1] + 1 == f[i]
            assert sorted(f) == list(range(1, pc.h + 1))  # bijection
            for a in range(pc.h):
                for b in range(a + 1, pc.h):
                    if col[a] == col[b]:
                        assert f[a] < f[b]
                        break


def test_counting_matches_comparison_sort(rng):
    for _ in range(60):
        p = rand_panel(rng)
        pc, ref = build_pbwt(p), build_pbwt_reference(p)
        for j in range(1, pc.w + 1):
            assert np.array_equal(pc.pbwt_col(j), ref.pbwt_col(j))
            assert np.array_equal(pc.pa_col(j), ref.pa_col(j))


def test_sort_stability_on_duplicate_prefixes():
    # rows with equal prefixes must keep their id order in every column
    p = Panel.from_strings(["0011", "0010", "0011", "0010", "0011"])
    pc = build_pbwt(p)
    for j in range(1, pc.w + 1):
        pa = pc.pa_col(j).tolist()
        prefixes = {}
        for pos, rid in enumerate(pa):
            key = tuple(p.rows[rid - 1][:j - 1].tolist())
            prefixes.setdefault(key, []).append(rid)
        for ids in prefixes.values():
            assert ids == sorted(ids)


def test_ragged_columns_list_alive_rows(rng):
    for _ in range(40):
        p = rand_panel(rng, ragged=True)
        pc = build_pbwt(p)
        ref = build_pbwt_reference(p)
        lens = [len(r) + 1 for r in p.rows]
        for j in range(1, pc.w + 1):
            alive = [i for i in range(1, p.h + 1) if lens[i - 1] >= j]
            assert sorted(pc.pa_col(j).tolist()) == alive
            assert np.array_equal(pc.pa_col(j), ref.pa_col(j))
            assert np.array_equal(pc.pbwt_col(j), ref.pbwt_col(j))
        # terminator appears once per row across all columns
        assert sum(int(np.count_nonzero(pc.pbwt_col(j) == 0))
                   for j in range(1, pc.w + 1)) == p.h


def test_ragged_fore_undefined_on_terminator():
    p = Panel.from_rows([[0], [0, 1]], ragged=True)
    pc = build_pbwt(p)
    # row 1 ends after column 1: its column-2 symbol is the terminator
    term_pos = int(np.flatnonzero(pc.pbwt_col(2) == 0)[0]) + 1
    with pytest.raises(ValueError, match="terminator"):
        naive_fore(pc, term_pos, 2)


def test_fore_tables_match_naive(rng):
    for _ in range(30):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        fore_tables = pos_lookup_fore(pc)
        back_tables = pos_lookup_back(pc)
        for j in range(1, pc.w):
            for i in range(1, pc.h + 1):
                assert naive_fore(pc, i, j) == int(fore_tables[j - 1][i - 1])
                assert int(pc.fore_all(j)[i - 1]) == naive_fore(pc, i, j)
        for j in range(2, pc.w + 1):
            for i in range(1, pc.h + 1):
                assert naive_back(pc, i, j) == int(back_tables[j - 1][i - 1])


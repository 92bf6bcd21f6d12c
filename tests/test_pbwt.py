import numpy as np
import pytest

from pbwtstep.io import build_index, parse_panel
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt, column_orders, extract_runs
from pbwtstep.subruns import run_shifts

from conftest import (build_pbwt_reference, pos_lookup_back, pos_lookup_fore, prefix_arrays,
                      rand_panel)

SMALL = Panel.from_strings(["01", "10", "00"])


def test_small_panel_columns():
    pc = build_pbwt(SMALL)
    assert pc.cols[0].tolist() == [0, 1, 0]
    assert prefix_arrays(SMALL)[1].tolist() == [1, 3, 2]
    assert pc.cols[1].tolist() == [1, 0, 0]
    assert pc.total_runs == 5
    assert [r.tolist() for r in pc.run_rows] == [[1, 2, 3], [1, 3]]


def test_identical_rows_single_run():
    p = Panel.from_strings(["0110"] * 7)
    pc = build_pbwt(p)
    assert all(len(pc.runs[j - 1]) == 1 for j in range(1, 5))
    assert pc.total_runs == 4
    for table in pos_lookup_fore(p) + pos_lookup_back(p)[1:]:
        assert table.tolist() == list(range(1, 8))


def test_worked_example_panel():
    # five bi-allelic rows whose forward step from position 5 of column 4
    # lands on 2, inside the first run of column 5
    p = Panel.from_strings(["00000", "00111", "00011", "00100", "00011"])
    pc = build_pbwt(p)
    target = int(pos_lookup_fore(p)[3][4])
    assert target == 2
    assert np.searchsorted(pc.runs[4], target, side="right") == 1


def test_column_range_errors():
    # steps refuse columns without a neighbour and rows outside their sub-run
    st = build_index(SMALL).step
    with pytest.raises(ValueError, match="no forward step from column 2"):
        st.fore_step(1, 2, 1)
    with pytest.raises(ValueError, match="no backward step from column 1"):
        st.back_step(1, 1, 1)
    with pytest.raises(ValueError, match="row 4 outside fore sub-run"):
        st.fore_step(4, 1, st.find_fore_subrun(1, 3))
    with pytest.raises(ValueError, match="no backward step from column 2"):
        build_index(SMALL, fore_only=True).step.back_step(1, 2, 1)


def test_extract_runs_examples():
    assert extract_runs([1, 0, 0]).tolist() == [1, 2]
    assert extract_runs([0, 0, 0]).tolist() == [1]
    col = [7] * 1 + [3] * 10 + [5] * 5
    assert extract_runs(col).tolist() == [1, 2, 12]
    with pytest.raises(ValueError, match="empty"):
        extract_runs([])


def test_stepping_is_monotone_and_adjacent(rng):
    # equal symbols map order-preserving; adjacent equal symbols map adjacently
    for _ in range(40):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        for j, table in enumerate(pos_lookup_fore(p), 1):
            col, f = pc.cols[j - 1], table.tolist()
            for i in range(1, pc.h):
                if col[i - 1] == col[i]:
                    assert f[i - 1] + 1 == f[i]
            assert sorted(f) == list(range(1, pc.h + 1))  # bijection
            for a in range(pc.h):
                for b in range(a + 1, pc.h):
                    if col[a] == col[b]:
                        assert f[a] < f[b]
                        break


def _check_against_reference(p):
    """``column_orders`` and ``build_pbwt`` against the comparison sort: every
    column's symbols and prefix array, its runs and the row at each run start."""
    pc, ref = build_pbwt(p), build_pbwt_reference(p)
    orders = list(column_orders(p))
    assert pc.w == len(orders) == ref.w
    for j in range(1, pc.w + 1):
        col, pa = orders[j - 1]
        assert np.array_equal(col, ref.cols[j - 1]) and np.array_equal(pa, ref.pas[j - 1])
        assert np.array_equal(pc.cols[j - 1], ref.cols[j - 1])
        assert np.array_equal(pc.runs[j - 1], ref.runs[j - 1])
        assert np.array_equal(pc.run_rows[j - 1], ref.pas[j - 1][ref.runs[j - 1] - 1])
    return pc


def test_counting_matches_comparison_sort(rng):
    for _ in range(60):
        _check_against_reference(rand_panel(rng))


def test_sort_stability_on_duplicate_prefixes():
    # rows with equal prefixes must keep their id order in every column
    p = Panel.from_strings(["0011", "0010", "0011", "0010", "0011"])
    for j, pa in enumerate(prefix_arrays(p), 1):
        pa = pa.tolist()
        prefixes = {}
        for pos, rid in enumerate(pa):
            key = tuple(p.rows[rid - 1][:j - 1].tolist())
            prefixes.setdefault(key, []).append(rid)
        for ids in prefixes.values():
            assert ids == sorted(ids)


def test_ragged_columns_list_alive_rows(rng):
    for _ in range(40):
        p = rand_panel(rng, ragged=True)
        pc = _check_against_reference(p)
        lens = [len(r) + 1 for r in p.rows]
        for j, pa in enumerate(prefix_arrays(p), 1):
            alive = [i for i in range(1, p.h + 1) if lens[i - 1] >= j]
            assert sorted(pa.tolist()) == alive
        # terminator appears once per row across all columns
        assert sum(int(np.count_nonzero(pc.cols[j - 1] == 0))
                   for j in range(1, pc.w + 1)) == p.h


def test_ragged_fore_undefined_on_terminator():
    p = Panel.from_rows([[0], [0, 1]], ragged=True)
    pc, st = build_pbwt(p), build_index(p).step
    # row 1 ends after column 1: its column-2 symbol is the terminator
    term_pos = int(np.flatnonzero(pc.cols[1] == 0)[0]) + 1
    with pytest.raises(ValueError, match="no forward step from terminator sub-run"):
        st.fore_step(term_pos, 2, st.find_fore_subrun(2, term_pos))


def test_fore_tables_match_naive(rng):
    # the forward target of each run start is the position lookup's;
    # ragged terminator runs have no target and read 0
    for ragged in (False, True):
        for _ in range(30):
            p = rand_panel(rng, ragged=ragged)
            pc = build_pbwt(p)
            first, starts, _, live, delta, _, _ = run_shifts(pc)
            targets = np.where(live, starts + delta, 0)
            for j, table in enumerate(pos_lookup_fore(p), 1):
                runs = pc.runs[j - 1]
                got = targets[first[j - 1]:first[j]].tolist()
                assert got == table[runs - 1].tolist()


def _check_against_reference_and_extract(p):
    pc = _check_against_reference(p)
    ret = build_index(p).retrieval
    for i in range(1, p.h + 1):
        assert ret.extract(i) == p.rows[i - 1].tolist()
    return pc


@pytest.mark.parametrize("h", [255, 256])
def test_row_id_dtype_boundary(rng, h):
    # row ids switch from uint8 to uint16 past 255
    p = Panel.from_rows(rng.integers(0, 3, size=(h, 5)) * (rng.random((h, 5)) < 0.3), sigma=3)
    pc = _check_against_reference_and_extract(p)
    assert pc.run_rows[0].dtype.itemsize == (1 if h == 255 else 2)
    assert prefix_arrays(p)[0].dtype.itemsize == (1 if h == 255 else 2)
    first, starts, _, live, delta, _, _ = run_shifts(pc)
    for j, table in enumerate(pos_lookup_fore(p), 1):
        at = slice(first[j - 1], first[j])
        assert np.array_equal((starts + delta)[at][live[at]], table[starts[at][live[at]] - 1])


@pytest.mark.parametrize("sigma,ragged", [(255, True), (256, True), (256, False), (257, False)])
def test_symbol_dtype_boundary(rng, sigma, ragged):
    # internal alphabet of 256 symbols fits uint8; one more needs uint16
    rows = [[sigma - 1] * 4] + [rng.integers(sigma - 3, sigma, size=int(rng.integers(
        0 if ragged else 4, 5))).tolist() for _ in range(40)]
    text = f"#sigma={sigma}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    p, fmt = parse_panel(text.encode(), fmt="tokens", ragged=ragged)
    assert fmt == "tokens" and p.sigma == sigma
    pc = _check_against_reference_and_extract(p)
    assert pc.cols[0].dtype.itemsize == (1 if sigma + ragged <= 256 else 2)

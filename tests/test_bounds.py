import pytest

from pbwtstep.bounds import adjacent_distinct_pairs, canonical_intervals, check_bounds
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt

from conftest import rand_panel

SMALL = Panel.from_strings(["01", "10", "00"])


def test_adjacent_distinct_examples():
    assert adjacent_distinct_pairs(SMALL) == 2
    assert adjacent_distinct_pairs(Panel.from_strings(["01"] * 5)) == 0
    assert adjacent_distinct_pairs(Panel.from_strings(["00", "01", "10", "11"])) == 3


def test_canonical_examples():
    p = Panel.from_strings(["01"] * 4)
    pc = build_pbwt(p)
    assert [s.tolist() for s in canonical_intervals(pc, p)] == [[1], [1]]
    p = Panel.from_strings(["00", "01", "10", "11"])
    pc = build_pbwt(p)
    assert [len(s) for s in canonical_intervals(pc, p)] == [4, 4]


def test_canonical_against_row_scan(rng):
    panels = [rand_panel(rng) for _ in range(50)]
    panels += [Panel.from_strings(["0120"] * 7),                          # all identical
               Panel.from_strings([format(i, "05b") for i in (9, 3, 30, 0, 17, 6)])]
    for p in panels:
        pc = build_pbwt(p)
        rows = [tuple(r.tolist()) for r in p.rows]
        canonical = canonical_intervals(pc, p)
        assert len(canonical) == pc.w
        for j in range(1, pc.w + 1):
            got = canonical[j - 1].tolist()
            pa = pc.pas[j - 1].tolist()
            # maximality and equality by direct row comparison
            assert got[0] == 1
            for b, e in zip(got, [s - 1 for s in got[1:]] + [len(pa)]):
                block = [rows[r - 1] for r in pa[b - 1:e]]
                assert len(set(block)) == 1
                if b > 1:
                    assert rows[pa[b - 2] - 1] != block[0]
                if e < len(pa):
                    assert rows[pa[e] - 1] != block[0]
    assert [s.tolist() for s in canonical_intervals(build_pbwt(panels[-2]), panels[-2])] \
        == [[1]] * 4
    assert [s.tolist() for s in canonical_intervals(build_pbwt(panels[-1]), panels[-1])] \
        == [list(range(1, 7))] * 5


def test_small_report_values():
    rep = check_bounds(SMALL)
    assert rep.h_pp == 2 and rep.total_runs == 5 and rep.distinct == 3
    assert rep.total_runs >= rep.h_pp + 1
    assert rep.total_runs <= rep.w * (rep.h_pp + 1)
    assert rep.passed


def test_identical_rows_report():
    rep = check_bounds(Panel.from_strings(["0101"] * 6))
    assert rep.h_pp == 0 and rep.total_runs == 4 and rep.passed
    assert rep.ell_per_col == [1, 1, 1, 1]


def test_report_lines_format():
    lines = check_bounds(SMALL).lines()
    assert "h=3" in lines and "r_tilde=5" in lines and "all_checks=pass" in lines


def test_random_panels_all_bounds_hold(rng):
    for _ in range(250):
        rep = check_bounds(rand_panel(rng))
        assert rep.passed, rep.checks


def test_ragged_rejected():
    with pytest.raises(ValueError):
        check_bounds(Panel.from_rows([[0], [0, 1]], ragged=True))

import pytest

from pbwtstep.bounds import adjacent_distinct_pairs, check_bounds
from pbwtstep.panel import Panel

from conftest import prefix_arrays, rand_panel

SMALL = Panel.from_strings(["01", "10", "00"])


def test_adjacent_distinct_examples():
    assert adjacent_distinct_pairs(SMALL) == 2
    assert adjacent_distinct_pairs(Panel.from_strings(["01"] * 5)) == 0
    assert adjacent_distinct_pairs(Panel.from_strings(["00", "01", "10", "11"])) == 3


def _canonical_counts(p):
    """Per column, the maximal blocks of its prefix array whose full rows are
    identical, counted by direct row comparison."""
    rows = [tuple(r.tolist()) for r in p.rows]
    return [1 + sum(rows[a - 1] != rows[b - 1] for a, b in zip(pa.tolist(), pa.tolist()[1:]))
            for pa in prefix_arrays(p)]


def test_canonical_examples():
    assert check_bounds(Panel.from_strings(["01"] * 4)).ell_per_col == [1, 1]
    assert check_bounds(Panel.from_strings(["00", "01", "10", "11"])).ell_per_col == [4, 4]


def test_canonical_against_row_scan(rng):
    panels = [rand_panel(rng) for _ in range(50)]
    panels += [Panel.from_strings(["0120"] * 7),                          # all identical
               Panel.from_strings([format(i, "05b") for i in (9, 3, 30, 0, 17, 6)])]
    for p in panels:
        rep = check_bounds(p)
        assert len(rep.ell_per_col) == len(rep.r_per_col) == p.w
        assert rep.ell_per_col == _canonical_counts(p)
    assert check_bounds(panels[-2]).ell_per_col == [1] * 4
    assert check_bounds(panels[-1]).ell_per_col == [6] * 5


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

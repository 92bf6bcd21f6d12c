import numpy as np
import pytest

from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.prefixsearch import SymbolPositions

from conftest import pattern_battery, prefix_index, rand_panel, scan_prefix

SMALL = Panel.from_strings(["01", "10", "00"])


def test_small_panel_examples():
    ix = prefix_index(SMALL)
    assert ix.partial_prefix_search([0, 0]) == (2, 1, 3)
    assert ix.partial_prefix_search([1, 1]) == (1, 1, 2)
    assert ix.partial_prefix_search([]) == (0, 3, 1)


def test_subrun_total_below_bound():
    ix = prefix_index(SMALL)
    pc = build_pbwt(SMALL)
    assert sum(fc.starts.size for fc in ix.step.fore_cols) < 2 * pc.total_runs


def test_single_row_panel():
    ix = prefix_index(Panel.from_strings(["0120"], sigma=3))
    assert all(fc.starts.size == 1 for fc in ix.step.fore_cols)
    assert ix.partial_prefix_search([0, 1, 2, 0]) == (4, 1, 1)


def test_sorted_variant_examples():
    ix = prefix_index(Panel.from_strings(["00", "01", "10"]), sorted_rows=True)
    assert ix.prefix_search_sorted([0]) == (1, (1, 2))
    assert ix.prefix_search_sorted([]) == (0, (1, 3))
    assert ix.prefix_search_sorted([0, 1]) == (2, (2, 2))


def test_enumeration_examples():
    ix = prefix_index(SMALL, sorted_rows=True)
    assert ix.enumerate_prefixed([0]) == (1, [3, 1])   # sorted-position order
    m, ids = ix.enumerate_prefixed([])
    assert m == 0 and sorted(ids) == [1, 2, 3]
    m, ids = ix.enumerate_prefixed([5])                # no matching first symbol
    assert m == 0 and sorted(ids) == [1, 2, 3]


def test_unsorted_index_refuses_interval_queries():
    ix = prefix_index(SMALL)
    with pytest.raises(ValueError):
        ix.prefix_search_sorted([0])
    with pytest.raises(ValueError):
        ix.enumerate_prefixed([0])


def test_no_occurrence_inside_interval():
    # pattern whose second symbol exists in column 2 only outside the match
    # interval: the search must stop at length 1 with the correct witness
    ix = prefix_index(Panel.from_strings(["01", "10", "11"]))
    assert ix.partial_prefix_search([0, 0]) == (1, 1, 1)


def test_out_of_alphabet_symbol_unmatched():
    ix = prefix_index(SMALL)
    assert ix.partial_prefix_search([0, 7]) == (1, 2, 1)
    assert ix.partial_prefix_search([7]) == (0, 3, 1)
    with pytest.raises(ValueError):
        ix.partial_prefix_search([-1])


def test_pattern_longer_than_width():
    ix = prefix_index(SMALL)
    assert ix.partial_prefix_search([0, 0, 0, 0]) == (2, 1, 3)


def test_rank_select_examples():
    rs = SymbolPositions(np.array([1, 0, 0]))
    assert rs.rank(0, 3) == 2
    assert rs.select(0, 3) == 4        # one past the end
    assert rs.select(1, 1) == 1
    assert rs.rank(5, 3) == 0
    assert rs.select(5, 1) == 4
    with pytest.raises(ValueError):
        rs.select(0, 0)
    empty = SymbolPositions(np.array([], np.int64))
    assert empty.rank(0, 1) == 0 and empty.select(0, 1) == 1


def test_rank_select_against_scan(rng):
    for _ in range(100):
        n = int(rng.integers(1, 40))
        vals = rng.integers(0, 5, size=n)
        rs = SymbolPositions(vals)
        for c in range(6):
            for x in range(1, n + 1):
                assert rs.rank(c, x) == int(np.count_nonzero(vals[:x] == c))
            total = int(np.count_nonzero(vals == c))
            for k in range(1, total + 2):
                pos = rs.select(c, k)
                if k <= total:
                    assert vals[pos - 1] == c and rs.rank(c, pos) == k
                else:
                    assert pos == n + 1


def test_rank_sym_select_sym_wrappers():
    ix = prefix_index(SMALL)
    vals = ix.sym_at_start(2)
    c = int(vals[0])
    assert ix.rank_sym(2, c, len(vals)) == int(np.count_nonzero(vals == c))
    assert ix.select_sym(2, c, 1) == int(np.flatnonzero(vals == c)[0]) + 1


def test_matches_scan_oracle(rng):
    for _ in range(120):
        p = rand_panel(rng)
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p):
            assert ix.partial_prefix_search(pat) == scan_prefix(p, pat)


def test_matches_scan_oracle_ragged(rng):
    for _ in range(80):
        p = rand_panel(rng, ragged=True)
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p):
            assert ix.partial_prefix_search(pat) == scan_prefix(p, pat)


def test_sorted_and_enumeration_match_oracle(rng):
    for ragged in (False, True):
        for _ in range(50):
            p = rand_panel(rng, ragged=ragged)
            ix = prefix_index(p, sorted_rows=True)
            rows = [tuple(int(s) for s in r) for r in p.rows]
            for pat in pattern_battery(rng, p, count=5):
                m, occ, _ = scan_prefix(p, pat)
                m2, (lo, hi) = ix.prefix_search_sorted(pat)
                assert (m2, hi - lo + 1) == (m, occ)
                m3, ids = ix.enumerate_prefixed(pat)
                want = [i for i in range(1, p.h + 1)
                        if len(rows[i - 1]) >= m and rows[i - 1][:m] == tuple(pat[:m])]
                assert m3 == m and sorted(ids) == (want if m else list(range(1, p.h + 1)))


def test_witness_is_smallest_id(rng):
    for _ in range(60):
        p = rand_panel(rng)
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p, count=4):
            m, occ, witness = ix.partial_prefix_search(pat)
            rows = [tuple(int(s) for s in r) for r in p.rows]
            matching = [i for i in range(1, p.h + 1) if rows[i - 1][:m] == tuple(pat[:m])]
            assert witness == (matching[0] if m else 1)


def test_loop_invariant_against_scan_prefixes(rng):
    # After k columns the search holds exactly the answer for pat[:k]. Rows
    # sharing a k-prefix sit in id order (the PBWT sort is stable), so the
    # oracle's smallest id is the prefix-array entry at the interval's left end.
    for _ in range(40):
        p = rand_panel(rng)
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p, count=4):
            for k in range(len(pat) + 1):
                assert ix.partial_prefix_search(pat[:k]) == scan_prefix(p, pat[:k])


def test_terminator_run_accounting(rng):
    # total runs exceed the terminator-free count by at most the row count
    for _ in range(50):
        p = rand_panel(rng, ragged=True)
        pc = build_pbwt(p)
        no_term = sum(1 for j in range(1, pc.w + 1) for iv in pc.runs_at(j)
                      if int(pc.pbwt_col(j)[iv.b - 1]) != 0)
        assert pc.total_runs <= no_term + p.h

from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from pbwtstep.io import build_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.prefixsearch import PrefixSearchIndex, sort_panel
from pbwtstep.stepindex import assemble_step_index

from conftest import (build_pbwt_reference, enumerate_ids, pattern_battery, prefix_arrays,
                      prefix_index, rand_panel, scan_prefix, sorted_interval)

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
    assert sorted_interval(ix, [0]) == (1, (1, 2))
    assert sorted_interval(ix, []) == (0, (1, 3))
    assert sorted_interval(ix, [0, 1]) == (2, (2, 2))


def test_enumeration_examples():
    ix = prefix_index(SMALL, sorted_rows=True)
    assert enumerate_ids(ix, [0]) == (1, [3, 1])   # sorted-position order
    m, ids = enumerate_ids(ix, [])
    assert m == 0 and sorted(ids) == [1, 2, 3]
    m, ids = enumerate_ids(ix, [5])                # no matching first symbol
    assert m == 0 and sorted(ids) == [1, 2, 3]


def test_unsorted_index_refuses_interval_queries():
    ix = prefix_index(SMALL)
    with pytest.raises(ValueError):
        ix.row_ids(1, 1)
    with pytest.raises(ValueError):
        enumerate_ids(ix, [0])


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
    # one column whose fore sub-runs hold the symbols 1, 0, 0
    st = assemble_step_index(3, 1, 2, False, [3], [1, 2, 3], [1, 0, 0], None)
    rs = PrefixSearchIndex(st, np.array([1, 2, 3]), None).rank_select[0]
    assert rs.n == 3
    assert rs.rank(0, 3) == 2
    assert rs.select(0, 3) == 4        # one past the end
    assert rs.select(1, 1) == 1
    assert rs.rank(5, 3) == 0
    assert rs.select(5, 1) == 4
    assert st.symbol_run(1, 5) == (0, 0)
    with pytest.raises(ValueError):
        rs.select(0, 0)


def _next_and_last(st, j, c, x):
    """Prefix search's two bisects: column j's first sub-run of c at or after
    position x and its last at or before x, 1-based, None when there is none."""
    a, (lo, hi) = int(st.fore_first[j - 1]), st.symbol_run(j, c)
    by = st.mv.by_symbol
    p, q = bisect_left(by, a + x - 1, lo, hi), bisect_right(by, a + x - 1, lo, hi) - 1
    return by[p] - a + 1 if p < hi else None, by[q] - a + 1 if q >= lo else None


def test_rank_select_against_scan(rng):
    # every column of random panels; symbols up to sigma + 1 include absent ones
    single = absent = 0
    for _ in range(80):
        p = rand_panel(rng, ragged=bool(rng.integers(0, 2)))
        ix = prefix_index(p)
        st = ix.step
        for j in range(1, st.w + 1):
            vals = st.fore_vals[st.fore_first[j - 1]:st.fore_first[j]]
            rs = ix.rank_select[j - 1]
            assert rs.n == vals.size
            single += vals.size == 1
            for c in range(st.sigma + 2):
                hits = np.flatnonzero(vals == c) + 1
                absent += hits.size == 0
                for x in range(1, vals.size + 1):
                    after, upto = hits[hits >= x].tolist(), hits[hits <= x].tolist()
                    assert _next_and_last(st, j, c, x) == (after[0] if after else None,
                                                           upto[-1] if upto else None)
                    assert rs.rank(c, x) == len(upto)
                for k in range(1, hits.size + 2):
                    assert rs.select(c, k) == (hits[k - 1] if k <= hits.size else vals.size + 1)
    assert single and absent


def test_rank_sym_select_sym_wrappers():
    # each column's rank/select runs over that column's fore sub-run symbols
    ix = prefix_index(SMALL)
    vals, rs = ix.step.fore_cols[1].vals, ix.rank_select[1]
    c = int(vals[0])
    assert rs.rank(c, len(vals)) == int(np.count_nonzero(vals == c))
    assert rs.select(c, 1) == int(np.flatnonzero(vals == c)[0]) + 1


def test_huge_symbols():
    # sigma = 2^62 - 1, where a column * sigma + symbol key would overflow int64
    big = 2**62 - 2
    rows = [[0, 5, big, 0], [big, 5, 0, 0], [0, 5, big, 5], [big, big, 0, 5], [0, 0, big, 0]]
    # 5 is absent from columns 1 and 3, and 0 from column 2 under the rows starting with big
    pats = [[0, 5, big], [big, big, 0, 5], [0, 5, 5], [5], [big, 5, 0, 0], [0, 0, big, 0, 1],
            [big, 0]]
    p = Panel.from_rows([np.array(r, np.int64) for r in rows])
    # a sorted index numbers rows by sorted position, as a scan of the sorted rows does
    by_pos = Panel.from_rows([np.array(r, np.int64) for r in sorted(rows)])
    assert p.sigma == by_pos.sigma == 2**62 - 1
    for sorted_rows, oracle in ((False, p), (True, by_pos)):
        ix = build_index(p, sorted_rows=sorted_rows)
        for pat in pats:
            assert ix.prefix.partial_prefix_search(pat) == scan_prefix(oracle, pat)
        for i in range(1, p.h + 1):
            assert ix.retrieval.extract(i) == oracle.rows[i - 1].tolist()


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
                m2, (lo, hi) = sorted_interval(ix, pat)
                assert (m2, hi - lo + 1) == (m, occ)
                m3, ids = enumerate_ids(ix, pat)
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
        no_term = sum(int(np.count_nonzero(pc.cols[j - 1][pc.runs[j - 1] - 1] != 0))
                      for j in range(1, pc.w + 1))
        assert pc.total_runs <= no_term + p.h


def test_sort_panel_matches_tuple_sort(rng):
    # ties keep file order, and a ragged row sorts before its extensions
    panels = [rand_panel(rng, ragged=k % 2 == 1) for k in range(80)]
    panels += [Panel.from_rows([[1, 0], [], [0], [1], [], [0, 0], [1, 0]], ragged=True),
               Panel.from_rows([[], [], []], ragged=True),
               Panel.from_strings(["10", "01", "10", "00", "01"])]
    for p in panels:
        want = sorted(range(1, p.h + 1), key=lambda i: tuple(p.rows[i - 1].tolist()))
        ids = sort_panel(p)
        assert ids.tolist() == want
        assert [tuple(p.rows[i - 1].tolist()) for i in ids] == \
            sorted(tuple(r.tolist()) for r in p.rows)


def test_sorted_build_equals_build_of_presorted_panel(rng):
    # the PBWT started from the lexicographic order on the file's rows is the
    # PBWT of the sorted panel with file ids for sorted positions, so the
    # index is the presorted panel's, whose rows are numbered by position
    panels = [rand_panel(rng, ragged=k % 2 == 1) for k in range(58)]
    panels += [Panel.from_rows([[1, 0], [], [0], [1], [], [0, 0], [1, 0]], ragged=True),
               Panel.from_strings(["10", "01", "10", "00", "01"])]
    for p in panels:
        ids = sort_panel(p)
        want = sorted(range(1, p.h + 1), key=lambda i: tuple(p.rows[i - 1].tolist()))
        presorted = Panel.from_rows([p.rows[i - 1] for i in want], sigma=p.sigma,
                                    ragged=p.ragged)
        got, ref = build_index(p, sorted_rows=True), build_index(presorted)
        for name in ("col_lens", "fore_starts", "fore_vals", "back_starts"):
            assert np.array_equal(getattr(got.step, name), getattr(ref.step, name)), name
        assert np.array_equal(got.prefix.pa_at_start, ref.prefix.pa_at_start)
        for pa, ref_pa in zip(prefix_arrays(p, ids), prefix_arrays(presorted)):
            assert pa.tolist() == ids[ref_pa - 1].tolist()


def test_samples_equal_reference_prefix_arrays(rng):
    # the samples carried from run starts along fore_lam are the comparison
    # sort's prefix-array entries at the fore sub-run starts; a sorted index
    # numbers rows by sorted position, as the presorted panel's reference does
    for k in range(320):
        p = rand_panel(rng, ragged=k % 2 == 1)
        sorted_rows = k % 4 >= 2
        ix = build_index(p, sorted_rows=sorted_rows, fore_only=k % 3 == 0)
        if sorted_rows:
            p = Panel.from_rows([p.rows[i - 1] for i in ix.prefix.orig_ids.tolist()],
                                sigma=p.sigma, ragged=p.ragged)
        st, ref = ix.step, build_pbwt_reference(p)
        f = st.fore_first.tolist()
        want = [pa[st.fore_starts[a:b] - 1] for pa, a, b in zip(ref.pas, f, f[1:])]
        assert ix.prefix.pa_at_start.tolist() == np.concatenate(want).tolist()

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the shared 1000-panel corpus is built once per session.
"""

import time

import numpy as np
import pytest

from pbwtstep.bounds import check_bounds
from pbwtstep.io import build_index, load_index, save_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.stepindex import build_step_index
from pbwtstep.subruns import build_back_subruns, build_fore_subruns, normalize

from conftest import (build_pbwt_reference, in_subrun, pattern_battery, pos_lookup_back,
                      pos_lookup_fore, prefix_index, rand_panel, rand_partition, retrieval_index,
                      scan_prefix, starts_of)
import test_golden_fixtures as golden


def _report(num, name):
    print(f"\nACCEPTANCE {num:>2} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(1000):
        p = rand_panel(rng, h_max=32, w_max=32, sigma_max=4)
        pc = build_pbwt(p)
        fore, back = build_fore_subruns(pc), build_back_subruns(pc)
        st = build_step_index(pc, fore, back)
        out.append((p, pc, (fore, back), st))
    return out


def _overlap_counts(pieces, ref_items):
    """Per piece, the ref intervals it meets: one linear co-walk over the
    pieces' starts and the ref's (b, e) tuples."""
    counts = []
    k = 0
    ends = pieces[1:].tolist() + [ref_items[-1][1] + 1]
    for b, nxt in zip(pieces.tolist(), ends):
        while ref_items[k][1] < b:
            k += 1
        kk = k
        while ref_items[kk][1] < nxt - 1:
            kk += 1
        counts.append(kk - k + 1)
        k = kk
    return counts


def test_c01_normalization_bound():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_splits = 0
    for _ in range(10000):
        n = int(rng.integers(1, 201))
        parts, ref = rand_partition(rng, n), rand_partition(rng, n)
        pieces, _ = normalize(starts_of(parts), n, starts_of(ref))
        assert max(_overlap_counts(pieces, ref)) <= 3
        assert pieces.size <= len(parts) + len(ref) // 2
        worst_splits = max(worst_splits, pieces.size - len(parts))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"normalization suite took {elapsed:.2f}s"
    _report(1, f"normalization bound (10000 pairs, max splits {worst_splits}, "
               f"{elapsed:.2f}s)")


def test_c02_golden_fixtures():
    golden.test_panel_a_run_layout()
    golden.test_fore_map_reference_layout()
    golden.test_normalization_example()
    golden.test_back_subrun_refinement()
    golden.test_back_quadruples_and_step()
    golden.test_panel_b_fore_subruns()
    golden.test_fore_quintuples_and_step()
    _report(2, "golden fixture values")


def test_c03_subrun_size_bound(corpus):
    for p, pc, (fore, back), st in corpus:
        assert sum(map(len, back)) < 2 * pc.total_runs
        assert sum(map(len, fore)) < 2 * pc.total_runs
    _report(3, f"sub-run size bound ({len(corpus)} panels)")


def test_c04_stepping_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    steps = 0
    for p, pc, _, st in corpus:
        fore_t, back_t = pos_lookup_fore(pc), pos_lookup_back(pc)
        for i0 in range(1, pc.h + 1):
            i, x = i0, st.find_fore_subrun(1, i0)
            for j in range(1, pc.w):
                i2, x2 = st.fore_step(i, j, x)
                assert i2 == int(fore_t[j - 1][i - 1])
                assert in_subrun(st.fore_first, st.fore_starts, st.fore_ends, j + 1, x2, i2)
                i, x = i2, x2
                steps += 1
            i, x = i0, st.find_back_subrun(pc.w, i0)
            for j in range(pc.w, 1, -1):
                i2, x2 = st.back_step(i, j, x)
                assert i2 == int(back_t[j - 1][i - 1])
                assert in_subrun(st.back_first, st.back_starts, st.back_ends, j - 1, x2, i2)
                i, x = i2, x2
                steps += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"stepping suite took {elapsed:.2f}s"
    _report(4, f"stepping oracle equivalence ({steps} steps, {elapsed:.2f}s)")


def test_c05_run_count_bounds(corpus):
    for p, pc, _, st in corpus:
        rep = check_bounds(p, pc)
        assert rep.passed, rep.checks
        assert rep.total_runs >= rep.h_pp + 1
        assert rep.total_runs >= rep.distinct
        assert all(r <= ell <= rep.h_pp + 1
                   for r, ell in zip(rep.r_per_col, rep.ell_per_col))
        assert rep.total_runs <= rep.w * (rep.h_pp + 1)
        assert all(b <= a for a, b in zip(rep.ell_per_col, rep.ell_per_col[1:]))
    _report(5, f"run-count bounds ({len(corpus)} panels)")


def test_c06_prefix_search_oracle(corpus):
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    queries = 0
    for p, pc, _, st in corpus[:500]:
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p, count=8):
            assert ix.partial_prefix_search(pat) == scan_prefix(p, pat)
            queries += 1
    # frozen edge case: second pattern symbol occurs only outside the interval
    ix = prefix_index(Panel.from_strings(["01", "10", "11"]))
    assert ix.partial_prefix_search([0, 0]) == (1, 1, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"prefix suite took {elapsed:.2f}s"
    _report(6, f"prefix search oracle (500 panels, {queries} queries, {elapsed:.2f}s)")


def test_c07_sorted_variant_and_enumeration(corpus):
    rng = np.random.default_rng(7)
    for p, pc, _, st in corpus[:500]:
        ix = prefix_index(p, sorted_rows=True)
        rows = [tuple(int(s) for s in r) for r in p.rows]
        for pat in pattern_battery(rng, p, count=4):
            m, occ, _ = scan_prefix(p, pat)
            m2, (lo, hi) = ix.prefix_search_sorted(pat)
            assert (m2, hi - lo + 1) == (m, occ)
            m3, ids = ix.enumerate_prefixed(pat)
            want = [i for i in range(1, p.h + 1) if rows[i - 1][:m] == tuple(pat[:m])] \
                if m else list(range(1, p.h + 1))
            assert m3 == m and sorted(ids) == want
    _report(7, "sorted variant and enumeration (500 panels)")


def test_c08_retrieval(corpus):
    from test_retrieval import _CountingStep
    for p, pc, _, st in corpus:
        ret = retrieval_index(p)
        counter = _CountingStep(ret.step)
        ret.step = counter
        for i in range(1, p.h + 1):
            counter.fore_calls = 0
            assert ret.extract(i) == [int(s) for s in p.rows[i - 1]]
            assert counter.fore_calls == p.w - 1
    _report(8, f"retrieval round trip ({len(corpus)} panels)")


def test_c09_ragged_mode():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rand_panel(rng, h_max=16, w_max=12, ragged=True)
        pc = build_pbwt(p)
        ref = build_pbwt_reference(p)
        for j in range(1, pc.w + 1):
            assert np.array_equal(pc.cols[j - 1], ref.cols[j - 1])
            assert np.array_equal(pc.pas[j - 1], ref.pas[j - 1])
        no_term = sum(int(np.count_nonzero(pc.cols[j - 1][pc.runs_at(j) - 1] != 0))
                      for j in range(1, pc.w + 1))
        assert pc.total_runs <= no_term + p.h
        ix = prefix_index(p)
        for pat in pattern_battery(rng, p, count=5):
            assert ix.partial_prefix_search(pat) == scan_prefix(p, pat)
        ret = retrieval_index(p)
        for i in range(1, p.h + 1):
            assert ret.extract(i) == [int(s) for s in p.rows[i - 1]]
    _report(9, "ragged mode (200 panels)")


def test_c10_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    for k in range(100):
        ragged = k % 3 == 2
        p = rand_panel(rng, ragged=ragged)
        ix = build_index(p, sorted_rows=(k % 2 == 0))
        path = tmp_path / f"ix{k}.bin"
        save_index(str(path), ix)
        loaded = load_index(str(path))
        st, lst = ix.step, loaded.step
        for i0 in range(1, st.h + 1):
            i, x = i0, st.find_fore_subrun(1, i0)
            i_l, x_l = i0, lst.find_fore_subrun(1, i0)
            assert (i, x) == (i_l, x_l)
            for j in range(1, st.w):
                if st.ragged and st.symbol_at_fore(j, x) == 0:
                    assert lst.ragged and lst.symbol_at_fore(j, x_l) == 0
                    break
                i, x = st.fore_step(i, j, x)
                i_l, x_l = lst.fore_step(i_l, j, x_l)
                assert (i, x) == (i_l, x_l)
        for j in range(2, st.w + 1):
            for i in range(1, int(st.col_lens[j - 1]) + 1):
                x = st.find_back_subrun(j, i)
                assert st.back_step(i, j, x) == lst.back_step(i, j, x)
        for pat in pattern_battery(rng, p, count=5):
            assert loaded.prefix.partial_prefix_search(pat) == \
                ix.prefix.partial_prefix_search(pat)
        for i in range(1, p.h + 1):
            assert loaded.retrieval.extract(i) == ix.retrieval.extract(i)
    _report(10, "serialization round trip (100 panels)")

import re
from dataclasses import fields

import numpy as np
import pytest

from pbwtstep.io import build_index, load_index, save_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.prefixsearch import PrefixSearchIndex
from pbwtstep.stepindex import StepIndex, assemble_step_index, build_step_index
from pbwtstep.subruns import build_back_subruns, build_fore_subruns

from conftest import (in_subrun, pos_lookup_back, pos_lookup_fore, prefix_arrays, rand_panel,
                      reference_step_tables)

SMALL = Panel.from_strings(["01", "10", "00"])


def build_all(p):
    pc = build_pbwt(p)
    fore, back = build_fore_subruns(pc), build_back_subruns(pc)
    return pc, (fore, back), build_step_index(pc, fore, back)


def test_identical_rows_single_tuple():
    p = Panel.from_strings(["012"] * 5)
    pc, (fore, back), st = build_all(p)
    for j in range(2, 4):
        assert st.back_cols[j - 1].nquads.tolist() == [1]
    for j in range(1, 3):
        assert st.fore_cols[j - 1].nquints.tolist() == [1]
    for i in range(1, 6):
        assert st.fore_step(i, 1, 1) == (i, 1)
        assert st.back_step(i, 2, 1) == (i, 1)


def test_chains_match_position_lookup(rng):
    for _ in range(60):
        p = rand_panel(rng)
        pc, (fore, back), st = build_all(p)
        fore_t, back_t = pos_lookup_fore(p), pos_lookup_back(p)
        for i0 in range(1, pc.h + 1):
            i, x = i0, st.find_fore_subrun(1, i0)
            for j in range(1, pc.w):
                i2, x2 = st.fore_step(i, j, x)
                assert i2 == int(fore_t[j - 1][i - 1])
                assert in_subrun(st.fore_first, st.fore_starts, st.fore_ends, j + 1, x2, i2)
                i, x = i2, x2
            i, x = i0, st.find_back_subrun(pc.w, i0)
            for j in range(pc.w, 1, -1):
                i2, x2 = st.back_step(i, j, x)
                assert i2 == int(back_t[j - 1][i - 1])
                assert in_subrun(st.back_first, st.back_starts, st.back_ends, j - 1, x2, i2)
                i, x = i2, x2


def test_step_round_trip(rng):
    for _ in range(30):
        p = rand_panel(rng)
        pc, (fore, back), st = build_all(p)
        for j in range(1, pc.w):
            for i in range(1, pc.h + 1):
                x = st.find_fore_subrun(j, i)
                i2, x2 = st.fore_step(i, j, x)
                back_x = st.find_back_subrun(j + 1, i2)
                assert st.back_step(i2, j + 1, back_x)[0] == i
        for j in range(2, pc.w + 1):
            for i in range(1, pc.h + 1):
                x = st.find_back_subrun(j, i)
                i2, x2 = st.back_step(i, j, x)
                fore_x = st.find_fore_subrun(j - 1, i2)
                assert st.fore_step(i2, j - 1, fore_x)[0] == i


def test_tuple_lists_capped_and_tiling(rng):
    # every image overlaps 1..3 sub-runs of the adjacent column, and the
    # derived image of each steppable fore sub-run start is the position lookup's
    for ragged in (False, True):
        for _ in range(40):
            p = rand_panel(rng, ragged=ragged)
            pc, (fore, back), st = build_all(p)
            fore_t = pos_lookup_fore(p)
            for j in range(2, pc.w + 1):
                nq = st.back_cols[j - 1].nquads
                assert nq.size == len(back[j - 1])
                assert ((nq >= 1) & (nq <= 3)).all()
            for j in range(1, pc.w):
                fc = st.fore_cols[j - 1]
                for t, b in enumerate(fore[j - 1].tolist()):
                    if st.ragged and fc.vals[t] == 0:
                        assert fc.nquints[t] == 0
                        continue
                    assert 1 <= fc.nquints[t] <= 3
                    g = st.fore_first[j - 1] + t
                    image = b + int(st.fore_delta[g])
                    assert image == fore_t[j - 1][b - 1]
                    lam = st.fore_lam[g] - st.fore_first[j] + 1
                    assert lam == st.find_fore_subrun(j + 1, image)


def test_symbol_access(rng):
    for ragged in (False, True):
        for _ in range(25):
            p = rand_panel(rng, ragged=ragged)
            pc, (fore, back), st = build_all(p)
            for j in range(1, pc.w + 1):
                col = pc.cols[j - 1]
                for t, b in enumerate(back[j - 1].tolist(), 1):
                    assert st.symbol_at_back(j, t) == int(col[b - 1])
                starts = fore[j - 1].tolist()
                for t, (b, nxt) in enumerate(zip(starts, starts[1:] + [col.size + 1]), 1):
                    assert st.symbol_at_fore(j, t) == int(col[b - 1])
                    for i in range(b, nxt):
                        assert int(col[i - 1]) == st.symbol_at_fore(j, t)


def test_fore_step_small_example():
    # row 2 sits at position 2 of column 1 and position 3 of column 2
    _, _, st = build_all(SMALL)
    assert st.fore_step(2, 1, st.find_fore_subrun(1, 2))[0] == 3
    pas = prefix_arrays(SMALL)
    assert pas[1].tolist().index(int(pas[0][1])) + 1 == 3


def test_back_step_small_example():
    _, _, st = build_all(SMALL)
    assert st.back_step(3, 2, st.find_back_subrun(2, 3))[0] == 2


def test_symbol_access_small_example():
    pc, (fore, back), st = build_all(SMALL)
    x = st.find_fore_subrun(2, 1)
    assert st.symbol_at_fore(2, x) == 1
    pc, (fore, back), st = build_all(Panel.from_strings(["000"] * 4))
    for j in (1, 2, 3):
        assert st.symbol_at_fore(j, 1) == 0
        assert st.symbol_at_back(j, 1) == 0


LOOKUPS = Panel.from_strings(["011", "100", "001", "110"])    # 4, 3 and 4 fore sub-runs
BAD_LOOKUPS = [
    ("", "symbol_at_fore", (2, 5)),
    ("", "symbol_at_back", (2, 4)),
    ("", "symbol_at_fore", (1, 0)),
    ("", "symbol_at_fore", (4, 1)),
    ("", "find_fore_subrun", (1, 0)),
    ("", "find_fore_subrun", (1, 5)),
    ("", "find_fore_subrun", (0, 1)),
    ("", "find_back_subrun", (4, 1)),
    ("fore_only", "find_back_subrun", (1, 1)),
    ("fore_only", "symbol_at_back", (1, 1)),
    ("sorted_rows", "row_ids", (0, 2)),
    ("sorted_rows", "row_ids", (4, 3)),
]


@pytest.mark.parametrize("flag, name, args", BAD_LOOKUPS,
                         ids=[f"{f or 'plain'}-{n}{a}" for f, n, a in BAD_LOOKUPS])
def test_lookups_refuse_bad_arguments(flag, name, args):
    ix = build_index(LOOKUPS, **({flag: True} if flag else {}))
    with pytest.raises(ValueError, match="out of range|no (fore|back) sub-runs"):
        getattr(ix.prefix if name == "row_ids" else ix.step, name)(*args)


def test_space_is_linear_in_runs(rng):
    for _ in range(60):
        p = rand_panel(rng, h_max=32, w_max=32)
        pc, (fore, back), st = build_all(p)
        # w <= r column lengths, plus fewer than 2r each of fore starts, fore
        # symbols and back starts
        assert st.stored_words() < 7 * pc.total_runs


def test_debug_precondition_checked(rng):
    p = Panel.from_strings(["01", "10", "00"])
    pc, (fore, back), st = build_all(p)
    x = st.find_fore_subrun(1, 1)
    end = st.fore_ends[st.fore_first[0] + x - 1] - 1
    if end < pc.h:
        with pytest.raises(ValueError, match="outside"):
            st.fore_step(end + 1, 1, x)


@pytest.mark.parametrize("h, w, col_lens, fore_starts, fore_vals, back_starts, message", [
    # one run split into two sub-runs: not fewer than 2*total_runs
    (2, 1, [2], [1, 2], [0, 0], None, "2 fore sub-runs, not fewer than 2"),
    (2, 1, [2], [1], [0], [1, 2], "2 back sub-runs, not fewer than 2"),
    # column 1's one run steps onto column 2's four runs
    (4, 2, [4, 4], [1, 1, 2, 3, 4], [0, 0, 1, 0, 1], None, "image overlaps more than 3"),
    # column 1's four back sub-runs step onto column 2's one back sub-run
    (4, 2, [4, 4], [1, 2, 3, 4, 1], [0, 1, 0, 1, 0], [1, 2, 3, 4, 1],
     "back sub-run overlaps more than 3 pieces"),
    (2, 1, [2], [1, 2], [0, 1], [1], "run boundary is not a back sub-run start"),
    # the last image of column 2, rows 2-5 of column 3, holds four sub-runs;
    # the other images hold one or two
    (5, 3, [5, 5, 5], [1, 1, 2, 1, 2, 3, 4, 5], [0, 0, 1, 0, 1, 0, 1, 0], None,
     "image overlaps more than 3"),
    # column 3's last back sub-run, rows 2-5, holds the images of four of
    # column 2's one-row back sub-runs; every other overlap is 1 to 3
    (5, 3, [5, 5, 5], [1, 3, 1, 2, 3, 4, 5, 1], [0, 0, 0, 1, 0, 1, 0, 0],
     [1, 1, 2, 3, 4, 5, 1, 2], "back sub-run overlaps more than 3 pieces"),
    # column 3's second run starts at row 2 and its back sub-run at row 3,
    # inside that run's fore sub-run; columns 1 and 2 are whole runs
    (3, 3, [3, 3, 3], [1, 1, 1, 2], [0, 0, 0, 1], [1, 1, 1, 3],
     "run boundary is not a back sub-run start"),
], ids=["fore bound", "back bound", "fore overlaps", "back overlaps", "run boundary",
        "last image overlaps", "last back overlaps", "last column run boundary"])
def test_assembly_refuses_broken_bounds(h, w, col_lens, fore_starts, fore_vals, back_starts,
                                        message):
    # each case breaks only the named invariant of the paper
    back = None if back_starts is None else np.array(back_starts)
    with pytest.raises(ValueError, match=message):
        assemble_step_index(h, w, 2, False, np.array(col_lens), np.array(fore_starts),
                            np.array(fore_vals), back)


def stored(st):
    """The arguments that make ``assemble_step_index`` rebuild ``st``."""
    return [st.h, st.w, st.sigma, st.ragged, st.col_lens, st.fore_starts, st.fore_vals,
            st.back_starts]


def assert_tables_equal(st, want):
    # every field after h, w, sigma and ragged, in value and dtype
    for f in fields(StepIndex)[4:]:
        got, ref = getattr(st, f.name), want.get(f.name)
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), f.name
        else:
            assert got is ref if ref is None else got == ref, f.name


def test_assembly_matches_reference(rng):
    # fixed, ragged, sorted and fore-only panels, a third of them tiny (h <= 5,
    # w <= 3), where the tiling's last image and its empty cases matter; the
    # wide alphabets reach 16- and 32-bit sort keys and, at 2^61, keys past int64
    panels = []
    for k in range(1200):
        tiny = k % 3 == 0
        panels.append((rand_panel(rng, h_max=5 if tiny else 16, w_max=3 if tiny else 12,
                                  ragged=k % 2 == 1), k % 4 >= 2, k % 5 == 0))
    for k, sigma in enumerate([300, 70_000, 2**40, 2**61] * 10):
        p = rand_panel(rng, ragged=k % 2 == 1)
        rows = [r.astype(np.int64) * (sigma // 4) for r in p.rows]
        panels.append((Panel.from_rows(rows, sigma=sigma, ragged=p.ragged), k % 3 == 0, False))
    for p, sorted_rows, fore_only in panels:
        st = build_index(p, sorted_rows=sorted_rows, fore_only=fore_only).step
        assert_tables_equal(st, reference_step_tables(*stored(st)))


def test_assembly_refuses_as_reference_does(rng):
    # one stored element of a small index set to 0, 1, 2, a neighbour or its
    # low bit flipped: both refuse with the same message, or both give equal tables
    messages = set()
    for k in range(150):
        st = build_index(rand_panel(rng, h_max=8, w_max=5, ragged=k % 2 == 1),
                         fore_only=k % 3 == 0).step
        for _ in range(10):
            args = [a.copy() if isinstance(a, np.ndarray) else a for a in stored(st)]
            a = args[int(rng.integers(4, 7 if st.back_starts is None else 8))]
            i = int(rng.integers(0, a.size))
            a[i] = (0, 1, 2, a[i] - 1, a[i] + 1, a[i] ^ 1)[int(rng.integers(0, 6))]
            try:
                want = reference_step_tables(*args)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    assemble_step_index(*args)
                assert str(got.value) == str(exc)
                messages.add(re.sub(r"\d+", "N", str(exc)))
                continue
            assert_tables_equal(assemble_step_index(*args), want)
    assert len(messages) >= 6, messages


def test_ragged_back_total_fore_partial(rng):
    for _ in range(25):
        p = rand_panel(rng, ragged=True)
        pc, (fore, back), st = build_all(p)
        back_t = pos_lookup_back(p)
        for j in range(pc.w, 1, -1):
            for i in range(1, pc.cols[j - 1].size + 1):
                x = st.find_back_subrun(j, i)
                assert st.back_step(i, j, x)[0] == int(back_t[j - 1][i - 1])
        fore_t = pos_lookup_fore(p)
        for j in range(1, pc.w):
            for i in range(1, pc.cols[j - 1].size + 1):
                x = st.find_fore_subrun(j, i)
                if st.ragged and st.symbol_at_fore(j, x) == 0:
                    continue
                assert st.fore_step(i, j, x)[0] == int(fore_t[j - 1][i - 1])


def test_small_index_tables_are_int32(rng, tmp_path):
    # built and loaded alike: int32 tables, int8 overlap counts
    for kw in ({}, {"fore_only": True}, {"sorted_rows": True}):
        ix = build_index(rand_panel(rng), **kw)
        path = tmp_path / "ix.bin"
        save_index(str(path), ix)
        for bundle in (ix, load_index(str(path))):
            dtypes = {k: v.dtype for k, v in vars(bundle.step).items()
                      if isinstance(v, np.ndarray)}
            dtypes["pa_at_start"] = bundle.prefix.pa_at_start.dtype
            if bundle.prefix.orig_ids is not None:
                dtypes["orig_ids"] = bundle.prefix.orig_ids.dtype
            assert dtypes.pop("fore_nq") == np.int8
            if not kw.get("fore_only"):
                assert dtypes.pop("back_nq") == np.int8
            assert ("orig_ids" in dtypes) == bool(kw.get("sorted_rows"))
            assert set(dtypes.values()) == {np.dtype(np.int32)}, dtypes


def test_rows_past_int32_get_int64_tables():
    # h = 2^31 rows, two identical columns of one run each: the second
    # column's global rows pass 2^31, so the tables are int64; no O(h) array
    h = 2**31
    st = assemble_step_index(h, 2, 2, False, np.array([h, h]), np.array([1, 1]),
                             np.array([0, 1]), np.array([1, 1]))
    pr = PrefixSearchIndex(step=st, pa_at_start=np.array([1, 1], np.int64), orig_ids=None)
    dtypes = {k: v.dtype for k, v in vars(st).items() if isinstance(v, np.ndarray)}
    assert dtypes.pop("fore_nq") == dtypes.pop("back_nq") == np.int8
    assert set(dtypes.values()) == {np.dtype(np.int64)}, dtypes
    assert st.extract(1) == st.extract(h) == [0, 1]
    assert st.fore_step(h, 1, 1) == (h, 1) and st.fore_step(1, 1, 1) == (1, 1)
    assert st.back_step(h, 2, 1) == (h, 1) and st.back_step(1, 2, 1) == (1, 1)
    assert pr.partial_prefix_search([0, 1]) == (2, h, 1)
    assert pr.partial_prefix_search([0, 0]) == (1, h, 1)
    assert pr.partial_prefix_search([1]) == (0, h, 1)

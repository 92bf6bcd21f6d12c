import pytest

from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.stepindex import build_step_index
from pbwtstep.subruns import build_back_subruns, build_fore_subruns

from conftest import in_subrun, pos_lookup_back, pos_lookup_fore, rand_panel

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
        fore_t, back_t = pos_lookup_fore(pc), pos_lookup_back(pc)
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
            fore_t = pos_lookup_fore(pc)
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
    pc, _, st = build_all(SMALL)
    assert st.fore_step(2, 1, st.find_fore_subrun(1, 2))[0] == 3
    assert pc.pas[1].tolist().index(int(pc.pas[0][1])) + 1 == 3


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
    end = st.fore_subrun_end(1, x)
    if end < pc.h:
        with pytest.raises(ValueError, match="outside"):
            st.fore_step(end + 1, 1, x)


def test_ragged_back_total_fore_partial(rng):
    for _ in range(25):
        p = rand_panel(rng, ragged=True)
        pc, (fore, back), st = build_all(p)
        back_t = pos_lookup_back(pc)
        for j in range(pc.w, 1, -1):
            for i in range(1, pc.col_len(j) + 1):
                x = st.find_back_subrun(j, i)
                assert st.back_step(i, j, x)[0] == int(back_t[j - 1][i - 1])
        fore_t = pos_lookup_fore(pc)
        for j in range(1, pc.w):
            for i in range(1, pc.col_len(j) + 1):
                x = st.find_fore_subrun(j, i)
                if st.ragged and st.symbol_at_fore(j, x) == 0:
                    continue
                assert st.fore_step(i, j, x)[0] == int(fore_t[j - 1][i - 1])

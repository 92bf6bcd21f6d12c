"""Frozen end-to-end fixtures: two 16-row panels whose PBWT columns realize
known interval layouts, checked through the real build path."""

from pbwtstep.normalize import normalize
from pbwtstep.panel import Interval, IntervalList, Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.stepindex import build_step_index
from pbwtstep.subruns import SubRunLists, back_map, build_fore_subruns, fore_map

# Panel A: column 1 carries runs {[1,2],[3,3],[4,8],[9,11],[12,13],[14,14],[15,16]},
# column 2 carries runs {[1,1],[2,11],[12,16]}; the forward map sends the nine
# sub-runs below onto the reference layout used by the backward tables.
PANEL_A = Panel.from_rows(
    [(1, 0), (1, 0), (4, 1), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0),
     (3, 0), (3, 1), (3, 1), (1, 0), (1, 0), (2, 0), (4, 1), (4, 1)],
    sigma=5)

BACK_PREV = IntervalList([(1, 2), (3, 3), (4, 5), (6, 6), (7, 8),
                          (9, 11), (12, 13), (14, 14), (15, 16)])
REF_LAYOUT = IntervalList([(1, 2), (3, 3), (4, 5), (6, 7), (8, 9), (10, 10),
                           (11, 13), (14, 14), (15, 16)])
BACK_CUR = IntervalList([(1, 1), (2, 5), (6, 10), (11, 11), (12, 16)])

# Panel B: column 1 carries runs {[1,5],[6,6],[7,16]} whose forward image is
# {[1,1],[2,11],[12,16]}; column 2 carries the nine-run reference layout.
PANEL_B = Panel.from_rows(
    [(2, 0), (2, 0), (2, 1), (2, 0), (2, 0), (0, 0), (1, 0), (1, 1),
     (1, 0), (1, 0), (1, 1), (1, 1), (1, 0), (1, 0), (1, 1), (1, 0)],
    sigma=3)

FORE_CUR = IntervalList([(1, 5), (6, 6), (7, 10), (11, 15), (16, 16)])


def test_panel_a_run_layout():
    pc = build_pbwt(PANEL_A)
    assert pc.runs_at(1) == IntervalList([(1, 2), (3, 3), (4, 8), (9, 11),
                                          (12, 13), (14, 14), (15, 16)])
    assert pc.runs_at(2) == IntervalList([(1, 1), (2, 11), (12, 16)])


def test_fore_map_reference_layout():
    pc = build_pbwt(PANEL_A)
    assert fore_map(pc, 1, BACK_PREV.items) == REF_LAYOUT


def test_normalization_example():
    parts = IntervalList([(1, 1), (2, 11), (12, 16)])
    assert normalize(parts, REF_LAYOUT) == BACK_CUR


def test_back_subrun_refinement():
    pc = build_pbwt(PANEL_A)
    assert normalize(pc.runs_at(2), fore_map(pc, 1, BACK_PREV.items)) == BACK_CUR


def test_back_quadruples_and_step():
    pc = build_pbwt(PANEL_A)
    sr = SubRunLists(back_lists=[BACK_PREV, BACK_CUR],
                     fore_lists=build_fore_subruns(pc))
    st = build_step_index(pc, sr)
    bc = st.back_cols[1]
    # sub-run [6,10] overlaps the images of column-1 sub-runs 1, 7 and 8
    assert int(bc.nquads[2]) == 3
    p = int(bc.first_piece[2])
    assert bc.piece_b[p:p + 3].tolist() == [6, 8, 10]
    assert bc.piece_src[p:p + 3].tolist() == [1, 7, 8]
    assert st.back_step(7, 2, 3) == (2, 1)


def test_panel_b_fore_subruns():
    pc = build_pbwt(PANEL_B)
    assert pc.runs_at(1) == IntervalList([(1, 5), (6, 6), (7, 16)])
    assert pc.runs_at(2) == REF_LAYOUT
    assert fore_map(pc, 1, pc.runs_at(1).items) == IntervalList(
        [(1, 1), (2, 11), (12, 16)])
    lists = build_fore_subruns(pc)
    assert lists[1] == REF_LAYOUT
    assert lists[0] == FORE_CUR


def test_back_map_example():
    pc = build_pbwt(PANEL_B)
    refined = IntervalList([(1, 1), (2, 5), (6, 10), (11, 11), (12, 16)])
    assert back_map(pc, 2, refined.items) == FORE_CUR


def test_fore_quintuples_and_step():
    pc = build_pbwt(PANEL_B)
    sr = SubRunLists(back_lists=[], fore_lists=build_fore_subruns(pc))
    st = build_step_index(pc, sr)
    fc = st.fore_cols[0]
    # sub-run [11,15] maps onto [6,10], which column-2 sub-runs 4, 5 and 6 cover
    assert int(fc.image_b[3]) == 6
    assert int(fc.first_lam[3]) == 4
    assert int(fc.nquints[3]) == 3
    assert st.fore_step(14, 1, 4) == (9, 5)

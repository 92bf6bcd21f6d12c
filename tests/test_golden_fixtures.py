"""Frozen end-to-end fixtures: two 16-row panels whose PBWT columns realize
known interval layouts, checked through the real build path."""

import numpy as np

from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt
from pbwtstep.stepindex import build_step_index
from pbwtstep.subruns import build_fore_subruns, run_shifts

from conftest import flat_fore_image, normalized_pieces, pos_lookup_back

# Partitions of [1..16] are written as their starts.
# Panel A: column 1 carries runs {[1,2],[3,3],[4,8],[9,11],[12,13],[14,14],[15,16]},
# column 2 carries runs {[1,1],[2,11],[12,16]}; the forward map sends the nine
# sub-runs below onto the reference layout used by the backward tables.
PANEL_A = Panel.from_rows(
    [(1, 0), (1, 0), (4, 1), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0),
     (3, 0), (3, 1), (3, 1), (1, 0), (1, 0), (2, 0), (4, 1), (4, 1)],
    sigma=5)

BACK_PREV = np.array([1, 3, 4, 6, 7, 9, 12, 14, 15])
REF_LAYOUT = [1, 3, 4, 6, 8, 10, 11, 14, 15]
BACK_CUR = np.array([1, 2, 6, 11, 12])

# Panel B: column 1 carries runs {[1,5],[6,6],[7,16]} whose forward image is
# {[1,1],[2,11],[12,16]}; column 2 carries the nine-run reference layout.
PANEL_B = Panel.from_rows(
    [(2, 0), (2, 0), (2, 1), (2, 0), (2, 0), (0, 0), (1, 0), (1, 1),
     (1, 0), (1, 0), (1, 1), (1, 1), (1, 0), (1, 0), (1, 1), (1, 0)],
    sigma=3)

FORE_CUR = [1, 6, 7, 11, 16]


def test_panel_a_run_layout():
    pc = build_pbwt(PANEL_A)
    assert pc.runs[0].tolist() == [1, 3, 4, 9, 12, 14, 15]
    assert pc.runs[1].tolist() == [1, 2, 12]


def test_fore_map_reference_layout():
    pc = build_pbwt(PANEL_A)
    image, live = flat_fore_image(pc, 1, BACK_PREV)
    assert image.tolist() == REF_LAYOUT
    assert live.tolist() == [4, 6, 7, 1, 12, 14, 9, 3, 15]


def test_normalization_example():
    pieces, src = normalized_pieces(np.array([1, 2, 12]), 16, np.array(REF_LAYOUT))
    assert pieces.tolist() == BACK_CUR.tolist()
    assert src.tolist() == [0, 1, 1, 1, 2]


def test_back_subrun_refinement():
    pc = build_pbwt(PANEL_A)
    image, _ = flat_fore_image(pc, 1, BACK_PREV)
    assert normalized_pieces(pc.runs[1], 16, image)[0].tolist() == BACK_CUR.tolist()


def test_back_quadruples_and_step():
    pc = build_pbwt(PANEL_A)
    st = build_step_index(pc, build_fore_subruns(pc, run_shifts(pc)), [BACK_PREV, BACK_CUR])
    g = st.back_first[1] + 2                   # sub-run 3 of column 2
    # sub-run [6,10] overlaps the images of column-1 sub-runs 1, 7 and 8
    assert int(st.back_nq[g]) == 3
    p = int(st.first_piece[g])
    assert st.piece_ends[p - 1:p + 2].tolist() == [6, 8, 10]   # each piece starts where one ends
    assert (st.piece_src[p:p + 3] - st.back_first[0] + 1).tolist() == [1, 7, 8]
    assert st.back_step(7, 2, 3) == (2, 1)


def test_panel_b_fore_subruns():
    pc = build_pbwt(PANEL_B)
    assert pc.runs[0].tolist() == [1, 6, 7]
    assert pc.runs[1].tolist() == REF_LAYOUT
    image, live = flat_fore_image(pc, 1, pc.runs[0])
    assert image.tolist() == [1, 2, 12] and live.tolist() == [6, 7, 1]
    lists = build_fore_subruns(pc, run_shifts(pc))
    assert lists[1].tolist() == REF_LAYOUT
    assert lists[0].tolist() == FORE_CUR


def test_back_map_example():
    # the run image of column 1, normalized against the reference layout,
    # pulls back by the per-run shift onto FORE_CUR
    pc = build_pbwt(PANEL_B)
    image, live = flat_fore_image(pc, 1, pc.runs[0])
    pieces, src = normalized_pieces(image, 16, np.array(REF_LAYOUT))
    assert pieces.tolist() == [1, 2, 6, 11, 12]
    back = live[src] + pieces - image[src]
    assert np.array_equal(back, pos_lookup_back(PANEL_B)[1][pieces - 1])
    assert sorted(back.tolist()) == FORE_CUR


def test_fore_quintuples_and_step():
    pc = build_pbwt(PANEL_B)
    st = build_step_index(pc, build_fore_subruns(pc, run_shifts(pc)), [])
    g = st.fore_first[0] + 3                   # sub-run 4 of column 1
    # sub-run [11,15] maps onto [6,10], which column-2 sub-runs 4, 5 and 6 cover
    assert int(st.fore_starts[g] + st.fore_delta[g]) == 6
    assert int(st.fore_lam[g] - st.fore_first[1]) + 1 == 4
    assert int(st.fore_nq[g]) == 3
    assert st.fore_step(14, 1, 4) == (9, 5)

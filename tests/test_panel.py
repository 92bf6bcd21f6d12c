import numpy as np
import pytest

from pbwtstep.panel import Panel, PanelError
from pbwtstep.prefixsearch import sort_panel


def test_validate_ok():
    p = Panel.from_strings(["01", "10", "00"])
    assert (p.h, p.w, p.sigma) == (3, 2, 2)


def test_validate_symbol_out_of_range():
    with pytest.raises(PanelError, match="symbol out of range in row 2: 2 not in"):
        Panel.from_rows([[0, 1], [0, 2]], sigma=2)
    with pytest.raises(PanelError, match="symbol out of range in row 1: -1 not in"):
        Panel.from_rows([[-1], [0, 0]], ragged=True)


def test_validate_mixed_lengths():
    with pytest.raises(PanelError, match=r"mixed lengths \[2, 3\]"):
        Panel.from_rows([[0, 1], [1, 0, 0]], ragged=False)
    with pytest.raises(PanelError, match="zero-length rows"):
        Panel.from_strings(["", ""])
    Panel.from_rows([[0, 1], [1, 0, 0]], ragged=True)


def test_validate_empty_panel():
    with pytest.raises(PanelError, match="empty panel"):
        Panel.from_rows([])
    with pytest.raises(PanelError, match="alphabet size 0 < 1"):
        Panel.from_rows([[0]], sigma=0)


def test_declared_sigma_kept():
    p = Panel.from_rows([[0, 1]], sigma=4)
    assert p.sigma == 4


@pytest.mark.parametrize("rows, ragged", [
    (["012", "210", "000"], False),
    (["01", "", "2101", "1", ""], True),
    (["", "", ""], True),
])
def test_from_rows_and_from_strings_agree(rows, ragged):
    a = Panel.from_strings(rows, ragged=ragged)
    b = Panel.from_rows([[int(ch) for ch in r] for r in rows], ragged=ragged)
    assert np.array_equal(a.mat, b.mat) and np.array_equal(a.lens, b.lens)
    assert a.lens.tolist() == [len(r) for r in rows]
    assert a.mat.shape == (len(rows), max(map(len, rows)))
    for pa, pb, r in zip(a.rows, b.rows, rows):
        assert pa.tolist() == pb.tolist() == [int(ch) for ch in r]
    assert a.sigma == b.sigma


def test_sort_panel_keeps_lengths_with_rows():
    rows = ["21", "", "2", "0101", "1", "01"]
    p = Panel.from_strings(rows, ragged=True)
    ids = sort_panel(p)
    assert ids.tolist() == [2, 6, 4, 5, 3, 1]
    # read through the order, the rows and their lengths come out sorted
    assert p.lens[ids - 1].tolist() == [len(r) for r in sorted(rows)]
    assert ["".join(map(str, p.rows[i - 1].tolist())) for i in ids] == sorted(rows)


@pytest.mark.parametrize("mat, lens, ragged, msg", [
    ([[1, 1], [0, 0]], [1, 2], True, "row 1 has symbols after its length 1"),
    ([[1, 1], [0, 0]], [2, 2, 2], True, "row lengths are not 2 integers"),
    ([[1, 1], [0, 0]], [2, 3], True, r"row 2 has length 3, not in \[0..2\]"),
    ([[0, 1], [0, 0]], [-1, 2], True, r"row 1 has length -1, not in \[0..2\]"),
    ([[0.5, 1.0], [1.0, 0.0]], [2, 2], False, "not a 2-D integer array"),
    ([1, 0], [2], False, "not a 2-D integer array"),
], ids=["padding", "lens_count", "lens_above_w", "lens_negative", "float_matrix", "1d_matrix"])
def test_constructor_checks_matrix_and_lengths(mat, lens, ragged, msg):
    with pytest.raises(PanelError, match=msg):
        Panel(np.array(mat), np.array(lens), sigma=2, ragged=ragged)

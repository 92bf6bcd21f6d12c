import pytest

from pbwtstep.panel import Panel, PanelError, validate_panel


def test_validate_ok():
    p = Panel.from_strings(["01", "10", "00"])
    rep = validate_panel(p)
    assert (rep.h, rep.w, rep.sigma) == (3, 2, 2)
    assert rep.sigma_inferred


def test_validate_symbol_out_of_range():
    p = Panel.from_rows([[0, 2]], sigma=2)
    with pytest.raises(PanelError, match="symbol out of range"):
        validate_panel(p)


def test_validate_mixed_lengths():
    p = Panel.from_rows([[0, 1], [1, 0, 0]], ragged=False)
    with pytest.raises(PanelError, match="mixed lengths"):
        validate_panel(p)
    validate_panel(Panel.from_rows([[0, 1], [1, 0, 0]], ragged=True))


def test_validate_empty_panel():
    with pytest.raises(PanelError, match="empty panel"):
        validate_panel(Panel.from_rows([]))


def test_declared_sigma_kept():
    p = Panel.from_rows([[0, 1]], sigma=4)
    rep = validate_panel(p)
    assert rep.sigma == 4 and not rep.sigma_inferred

from types import SimpleNamespace

import numpy as np
import pytest

from pbwtstep.panel import Panel
from pbwtstep.pbwt import build_pbwt

from conftest import rand_panel, retrieval_index


def test_extract_examples():
    ret = retrieval_index(Panel.from_strings(["01", "10", "00"]))
    assert ret.extract(2) == [1, 0]
    ret = retrieval_index(Panel.from_strings(["0123"] * 4, sigma=4))
    assert all(ret.extract(i) == [0, 1, 2, 3] for i in range(1, 5))
    with pytest.raises(ValueError):
        ret.extract(0)
    with pytest.raises(ValueError):
        ret.extract(5)


def test_full_panel_round_trip(rng):
    for ragged in (False, True):
        for _ in range(60):
            p = rand_panel(rng, ragged=ragged)
            ret = retrieval_index(p)
            for i in range(1, p.h + 1):
                assert ret.extract(i) == [int(s) for s in p.rows[i - 1]]


class _CountingStep:
    """Counts the reads that ``step``'s queries make through ``step.mv`` of
    its flat step and symbol tables: ``fore_calls`` reads of ``fore_delta``,
    one per forward step, and ``symbol_calls`` reads of ``fore_vals``, one
    per symbol access."""

    def __init__(self, step):
        self.fore_calls = 0
        self.symbol_calls = 0
        step.mv = SimpleNamespace(**vars(step.mv))
        step.mv.fore_delta = _CountedReads(step.mv.fore_delta, self, "fore_calls")
        step.mv.fore_vals = _CountedReads(step.mv.fore_vals, self, "symbol_calls")


class _CountedReads:
    def __init__(self, table, counter, field):
        self.table, self.counter, self.field = table, counter, field

    def __getitem__(self, k):
        setattr(self.counter, self.field, getattr(self.counter, self.field) + 1)
        return self.table[k]


def test_extract_work_is_one_pass(rng):
    for _ in range(20):
        p = rand_panel(rng)
        ret = retrieval_index(p)
        counter = _CountingStep(ret)
        for i in range(1, p.h + 1):
            counter.fore_calls = counter.symbol_calls = 0
            ret.extract(i)
            assert counter.fore_calls == p.w - 1
            assert counter.symbol_calls == p.w


def test_start_list_is_small(rng):
    for _ in range(40):
        p = rand_panel(rng)
        pc = build_pbwt(p)
        ret = retrieval_index(p)
        starts = ret.fore_cols[0].starts
        assert starts.size <= 2 * pc.total_runs
        assert int(starts[0]) == 1
        assert np.all(np.diff(starts) > 0)

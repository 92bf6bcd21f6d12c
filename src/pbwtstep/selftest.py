"""Randomized cross-validation of every query path against brute force.

Each generated panel is built twice (counting pass vs comparison sort), its
bounds are checked, all stepping chains are compared against prefix-array
position lookups, prefix searches against a row scan, and extraction against
the stored rows; a sample of panels additionally round-trips through the
index file. Deterministic for a fixed seed. The checks raise
``SelftestFailure`` explicitly, so they still run under ``python -O``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .bounds import check_bounds
from .io import build_index, load_index, save_index
from .panel import Panel
from .pbwt import build_pbwt, build_pbwt_reference, naive_back, naive_fore
from .stepindex import build_step_index
from .subruns import build_subruns


class SelftestFailure(Exception):
    """A query path disagreed with its brute-force oracle."""


def _check(cond, msg: str) -> None:
    if not cond:
        raise SelftestFailure(msg)


def random_panel(rng: np.random.Generator, h_max: int = 16, w_max: int = 12,
                 sigma_max: int = 4, ragged: bool = False) -> Panel:
    """Panel with realistic run structure: a few base rows plus mutations."""
    h = int(rng.integers(1, h_max + 1))
    w = int(rng.integers(1, w_max + 1))
    sigma = int(rng.integers(1, sigma_max + 1))
    style = rng.integers(0, 3)
    if style == 0:
        rows = rng.integers(0, sigma, size=(h, w))
    else:
        n_base = int(rng.integers(1, max(2, h // 2 + 1)))
        bases = rng.integers(0, sigma, size=(n_base, w))
        rows = bases[rng.integers(0, n_base, size=h)].copy()
        if style == 2:
            mut = rng.random(size=rows.shape) < 0.1
            rows[mut] = rng.integers(0, sigma, size=int(mut.sum()))
    row_list = [row for row in rows]
    if ragged:
        row_list = [row[:int(rng.integers(0, w + 1))] for row in row_list]
    return Panel.from_rows(row_list, sigma=sigma, ragged=ragged)


def scan_prefix_oracle(p: Panel, pattern) -> tuple[int, int, int]:
    """Row-scan answer: longest shared prefix, row count, smallest row id."""
    pat = list(pattern)
    best = 0
    for row in p.rows:
        k = 0
        while k < len(pat) and k < len(row) and int(row[k]) == pat[k]:
            k += 1
        best = max(best, k)
    if best == 0:
        return 0, p.h, 1
    ids = [i for i in range(1, p.h + 1)
           if len(p.rows[i - 1]) >= best
           and [int(s) for s in p.rows[i - 1][:best]] == pat[:best]]
    return best, len(ids), ids[0]


def random_patterns(rng: np.random.Generator, p: Panel, count: int = 6) -> list[list[int]]:
    pats: list[list[int]] = [[]]
    wmax = max((len(r) for r in p.rows), default=1)
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0 and p.h:
            row = p.rows[int(rng.integers(0, p.h))]
            cut = int(rng.integers(0, len(row) + 1)) if len(row) else 0
            pats.append([int(s) for s in row[:cut]])
        elif kind == 1:
            m = int(rng.integers(1, wmax + 2))
            pats.append([int(s) for s in rng.integers(0, p.sigma, size=m)])
        else:
            row = p.rows[int(rng.integers(0, p.h))]
            pat = [int(s) for s in row]
            if pat:
                pos = int(rng.integers(0, len(pat)))
                pat[pos] = (pat[pos] + 1) % max(p.sigma, 1)
            pats.append(pat)
    return pats


def _check_panel(rng: np.random.Generator, p: Panel, do_io: bool) -> int:
    checks = 0
    pc = build_pbwt(p)
    ref = build_pbwt_reference(p)
    for j in range(1, pc.w + 1):
        _check(np.array_equal(pc.pbwt_col(j), ref.pbwt_col(j)), "builder mismatch (pbwt)")
        _check(np.array_equal(pc.pa_col(j), ref.pa_col(j)), "builder mismatch (pa)")
        checks += 1
    if not p.ragged:
        _check(check_bounds(p, pc).passed, "bounds check failed")
        checks += 1
    sr = build_subruns(pc)
    _check(sr.total_back() < 2 * pc.total_runs, "back sub-run bound violated")
    _check(sr.total_fore() < 2 * pc.total_runs, "fore sub-run bound violated")
    checks += 2
    step = build_step_index(pc, sr)
    for i0 in range(1, pc.h + 1):
        i, x = i0, step.find_fore_subrun(1, i0)
        for j in range(1, pc.w):
            if pc.terminator is not None and step.symbol_at_fore(j, x) == pc.terminator:
                break
            _check(step.symbol_at_fore(j, x) == int(pc.pbwt_col(j)[i - 1]),
                   "symbol_at_fore mismatch")
            i2, x2 = step.fore_step(i, j, x)
            _check(i2 == naive_fore(pc, i, j), "fore_step mismatch")
            _check(step.fore_cols[j].starts[x2 - 1] <= i2 <= step.fore_subrun_end(j + 1, x2),
                   "fore_step left its sub-run")
            i, x = i2, x2
        checks += 1
    for i0 in range(1, pc.col_len(pc.w) + 1):
        i, x = i0, step.find_back_subrun(pc.w, i0)
        for j in range(pc.w, 1, -1):
            _check(step.symbol_at_back(j, x) == int(pc.pbwt_col(j)[i - 1]),
                   "symbol_at_back mismatch")
            i2, x2 = step.back_step(i, j, x)
            _check(i2 == naive_back(pc, i, j), "back_step mismatch")
            i, x = i2, x2
        checks += 1
    ix = build_index(p)
    ixs = build_index(p, sorted_rows=True, fore_only=True).prefix
    for pat in random_patterns(rng, p):
        got = ix.prefix.partial_prefix_search(pat)
        want = scan_prefix_oracle(p, pat)
        _check(got == want, f"prefix mismatch: {got} != {want} for {pat}")
        m1, ids = ixs.enumerate_prefixed(pat)
        _check(m1 == want[0] and len(ids) == want[1], "enumeration mismatch")
        checks += 2
    for i in range(1, p.h + 1):
        _check(ix.retrieval.extract(i) == [int(s) for s in p.rows[i - 1]], "extract mismatch")
        checks += 1
    if do_io:
        fd, path = tempfile.mkstemp(suffix=".pbwtstep")
        os.close(fd)
        try:
            save_index(path, ix)
            loaded = load_index(path)
            for pat in random_patterns(rng, p, count=3):
                _check(loaded.prefix.partial_prefix_search(pat) ==
                       ix.prefix.partial_prefix_search(pat), "round-trip prefix mismatch")
            for i in range(1, p.h + 1):
                _check(loaded.retrieval.extract(i) == ix.retrieval.extract(i),
                       "round-trip extract mismatch")
            checks += 1
        finally:
            os.unlink(path)
    return checks


def run_selftest(seed: int = 0, panels: int = 50, log=None) -> tuple[bool, str]:
    """Run the suite; returns (ok, summary line)."""
    rng = np.random.default_rng(seed)
    total = 0
    try:
        for k in range(panels):
            p = random_panel(rng, ragged=(k % 4 == 3))
            total += _check_panel(rng, p, do_io=(k % 10 == 9))
            if log is not None and (k + 1) % 10 == 0:
                log(f"selftest: {k + 1}/{panels} panels ok")
    except (SelftestFailure, AssertionError) as exc:
        return False, f"selftest FAILED after {total} checks: {exc}"
    return True, f"selftest passed: panels={panels} seed={seed} checks={total}"

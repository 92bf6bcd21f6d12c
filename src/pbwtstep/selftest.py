"""Randomized checks of every query path against the panel it was built from.

Each generated panel has its bounds checked, its sub-run lists must stay
below ``2*r_tilde`` and start a sub-run at every run start, and every row is
chained forward from column 1 and backward from its own last column: each
step must land on the row's position in the adjacent column's prefix array,
and each sub-run symbol must be the row's own symbol there. Since column 1
lists the rows in order and a forward step is a stable sort by symbol, this
also checks the prefix arrays themselves. Prefix searches are compared with
a row scan, a sorted index's positions and ids with Python's sort of the
rows, and extraction with the stored rows; a sample of panels also
round-trips through the index file. Deterministic for a fixed seed. The
checks raise ``SelftestFailure`` explicitly, so they still run under
``python -O``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .bounds import check_bounds
from .io import build_index, load_index, save_index
from .panel import Panel
from .pbwt import column_orders, extract_runs, internal_matrix


class SelftestFailure(Exception):
    """A query path disagreed with the panel it was built from."""


def _check(cond, msg: str) -> None:
    if not cond:
        raise SelftestFailure(msg)


def random_panel(rng: np.random.Generator, ragged: bool = False) -> Panel:
    """Panel with realistic run structure: a few base rows plus mutations;
    up to 16 rows, 12 columns and 4 symbols."""
    h = int(rng.integers(1, 17))
    w = int(rng.integers(1, 13))
    sigma = int(rng.integers(1, 5))
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
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0 and p.h:
            row = p.rows[int(rng.integers(0, p.h))]
            cut = int(rng.integers(0, len(row) + 1)) if len(row) else 0
            pats.append([int(s) for s in row[:cut]])
        elif kind == 1:
            m = int(rng.integers(1, p.w + 2))
            pats.append([int(s) for s in rng.integers(0, p.sigma, size=m)])
        else:
            row = p.rows[int(rng.integers(0, p.h))]
            pat = [int(s) for s in row]
            if pat:
                pos = int(rng.integers(0, len(pat)))
                pat[pos] = (pat[pos] + 1) % max(p.sigma, 1)
            pats.append(pat)
    return pats


def _check_panel(rng: np.random.Generator, p: Panel, do_io: bool):
    """Run every check on one panel, yielding the number of checks as they
    pass, so a failure still reports the checks that passed before it."""
    if not p.ragged:
        _check(check_bounds(p).passed, "bounds check failed")
        yield 1
    syms = internal_matrix(p)
    # pos[r][j - 1]: 1-based position of row r + 1 in column j's prefix array
    pos, runs = np.zeros(syms.shape, np.int64), []
    for j, (col, pa) in enumerate(column_orders(p)):
        pos[pa - 1, j] = np.arange(1, pa.size + 1)
        runs.append(extract_runs(col))
    total_runs = sum(r.size for r in runs)
    ix = build_index(p)
    step = ix.step
    _check(step.back_starts.size < 2 * total_runs, "back sub-run bound violated")
    _check(step.fore_starts.size < 2 * total_runs, "fore sub-run bound violated")
    yield 2
    fs, ff, bf = step.fore_starts, step.fore_first.tolist(), step.back_first.tolist()
    for j, r in enumerate(runs):
        _check(np.isin(r, step.back_starts[bf[j]:bf[j + 1]]).all()
               and np.isin(r, fs[ff[j]:ff[j + 1]]).all(), "a sub-run crosses a run boundary")
        yield 1
    pos, syms = pos.tolist(), syms.tolist()
    last = (p.lens + p.ragged).tolist()    # each row's last column: its terminator if ragged
    for r in range(p.h):
        i, x = r + 1, step.find_fore_subrun(1, r + 1)
        for j in range(1, last[r] + 1):
            _check(step.symbol_at_fore(j, x) == syms[r][j - 1], "symbol_at_fore mismatch")
            if j == last[r]:
                break
            i, x = step.fore_step(i, j, x)
            _check(i == pos[r][j], "fore_step mismatch")
            g = ff[j] + x - 1
            _check(1 <= x <= ff[j + 1] - ff[j] and fs[g] <= i < step.fore_ends[g],
                   "fore_step left its sub-run")
        yield 1
    for r in range(p.h):
        i = pos[r][last[r] - 1]
        x = step.find_back_subrun(last[r], i)
        for j in range(last[r], 0, -1):
            _check(step.symbol_at_back(j, x) == syms[r][j - 1], "symbol_at_back mismatch")
            if j == 1:
                break
            i, x = step.back_step(i, j, x)
            _check(i == pos[r][j - 2], "back_step mismatch")
        yield 1
    ixs = build_index(p, sorted_rows=True, fore_only=True).prefix
    rows = [r.tolist() for r in p.rows]
    # list order puts a row before its extensions; the stable sort keeps ties in file order
    order = sorted(range(p.h), key=rows.__getitem__)
    for pat in random_patterns(rng, p):
        got = ix.prefix.partial_prefix_search(pat)
        want = m, occ, _ = scan_prefix_oracle(p, pat)
        _check(got == want, f"prefix mismatch: {got} != {want} for {pat}")
        carry = [k for k, r in enumerate(order) if rows[r][:m] == pat[:m]]
        _check(ixs.partial_prefix_search(pat) == (m, occ, carry[0] + 1), "sorted prefix mismatch")
        _check(ixs.row_ids(carry[0] + 1, occ) == [order[k] + 1 for k in carry],
               "enumeration mismatch")
        yield 3
    for i in range(1, p.h + 1):
        _check(ix.retrieval.extract(i) == [int(s) for s in p.rows[i - 1]], "extract mismatch")
        yield 1
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
            yield 1
        finally:
            os.unlink(path)


def run_selftest(seed: int = 0, panels: int = 50, log=None) -> tuple[bool, str]:
    """Run the suite; returns (ok, summary line)."""
    rng = np.random.default_rng(seed)
    total = 0
    try:
        for k in range(panels):
            p = random_panel(rng, ragged=(k % 4 == 3))
            for passed in _check_panel(rng, p, do_io=(k % 10 == 9)):
                total += passed
            if log is not None and (k + 1) % 10 == 0:
                log(f"selftest: {k + 1}/{panels} panels ok")
    except (SelftestFailure, ValueError) as exc:   # ValueError: a step refused its input
        return False, f"selftest FAILED after {total} checks: {exc}"
    return True, f"selftest passed: panels={panels} seed={seed} checks={total}"

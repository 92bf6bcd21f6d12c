"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: the PBWT is
checked against a comparison sort, stepping against prefix-array position
lookups, prefix search against the selftest's row scan, normalization
against an O(n^2) splitter.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pbwtstep.io import build_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import column_orders, extract_runs, internal_matrix
from pbwtstep.selftest import scan_prefix_oracle as scan_prefix  # row-scan prefix oracle


def rand_partition(rng, n, max_parts=None):
    """Random partition of [1..n] into closed (b, e) intervals."""
    if n == 1:
        return [(1, 1)]
    k = rng.integers(0, n) if max_parts is None else rng.integers(0, max_parts)
    cuts = sorted(set(rng.integers(1, n, size=int(k)).tolist()))
    bounds = [0] + cuts + [n]
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def starts_of(intervals):
    """The start array the library uses for a partition given as (b, e) tuples."""
    return np.array([b for b, _ in intervals], np.int64)


def rand_panel(rng, h_max=16, w_max=12, sigma_max=4, ragged=False):
    """Random panel mixing uniform noise with mutated copies of base rows."""
    h = int(rng.integers(1, h_max + 1))
    w = int(rng.integers(1, w_max + 1))
    sigma = int(rng.integers(1, sigma_max + 1))
    style = int(rng.integers(0, 3))
    if style == 0:
        rows = rng.integers(0, sigma, size=(h, w))
    else:
        n_base = int(rng.integers(1, max(2, h // 2 + 1)))
        bases = rng.integers(0, sigma, size=(n_base, w))
        rows = bases[rng.integers(0, n_base, size=h)].copy()
        if style == 2:
            mut = rng.random(size=rows.shape) < 0.12
            rows[mut] = rng.integers(0, sigma, size=int(mut.sum()))
    row_list = [r for r in rows]
    if ragged:
        row_list = [r[:int(rng.integers(0, w + 1))] for r in row_list]
    return Panel.from_rows(row_list, sigma=sigma, ragged=ragged)


def in_subrun(first, starts, ends, j, x, i):
    """Whether row i lies in sub-run x of column j of a step index's flat
    tables (``first``: each column's first flat index, then the count)."""
    g = first[j - 1] + x - 1
    return 1 <= x <= first[j] - first[j - 1] and starts[g] <= i < ends[g]


def prefix_index(p: Panel, sorted_rows=False):
    """The prefix-search part of a forward-only index."""
    return build_index(p, sorted_rows=sorted_rows, fore_only=True).prefix


def retrieval_index(p: Panel):
    """The retrieval part of a forward-only index."""
    return build_index(p, fore_only=True).retrieval


# ------------------------------------------------------------------- oracles

def build_pbwt_reference(p: Panel) -> SimpleNamespace:
    """Quadratic comparison-sort construction, an oracle for ``column_orders``
    and ``build_pbwt``: each column's symbols ``cols``, prefix array ``pas``
    (1-based row ids) and ``runs``, and ``w``.

    Sorts, for every column, the reversed (j-1)-prefixes with Python's stable
    sort instead of the incremental bucket pass.
    """
    mat = internal_matrix(p)
    lens = (p.lens + p.ragged).tolist()
    cols, pas = [], []
    for j in range(1, mat.shape[1] + 1):
        alive = [i for i in range(1, p.h + 1) if lens[i - 1] >= j]
        alive.sort(key=lambda i: tuple(mat[i - 1, :j - 1][::-1].tolist()))
        pas.append(np.array(alive, np.int64))
        cols.append(np.array([mat[i - 1, j - 1] for i in alive], np.int64))
    return SimpleNamespace(w=len(cols), cols=cols, pas=pas, runs=[extract_runs(c) for c in cols])


def prefix_arrays(p: Panel, first=None) -> list[np.ndarray]:
    """Each column's prefix array, as ``column_orders`` yields it."""
    return [order for _, order in column_orders(p, first)]


def pos_lookup_fore(p: Panel):
    """fore tables from prefix-array position lookups only: out[j][i-1] is the
    1-based target of position i in column j, or 0 where undefined."""
    pas = prefix_arrays(p)
    tables = []
    for j in range(1, len(pas)):
        nxt = {int(rid): k for k, rid in enumerate(pas[j], 1)}
        tables.append(np.array([nxt.get(int(rid), 0) for rid in pas[j - 1]], np.int64))
    return tables


def pos_lookup_back(p: Panel):
    pas = prefix_arrays(p)
    tables = [None]
    for j in range(2, len(pas) + 1):
        prv = {int(rid): k for k, rid in enumerate(pas[j - 2], 1)}
        tables.append(np.array([prv[int(rid)] for rid in pas[j - 1]], np.int64))
    return tables


def brute_overlaps(iv, items):
    """0-based indices of (b, e) intervals intersecting iv, by linear scan."""
    return [k for k, q in enumerate(items) if q[0] <= iv[1] and iv[0] <= q[1]]


def brute_normalize(parts, ref):
    """O(n^2) splitter over (b, e) tuples: cut after every third overlapped
    ref interval."""
    if len(ref) <= 3:
        return list(parts)
    out = []
    for b, e in parts:
        while True:
            ovl = brute_overlaps((b, e), ref)
            if len(ovl) <= 3:
                out.append((b, e))
                break
            d = ref[ovl[2]][1]
            out.append((b, d))
            b = d + 1
    return out


def pattern_battery(rng, p: Panel, count=8):
    """Patterns biased toward interesting cases: row prefixes, mutated rows,
    uniform noise, over-length, out-of-alphabet, and the empty pattern."""
    pats = [[]]
    wmax = max(1, max((len(r) for r in p.rows), default=1))
    for _ in range(count):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            row = p.rows[int(rng.integers(0, p.h))]
            cut = int(rng.integers(0, len(row) + 1)) if len(row) else 0
            pats.append([int(s) for s in row[:cut]])
        elif kind == 1:
            m = int(rng.integers(1, wmax + 3))
            pats.append([int(s) for s in rng.integers(0, p.sigma, size=m)])
        elif kind == 2:
            row = p.rows[int(rng.integers(0, p.h))]
            pat = [int(s) for s in row]
            if pat:
                pos = int(rng.integers(0, len(pat)))
                pat[pos] = (pat[pos] + 1) % max(p.sigma, 1)
            pats.append(pat)
        else:
            m = int(rng.integers(1, wmax + 1))
            pat = [int(s) for s in rng.integers(0, p.sigma, size=m)]
            pat[int(rng.integers(0, m))] = p.sigma  # out-of-alphabet symbol
            pats.append(pat)
    return pats


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: the PBWT is
checked against a comparison sort, stepping against prefix-array position
lookups, prefix search against the selftest's row scan, normalization
against an O(n^2) splitter, the flat sub-run builders against builders
that sort and cut one column at a time, and the step-table assembly against
one that searches both ends of every image.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pbwtstep.io import build_index
from pbwtstep.panel import Panel
from pbwtstep.pbwt import column_orders, extract_runs, internal_matrix
from pbwtstep.selftest import scan_prefix_oracle as scan_prefix  # row-scan prefix oracle
from pbwtstep.stepindex import fore_shift, narrow, table_dtype
from pbwtstep.subruns import normalize


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


def flat_fore_image(pc, j, starts):
    """``stepindex.fore_shift`` on column-j parts that each lie in one run:
    the image starts in column j+1, ascending, and the starts of the live
    parts in the same order."""
    sym = pc.cols[j - 1][starts - 1]
    lens = np.append(starts[1:], pc.cols[j - 1].size + 1) - starts
    order, image, _ = fore_shift(starts, lens, sym, np.zeros(starts.size, np.intp),
                                 np.array([0, starts.size]), int(pc.ragged))
    live = sym[order] >= pc.ragged
    return image[live], starts[order][live]


def normalized_pieces(starts, n, ref):
    """The parts of a partition of [1..n] cut by ``normalize`` against
    ``ref``: the piece starts and, per piece, the 0-based part it came from."""
    starts, ref = np.asarray(starts, np.int64), np.asarray(ref, np.int64)
    k, cuts = normalize(np.stack((starts, np.append(starts[1:] - 1, n)), 1).ravel(), ref)
    return np.sort(np.concatenate((starts, cuts))), np.repeat(np.arange(starts.size), k + 1)


def prefix_index(p: Panel, sorted_rows=False):
    """The prefix-search part of a forward-only index."""
    return build_index(p, sorted_rows=sorted_rows, fore_only=True).prefix


def retrieval_index(p: Panel):
    """The retrieval part of a forward-only index: its step index."""
    return build_index(p, fore_only=True).retrieval


def enumerate_ids(ix, pattern):
    """Longest shared prefix length and the original ids of all rows carrying
    it, in sorted-position order: ``partial_prefix_search`` and then
    ``row_ids``, the two calls of the CLI's ``prefix --enumerate``."""
    m_prime, occ, witness = ix.partial_prefix_search(pattern)
    return m_prime, ix.row_ids(witness, occ)


def sorted_interval(ix, pattern):
    """Longest shared prefix length and the sorted-row interval carrying it,
    from the witness and count of ``ix.partial_prefix_search``."""
    m_prime, occ, witness = ix.partial_prefix_search(pattern)
    return m_prime, (witness, witness + occ - 1)


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


def reference_normalize(starts, n, ref):
    """Oracle for ``normalize`` on one column: the parts of a partition of
    [1..n] split so that each piece overlaps at most three intervals of
    ``ref``. Returns the piece starts and, per piece, the 0-based index of
    the part it came from."""
    starts = np.asarray(starts, dtype=np.int64)
    ref = np.asarray(ref, dtype=np.int64)
    ends = np.append(starts[1:] - 1, n)
    qa = np.searchsorted(ref, starts, side="right") - 1
    cuts = (np.searchsorted(ref, ends, side="right") - 1 - qa) // 3
    src = np.repeat(np.arange(starts.size), cuts + 1)
    first = np.cumsum(cuts + 1) - (cuts + 1)        # each part's first piece
    t = np.arange(src.size) - first[src]            # piece number within its part
    pieces = np.where(t == 0, starts[src], ref[qa[src] + 3 * t])
    return pieces, src


def reference_fore_image(pc, j, starts):
    """Forward image of column-j parts that each lie inside one run, by a
    per-column stable sort on symbol: the image starts in column j+1,
    ascending, and the starts of the live parts in the same order."""
    if not 1 <= j < pc.w:
        raise ValueError(f"column {j} has no forward image")
    sym = pc.cols[j - 1][starts - 1]
    # terminator parts sort first and drop out
    order = np.argsort(sym, kind="stable")[np.count_nonzero(sym < pc.ragged):]
    lens = (np.append(starts[1:], pc.cols[j - 1].size + 1) - starts)[order]
    return np.cumsum(lens) - lens + 1, starts[order]


def reference_back_subruns(pc):
    """Per-column oracle for ``build_back_subruns``: each column's runs
    normalized against the forward image of the previous list."""
    lists = [pc.runs[0]]
    for j in range(2, pc.w + 1):
        image, _ = reference_fore_image(pc, j - 1, lists[-1])
        lists.append(reference_normalize(pc.runs[j - 1], pc.cols[j - 1].size, image)[0])
    return lists


def reference_fore_subruns(pc):
    """Per-column oracle for ``build_fore_subruns``: each column's run image
    normalized against the next list and the pieces pulled back by the
    run's shift; terminator runs pass through."""
    w = pc.w
    lists = [pc.runs[w - 1]] * w
    for j in range(w - 1, 0, -1):
        runs = pc.runs[j - 1]
        image, live = reference_fore_image(pc, j, runs)
        pieces, src = reference_normalize(image, pc.cols[j].size, lists[j])
        dead = runs[pc.cols[j - 1][runs - 1] < pc.ragged]
        lists[j - 1] = np.sort(np.concatenate((live[src] + pieces - image[src], dead)))
    return lists


def _reference_split(starts, col_lens, side):
    """``split_columns`` with each start's column counted by a cumsum."""
    first = np.flatnonzero(starts == 1)
    if first.size != col_lens.size or first[:1].any():
        raise ValueError(f"{side} sub-run starts do not split into {col_lens.size} columns")
    col, first = np.cumsum(starts == 1) - 1, np.append(first, starts.size)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[first[1:] - 1] = col_lens + 1
    if (ends <= starts).any():
        raise ValueError(f"{side} sub-run starts not increasing inside their column")
    return col, first, ends


def reference_step_tables(h, w, sigma, ragged, col_lens, fore_starts, fore_vals, back_starts):
    """Oracle for ``assemble_step_index`` on the same stored arrays: every
    table by field name, plus ``total_runs``, and ValueError with the
    assembly's message where it refuses. The (column, symbol) order is
    ``np.lexsort``'s; each image's overlap count searches both of its ends; a
    run boundary is checked against the last back start at or before it; the
    pieces are the back sub-runs' images under the fore shifts, ordered by an
    argsort of their global starts; and each back sub-run's piece count
    searches both of its ends."""
    if not (h >= 1 and w >= 1 and 1 <= sigma < 2**62 and h * w < 2**62):
        raise ValueError(f"dimensions out of range: h={h} w={w} sigma={sigma}")
    dt = table_dtype(col_lens, sigma)
    col_lens, fs, fv = (narrow(a, dt) for a in (col_lens, fore_starts, fore_vals))
    if col_lens.size != w or int(col_lens[0]) != h or fv.size != fs.size:
        raise ValueError("array sizes do not match the dimensions")
    fcol, ffirst, fends = _reference_split(fs, col_lens, "fore")
    if ((fv < 0) | (fv >= sigma)).any():
        raise ValueError("fore sub-run symbol outside the alphabet")
    lo, flen = int(ragged), fends - fs
    if not np.array_equal(col_lens[1:], np.add.reduceat(flen * (fv >= lo), ffirst[:-1])[:-1]):
        raise ValueError("column lengths differ from the rows stepping into them")
    base = np.cumsum(col_lens, dtype=dt) - col_lens
    fglob = base[fcol] + fs
    order = np.lexsort((fv, fcol))
    scol, ssym, slen = fcol[order], fv[order], flen[order]
    live = slen * (ssym >= lo)
    image = np.cumsum(live, dtype=dt) - live
    image -= image[ffirst[:-1]][scol] - 1
    delta = np.zeros_like(fs)
    delta[order] = (image - fs[order]) * (ssym >= lo)
    steps = np.flatnonzero((ssym >= lo) & (scol < w - 1))
    tb = base[scol[steps] + 1] + image[steps]
    first = np.searchsorted(fglob, tb, side="right") - 1
    nq = np.searchsorted(fglob, tb + slen[steps] - 1, side="right") - first
    if (nq > 3).any():
        raise ValueError("a fore sub-run's image overlaps more than 3 sub-runs")
    lam, fore_nq = np.zeros_like(fs), np.zeros(fs.size, np.int8)
    lam[order[steps]], fore_nq[order[steps]] = first, nq
    run_start = np.append(True, fv[1:] != fv[:-1])
    run_start[ffirst[:-1]] = True
    total_runs = int(run_start.sum())
    if fs.size >= 2 * total_runs:
        raise ValueError(f"{fs.size} fore sub-runs, not fewer than 2*total_runs")
    offsets = np.flatnonzero(np.append(True, (scol[1:] != scol[:-1]) | (ssym[1:] != ssym[:-1])))
    tables = dict(col_lens=col_lens, fore_starts=fs, fore_vals=fv, total_runs=total_runs,
                  fore_first=ffirst.astype(dt), fore_ends=fends, fore_delta=delta,
                  fore_lam=lam, fore_nq=fore_nq, by_symbol=order.astype(dt),
                  sym_first=np.searchsorted(scol[offsets], np.arange(w + 1)).astype(dt),
                  sym_vals=ssym[offsets], sym_offsets=np.append(offsets, fs.size).astype(dt))
    if back_starts is None:
        return tables
    bs = narrow(back_starts, dt)
    bcol, bfirst, bends = _reference_split(bs, col_lens, "back")
    if bs.size >= 2 * total_runs:
        raise ValueError(f"{bs.size} back sub-runs, not fewer than 2*total_runs")
    bglob = base[bcol] + bs
    rglob = fglob[run_start]
    if (bglob[np.searchsorted(bglob, rglob, side="right") - 1] != rglob).any():
        raise ValueError("a run boundary is not a back sub-run start")
    k = np.searchsorted(fglob, bglob, side="right") - 1
    bvals = fv[k]
    src = np.flatnonzero((bvals >= lo) & (bcol < w - 1))
    pglob = base[bcol[src] + 1] + bs[src] + delta[k[src]]
    porder = np.argsort(pglob, kind="stable")
    pglob, src = pglob[porder], src[porder]
    piece_starts = pglob - base[bcol[src] + 1]
    _, _, piece_ends = _reference_split(piece_starts, col_lens[1:], "piece")
    t = int(bfirst[1])
    first = np.searchsorted(pglob, bglob[t:], side="right") - 1
    nq = np.searchsorted(pglob, base[bcol[t:]] + bends[t:] - 1, side="right") - first
    if (nq > 3).any():
        raise ValueError("a back sub-run overlaps more than 3 pieces")
    first_piece, back_nq = np.zeros_like(bs), np.zeros(bs.size, np.int8)
    first_piece[t:], back_nq[t:] = first, nq
    return tables | dict(back_starts=bs, back_first=bfirst.astype(dt), back_ends=bends,
                         back_vals=bvals, back_nq=back_nq, first_piece=first_piece,
                         piece_ends=piece_ends, piece_shift=bs[src] - piece_starts,
                         piece_src=src.astype(dt))


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

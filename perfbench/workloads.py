"""Seeded panels and queries for the benchmark, and the row-scan oracle.

Every panel is "blocky": mutated copies of a few random base rows, which
gives realistic run structure. The same (workload, seed) always yields
byte-identical panel and query files; the package under test only ever sees
those files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    key: int                  # mixed into the seed so workloads never share inputs
    h: int
    w: int
    sigma: int
    bases: int
    mutation: float           # per-cell probability of redrawing the symbol
    sorted_rows: bool = False
    fore_only: bool = False
    ragged: bool = False      # row lengths uniform in [w // 2, w]


WORKLOADS = {
    "blocky": Workload(key=1, h=2000, w=300, sigma=4, bases=40, mutation=0.02),
    "deep": Workload(key=2, h=8000, w=600, sigma=2, bases=4, mutation=0.00005,
                     sorted_rows=True),
    "ragged": Workload(key=3, h=2000, w=300, sigma=4, bases=40, mutation=0.02,
                       fore_only=True, ragged=True),
}

QUERY_POOL = 4000             # queries of each kind; the timed loop cycles through them


@dataclass
class Inputs:
    rows: list[np.ndarray]    # panel rows in file order, uint8 symbols
    prefix: list[np.ndarray]  # prefix-search patterns
    extract: np.ndarray       # 1-based row ids


def generate(wl: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, wl.key])
    bases = rng.integers(0, wl.sigma, size=(wl.bases, wl.w))
    mat = bases[rng.integers(0, wl.bases, size=wl.h)]
    mut = rng.random(size=mat.shape) < wl.mutation
    mat[mut] = rng.integers(0, wl.sigma, size=int(mut.sum()))
    mat = mat.astype(np.uint8)
    if wl.ragged:
        lens = rng.integers(wl.w // 2, wl.w + 1, size=wl.h)
        rows = [mat[i, :lens[i]] for i in range(wl.h)]
    else:
        rows = list(mat)

    prefix = []
    for r in rng.integers(0, wl.h, size=QUERY_POOL):
        row = rows[r]
        pat = row[:int(rng.integers(1, row.size + 1))].copy()
        if rng.random() < 0.5:
            pos = int(rng.integers(0, pat.size))
            pat[pos] = (int(pat[pos]) + int(rng.integers(1, wl.sigma))) % wl.sigma
        prefix.append(pat)
    extract = rng.integers(1, wl.h + 1, size=QUERY_POOL)
    return Inputs(rows=rows, prefix=prefix, extract=extract)


def _digit_lines(rows) -> bytes:
    return b"".join((r + ord("0")).tobytes() + b"\n" for r in rows)


def write_inputs(wl: Workload, inputs: Inputs, panel_path: str, prefix_path: str,
                 extract_path: str) -> None:
    """Panel in the package's digit format (with a ``#sigma=`` header), one
    pattern per line, one row id per line."""
    with open(panel_path, "wb") as fh:
        fh.write(b"#sigma=%d\n" % wl.sigma)
        fh.write(_digit_lines(inputs.rows))
    with open(prefix_path, "wb") as fh:
        fh.write(_digit_lines(inputs.prefix))
    with open(extract_path, "wb") as fh:
        fh.write(b"".join(b"%d\n" % i for i in inputs.extract))


def read_queries(prefix_path: str, extract_path: str) -> tuple[list[list[int]], list[int]]:
    with open(prefix_path, "rb") as fh:
        prefix = [[c - 48 for c in ln] for ln in fh.read().split()]
    with open(extract_path, "rb") as fh:
        extract = [int(tok) for tok in fh.read().split()]
    return prefix, extract


class RowScan:
    """Answers prefix and extract queries by scanning the generated rows.

    Rows are taken in the order the index numbers them: lexicographic when
    the workload is built sorted (ties keep file order), file order
    otherwise. Identical rows are scanned once, with their multiplicity and
    smallest id.
    """

    def __init__(self, wl: Workload, rows: list[np.ndarray]):
        padded = np.full((len(rows), wl.w), -1, np.int16)
        for i, r in enumerate(rows):
            padded[i, :r.size] = r
        if wl.sorted_rows:
            padded = padded[np.lexsort(padded.T[::-1])]
        self.h = len(rows)
        self.padded = padded
        self.lens = (padded >= 0).sum(axis=1)
        self.distinct, self.first, self.counts = np.unique(
            padded, axis=0, return_index=True, return_counts=True)

    def prefix(self, pattern: list[int]) -> tuple[int, int, int]:
        """(longest shared prefix, rows carrying it, smallest such id);
        (0, h, 1) when no row shares even the first symbol."""
        m = min(len(pattern), self.distinct.shape[1])
        eq = self.distinct[:, :m] == np.asarray(pattern[:m], np.int16)
        lcp = np.where(eq.all(axis=1), m, eq.argmin(axis=1))
        best = int(lcp.max()) if m else 0
        if best == 0:
            return 0, self.h, 1
        hit = lcp == best
        return best, int(self.counts[hit].sum()), int(self.first[hit].min()) + 1

    def extract(self, i: int) -> np.ndarray:
        return self.padded[i - 1, :self.lens[i - 1]]

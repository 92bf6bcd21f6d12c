"""Haplotype panel representation and validation.

Positions, row ids and column numbers are 1-based everywhere in the public
model. The index builders describe a partition of a column's positions
``[1..n]`` into closed intervals by the sorted array of their starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class PanelError(ValueError):
    """Raised when a panel violates its invariants."""


@dataclass
class Panel:
    """Haplotype matrix over the alphabet {0..sigma-1}.

    ``rows`` holds one int array per haplotype. In fixed-length mode all rows
    share one length; with ``ragged=True`` lengths may differ (each row is
    implicitly terminator-extended by the index builders).
    """

    rows: list[np.ndarray]
    sigma: int
    ragged: bool = False
    sigma_inferred: bool = field(default=False, repr=False)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], sigma: int | None = None,
                  ragged: bool = False) -> "Panel":
        arrs = [np.asarray(r, dtype=np.int64) for r in rows]
        inferred = sigma is None
        if inferred:
            top = max((int(a.max()) for a in arrs if a.size), default=-1)
            sigma = top + 1 if top >= 0 else 1
        return cls(rows=arrs, sigma=int(sigma), ragged=ragged, sigma_inferred=inferred)

    @classmethod
    def from_strings(cls, rows: Sequence[str], sigma: int | None = None,
                     ragged: bool = False) -> "Panel":
        """Panel from ASCII digit strings in one uint8 buffer; a non-digit raises PanelError."""
        lens = np.fromiter(map(len, rows), np.int64, len(rows))
        ends = np.cumsum(lens)
        # "replace" keeps one byte per character, so offsets map back to rows
        digits = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8) - ord("0")
        bad = np.flatnonzero(digits > 9)
        if bad.size:
            k = int(np.searchsorted(ends, bad[0], side="right"))
            raise PanelError(f"malformed line {k + 1}: {rows[k]!r}")
        arrs = [digits[b:e] for b, e in zip((ends - lens).tolist(), ends.tolist())]
        inferred = sigma is None
        sigma = int(digits.max(initial=0)) + 1 if inferred else int(sigma)
        return cls(rows=arrs, sigma=sigma, ragged=ragged, sigma_inferred=inferred)

    @property
    def h(self) -> int:
        return len(self.rows)

    @property
    def w(self) -> int:
        """Row length in fixed-length mode; max row length when ragged."""
        return max((len(r) for r in self.rows), default=0)


@dataclass
class PanelReport:
    h: int
    w: int | None               # None in ragged mode
    sigma: int
    sigma_inferred: bool
    lengths: list[int]
    ragged: bool


def validate_panel(p: Panel) -> PanelReport:
    """Check all panel invariants; raise PanelError on the first violation."""
    if p.h < 1:
        raise PanelError("empty panel")
    if p.sigma < 1:
        raise PanelError(f"alphabet size {p.sigma} < 1")
    lengths = [len(r) for r in p.rows]
    if not p.ragged:
        if len(set(lengths)) > 1:
            raise PanelError(f"mixed lengths {sorted(set(lengths))} in fixed-length mode")
        if lengths[0] < 1:
            raise PanelError("zero-length rows in fixed-length mode")
    flat = np.concatenate(p.rows)
    bad = np.flatnonzero((flat < 0) | (flat >= p.sigma))
    if bad.size:
        i = int(np.searchsorted(np.cumsum(lengths), bad[0], side="right")) + 1
        raise PanelError(f"symbol out of range in row {i}: {int(flat[bad[0]])} "
                         f"not in [0..{p.sigma - 1}]")
    return PanelReport(h=p.h, w=None if p.ragged else lengths[0], sigma=p.sigma,
                       sigma_inferred=p.sigma_inferred, lengths=lengths, ragged=p.ragged)

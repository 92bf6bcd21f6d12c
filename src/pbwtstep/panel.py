"""Haplotype panel representation and validation.

Positions, row ids and column numbers are 1-based everywhere in the public
model. The index builders describe a partition of a column's positions
``[1..n]`` into closed intervals by the sorted array of their starts.

A panel is one zero-padded matrix plus the row lengths, column-major because
the whole-panel passes (PBWT, row sort) read it by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class PanelError(ValueError):
    """Raised when a panel violates its invariants."""


def _matrix(flat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The rows concatenated in ``flat`` as one zero-padded column-major matrix."""
    w = int(lens.max(initial=0))
    if lens.size and lens.min() == w:
        return np.asfortranarray(flat.reshape(lens.size, w))
    mat = np.zeros((lens.size, w), flat.dtype, order="F")
    mat[np.arange(w) < lens[:, None]] = flat
    return mat


@dataclass
class Panel:
    """Haplotype matrix over the alphabet {0..sigma-1}.

    ``mat`` is h × (longest row), zero after each row's end, and ``lens``
    the row lengths. In fixed-length mode all rows share one length; with
    ``ragged=True`` lengths may differ (each row is implicitly
    terminator-extended by the index builders). Construction raises
    PanelError on an invalid panel, including a ``mat`` and ``lens`` that
    disagree.
    """

    mat: np.ndarray
    lens: np.ndarray
    sigma: int
    ragged: bool = False

    def __post_init__(self):
        validate_panel(self)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], sigma: int | None = None,
                  ragged: bool = False) -> "Panel":
        arrs = [np.asarray(r, dtype=np.int64) for r in rows]
        lens = np.fromiter(map(len, arrs), np.int64, len(arrs))
        flat = np.concatenate(arrs) if arrs else np.zeros(0, np.int64)
        sigma = max(int(flat.max(initial=-1)), 0) + 1 if sigma is None else int(sigma)
        return cls(_matrix(flat, lens), lens, sigma, ragged)

    @classmethod
    def from_strings(cls, rows: Sequence[str], sigma: int | None = None,
                     ragged: bool = False) -> "Panel":
        """Panel from ASCII digit strings in one uint8 buffer; a non-digit raises
        PanelError naming its row's 1-based line."""
        lens = np.fromiter(map(len, rows), np.int64, len(rows))
        # "replace" keeps one byte per character, so offsets map back to rows
        digits = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8) - ord("0")
        bad = np.flatnonzero(digits > 9)
        if bad.size:
            k = int(np.searchsorted(np.cumsum(lens), bad[0], side="right"))
            raise PanelError(f"malformed line {k + 1}: {rows[k]!r}")
        sigma = int(digits.max(initial=0)) + 1 if sigma is None else int(sigma)
        return cls(_matrix(digits, lens), lens, sigma, ragged)

    @property
    def h(self) -> int:
        return self.mat.shape[0]

    @property
    def w(self) -> int:
        """Row length in fixed-length mode; max row length when ragged."""
        return self.mat.shape[1]

    @cached_property
    def rows(self) -> list[np.ndarray]:
        """Each row as a view of ``mat`` up to its length."""
        return [r[:n] for r, n in zip(self.mat, self.lens.tolist())]


def validate_panel(p: Panel) -> None:
    """Check all panel invariants; raise PanelError on the first violation."""
    if not (isinstance(p.mat, np.ndarray) and p.mat.ndim == 2 and p.mat.dtype.kind in "iu"):
        raise PanelError("panel matrix is not a 2-D integer array")
    if p.h < 1:
        raise PanelError("empty panel")
    if not (isinstance(p.lens, np.ndarray) and p.lens.shape == (p.h,)
            and p.lens.dtype.kind in "iu"):
        raise PanelError(f"row lengths are not {p.h} integers, one per row")
    bad = np.flatnonzero((p.lens < 0) | (p.lens > p.w))
    if bad.size:
        i = int(bad[0])
        raise PanelError(f"row {i + 1} has length {int(p.lens[i])}, not in [0..{p.w}]")
    if not 1 <= p.sigma < 2**62:     # the step tables' limit (assemble_step_index)
        raise PanelError(f"alphabet size {p.sigma} " + ("< 1" if p.sigma < 1 else ">= 2^62"))
    if not p.ragged:
        if p.lens.min() != p.w:
            raise PanelError(f"mixed lengths {np.unique(p.lens).tolist()} in fixed-length mode")
        if p.w < 1:
            raise PanelError("zero-length rows in fixed-length mode")
    # padding is 0, which is in range, so only real symbols can fail
    if p.mat.min(initial=0) < 0 or p.mat.max(initial=0) >= p.sigma:
        i, k = np.argwhere((p.mat < 0) | (p.mat >= p.sigma))[0]
        raise PanelError(f"symbol out of range in row {i + 1}: {int(p.mat[i, k])} "
                         f"not in [0..{p.sigma - 1}]")
    if p.ragged:    # fixed-length rows all end at w, so have no padding
        pad = np.arange(p.w) >= p.lens[:, None]
        if p.mat[pad].any():
            i = int(np.flatnonzero((pad & (p.mat != 0)).any(axis=1))[0])
            raise PanelError(f"row {i + 1} has symbols after its length {int(p.lens[i])}")

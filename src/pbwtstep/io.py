"""Panel file ingestion and binary index serialization.

Panel files are either a digit matrix (one row per line, one ASCII ``0``-``9``
per symbol) or token lines (whitespace-separated integers). An optional header
line ``#sigma=<n>`` declares the alphabet size, overriding inference.

Index files (format version 2; version 1 is rejected) are little-endian: an
eight-byte magic, the version, flag bits, a CRC-32 of the payload and its
length, then the payload: u64 h, w and sigma, then the arrays that cannot be
derived, each flat over all columns, as a u8 element size, a u64 count and
unsigned elements of the smallest size that fits: column lengths, fore
sub-run starts and symbols, back sub-run starts (unless fore-only), the
prefix-array entry at each fore sub-run start, and the ids (if sorted).
Loading decodes each array straight into the step tables' dtype, refusing
an element that does not fit it, and runs the builder's own assembly
(``assemble_step_index``, then ``PrefixSearchIndex``), which derives the step
tables and rank/select and rejects arrays that do not describe a valid index.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .panel import Panel, PanelError
from .pbwt import build_pbwt
from .prefixsearch import PrefixSearchIndex, assemble_prefix_index, sort_panel
from .retrieval import RetrievalIndex
from .stepindex import StepIndex, assemble_step_index, build_step_index, narrow, table_dtype
from .subruns import build_back_subruns, build_fore_subruns

MAGIC = b"PBWTSTEP"
VERSION = 2

FLAG_SORTED = 1
FLAG_TERMINATOR = 2
FLAG_FORE_ONLY = 4
FLAG_TOKENS = 8


class IndexFormatError(ValueError):
    """Raised for unreadable, corrupt, or incompatible index files."""


# --------------------------------------------------------------- panel files

def parse_panel_text(text: str, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    """Parse panel file content; returns the panel and the format actually used.
    Errors name the line of the file, blank and ``#`` lines counted; lines end
    at newlines only (``str.splitlines`` would also end them at a form feed)."""
    header_sigma = None
    data_lines, line_nos = [], []
    for no, ln in enumerate(text.split("\n"), 1):
        s = ln.strip()
        if not s:
            continue
        if s.startswith("#"):
            for tok in s[1:].replace(",", " ").split():
                key, eq, val = tok.partition("=")
                if eq and key == "sigma":
                    if not (val.isascii() and val.isdigit()):
                        raise PanelError(f"malformed header on line {no}: {s!r}")
                    header_sigma = int(val)
            continue
        data_lines.append(s)
        line_nos.append(no)
    if not data_lines:
        raise PanelError("empty panel file")
    if fmt == "auto":
        fmt = "tokens" if any(ch.isspace() for ch in data_lines[0]) else "digits"
    if fmt == "digits":
        p = Panel.from_strings(data_lines, sigma=header_sigma, ragged=ragged, line_nos=line_nos)
    else:
        rows = []
        for no, s in zip(line_nos, data_lines):
            try:
                rows.append(np.array([int(tok) for tok in s.split()], np.int64))
            except ValueError as exc:
                raise PanelError(f"malformed line {no}: {s!r}") from exc
            except OverflowError as exc:
                raise PanelError(f"symbol out of int64 range on line {no}: {s!r}") from exc
        p = Panel.from_rows(rows, sigma=header_sigma, ragged=ragged)
    return p, fmt


def load_panel(path: str, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    # a non-ASCII byte becomes U+FFFD: skipped in a comment, malformed in a row;
    # reading as text turns \r\n and \r line ends into \n
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_panel_text(fh.read(), fmt=fmt, ragged=ragged)


def parse_pattern(text: str, fmt: str) -> list[int]:
    if text == "":
        return []
    try:
        if not text.isascii():          # as in panel files, other scripts' digits are refused
            raise ValueError(text)
        if fmt == "digits":
            return [int(ch) for ch in text.strip()]
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise PanelError(f"malformed pattern {text!r}") from exc


def format_row(row, fmt: str) -> str:
    return "".join(str(int(s)) for s in row) if fmt == "digits" \
        else " ".join(str(int(s)) for s in row)


# ---------------------------------------------------------------- the bundle

@dataclass
class IndexFile:
    step: StepIndex
    prefix: PrefixSearchIndex
    panel_format: str              # "digits" or "tokens"
    retrieval: RetrievalIndex = field(init=False)

    def __post_init__(self):
        self.retrieval = RetrievalIndex(self.step)

    @property
    def sorted_rows(self) -> bool:
        return self.prefix.sorted_rows

    @property
    def fore_only(self) -> bool:
        return self.step.back_starts is None

    @property
    def h(self) -> int:
        return self.step.h

    @property
    def w(self) -> int:
        return self.step.w


def build_index(p: Panel, sorted_rows: bool = False, fore_only: bool = False,
                panel_format: str = "digits") -> IndexFile:
    """Build every query structure for a panel in one pass."""
    orig_ids = sort_panel(p) if sorted_rows else None
    pc = build_pbwt(p, orig_ids)
    fore_lists = build_fore_subruns(pc)
    back_lists = [] if fore_only else build_back_subruns(pc)
    step = build_step_index(pc, fore_lists, back_lists)
    prefix = assemble_prefix_index(pc, step, orig_ids)
    return IndexFile(step=step, prefix=prefix, panel_format=panel_format)


# ------------------------------------------------------------- wire encoding

def _put_arr(chunks: list[bytes], arr: np.ndarray) -> None:
    dt = np.min_scalar_type(int(arr.max(initial=0))).newbyteorder("<")
    chunks.append(struct.pack("<BQ", dt.itemsize, arr.size))
    chunks.append(arr.astype(dt).tobytes())


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise IndexFormatError("payload ended early")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def arr(self, dtype) -> np.ndarray:
        """The next array, decoded into ``dtype``; an element that does not
        fit raises ValueError."""
        size, n = struct.unpack("<BQ", self.take(9))
        if size not in (1, 2, 4, 8):
            raise IndexFormatError(f"array element size {size} is not 1, 2, 4 or 8")
        return narrow(np.frombuffer(self.take(size * n), dtype=f"<u{size}"), dtype)


def _encode_payload(ix: IndexFile) -> bytes:
    st, pr = ix.step, ix.prefix
    arrays = [st.col_lens, st.fore_starts, st.fore_vals]
    if st.back_starts is not None:
        arrays.append(st.back_starts)
    arrays.append(pr.pa_at_start)
    if ix.sorted_rows:
        arrays.append(pr.orig_ids)
    chunks = [struct.pack("<QQQ", st.h, st.w, pr.sigma_public)]
    for arr in arrays:
        _put_arr(chunks, arr)
    return b"".join(chunks)


def save_index(path: str, ix: IndexFile) -> int:
    """Write the index; returns the byte count."""
    payload = _encode_payload(ix)
    flags = 0
    flags |= FLAG_SORTED if ix.sorted_rows else 0
    flags |= FLAG_TERMINATOR if ix.step.ragged else 0
    flags |= FLAG_FORE_ONLY if ix.fore_only else 0
    flags |= FLAG_TOKENS if ix.panel_format == "tokens" else 0
    head = MAGIC + struct.pack("<IIIQ", VERSION, flags, zlib.crc32(payload), len(payload))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
    return len(head) + len(payload)


def load_index(path: str) -> IndexFile:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 20:
        raise IndexFormatError("file too short to be an index")
    if blob[:len(MAGIC)] != MAGIC:
        raise IndexFormatError("wrong magic; not an index file")
    version, flags, crc, plen = struct.unpack("<IIIQ", blob[len(MAGIC):len(MAGIC) + 20])
    if version != VERSION:
        raise IndexFormatError(f"unsupported index version {version} (expected {VERSION})")
    payload = blob[len(MAGIC) + 20:]
    if len(payload) != plen or zlib.crc32(payload) != crc:
        raise IndexFormatError("checksum mismatch (corrupt or truncated file)")
    try:
        return _decode_payload(payload, flags)
    except IndexFormatError:
        raise
    except (ValueError, struct.error) as exc:
        raise IndexFormatError(f"malformed payload: {exc}") from exc


def _decode_payload(payload: bytes, flags: int) -> IndexFile:
    rd = _Reader(payload)
    h, w, sigma_public = struct.unpack("<QQQ", rd.take(24))
    ragged = bool(flags & FLAG_TERMINATOR)
    col_lens = rd.arr(np.int64)
    dt = table_dtype(col_lens, sigma_public + ragged)
    fore_starts, fore_vals = rd.arr(dt), rd.arr(dt)
    back_starts = None if flags & FLAG_FORE_ONLY else rd.arr(dt)
    pa_at_start = rd.arr(dt)
    orig_ids = rd.arr(dt) if flags & FLAG_SORTED else None
    if rd.off != len(payload):
        raise IndexFormatError("trailing bytes after the last section")
    step = assemble_step_index(h, w, sigma_public + ragged, ragged, col_lens, fore_starts,
                               fore_vals, back_starts)
    prefix = PrefixSearchIndex(step=step, pa_at_start=pa_at_start, orig_ids=orig_ids)
    return IndexFile(step=step, prefix=prefix,
                     panel_format="tokens" if flags & FLAG_TOKENS else "digits")

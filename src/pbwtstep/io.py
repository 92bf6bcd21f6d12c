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

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .panel import Panel, PanelError
from .pbwt import build_pbwt
from .prefixsearch import PrefixSearchIndex, assemble_prefix_index, sort_panel
from .stepindex import StepIndex, assemble_step_index, build_step_index, narrow, table_dtype
from .subruns import build_back_subruns, build_fore_subruns, run_shifts

MAGIC = b"PBWTSTEP"
VERSION = 2

FLAG_SORTED = 1
FLAG_TERMINATOR = 2
FLAG_FORE_ONLY = 4
FLAG_TOKENS = 8


class IndexFormatError(ValueError):
    """Raised for unreadable, corrupt, or incompatible index files."""


# --------------------------------------------------------------- panel files

def parse_panel(data: bytes, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    """Parse panel file content; returns the panel and the format actually used.

    Lines end at ``\n``, ``\r\n`` or a bare ``\r``, not at a form feed. The
    bytes become digit values in place (in a copy unless ``data`` is a
    writable buffer such as a ``bytearray``), and the digit matrix is copied
    from them once, a block of rows at a time. Only the lines that are not
    pure digits are read as text, with a non-ASCII byte as U+FFFD: headers,
    comments, blank, padded and bad lines, and every line of a token file.
    Errors name the line of the file, blank and ``#`` lines counted.
    """
    buf = np.frombuffer(data, np.uint8)
    if not buf.flags.writeable:
        buf = buf.copy()
    buf -= ord("0")
    odd = np.flatnonzero(buf > 9)       # every byte that is not a digit
    ob = buf[odd] + ord("0")
    cr, lf = ob == ord("\r"), ob == ord("\n")
    crlf = np.zeros_like(cr)            # a \r right before a \n
    crlf[:-1] = cr[:-1] & lf[1:] & (np.diff(odd) == 1)
    eol = cr | lf
    eol[1:] &= ~crlf[:-1]               # that \n ends no line of its own
    ends = odd[eol]
    starts = np.concatenate(([0], ends + 1 + crlf[eol]))
    ends = np.append(ends, buf.size)
    # a line holding another non-digit byte is read as text; an empty one is blank
    slow = np.zeros(starts.size, bool)
    slow[np.searchsorted(ends, odd[~(cr | lf)])] = True
    data_line = ~slow & (ends > starts)
    header_sigma, texts = None, {}
    for k in np.flatnonzero(slow).tolist():
        raw = (buf[starts[k]:ends[k]] + ord("0")).tobytes().decode("ascii", "replace")
        s = raw.strip()
        if s.startswith("#"):
            for tok in s[1:].replace(",", " ").split():
                key, eq, val = tok.partition("=")
                if eq and key == "sigma":
                    if not (val.isascii() and val.isdigit()):
                        raise PanelError(f"malformed header on line {k + 1}: {s!r}")
                    header_sigma = int(val)
        elif s:
            texts[k] = s
            data_line[k] = True
            starts[k] += len(raw) - len(raw.lstrip())
            ends[k] = starts[k] + len(s)
    if not data_line.any():
        raise PanelError("empty panel file")
    if fmt == "auto":
        first = texts.get(int(np.argmax(data_line)), "")
        fmt = "tokens" if any(ch.isspace() for ch in first) else "digits"
    rows = np.flatnonzero(data_line)
    if fmt == "digits":
        for k, s in texts.items():
            if not s.isdigit():         # ASCII only: other bytes read as U+FFFD
                raise PanelError(f"malformed line {k + 1}: {s!r}")
        lens, at = (ends - starts)[rows], starts[rows]
        h, w = rows.size, int(lens.max())
        mat = np.empty((h, w), np.uint8, order="F")
        win = sliding_window_view(buf, w)           # win[i] is buf[i:i + w]
        step = max(1, 2**17 // w)                   # rows per block of about 128 KB
        for i in range(0, h, step):                 # per block, one gather and one copy
            block, n = win[np.minimum(at[i:i + step], len(win) - 1)], lens[i:i + step]
            if n.min() < w:
                block[np.arange(w) >= n[:, None]] = 0
            mat[i:i + step] = block
        for i in np.flatnonzero(at >= len(win)).tolist():  # short rows in the last w bytes
            mat[i, :lens[i]] = buf[at[i]:at[i] + lens[i]]
        sigma = int(mat.max()) + 1 if header_sigma is None else header_sigma
        return Panel(mat, lens, sigma, ragged), fmt
    token_rows = []
    for k in rows.tolist():
        s = texts.get(k) or (buf[starts[k]:ends[k]] + ord("0")).tobytes().decode("ascii")
        try:
            token_rows.append(np.array([int(tok) for tok in s.split()], np.int64))
        except ValueError as exc:
            raise PanelError(f"malformed line {k + 1}: {s!r}") from exc
        except OverflowError as exc:
            raise PanelError(f"symbol out of int64 range on line {k + 1}: {s!r}") from exc
    return Panel.from_rows(token_rows, sigma=header_sigma, ragged=ragged), fmt


def load_panel(path: str, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    """Read a panel file into one buffer, which ``parse_panel`` decodes in place."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
        data += fh.read()               # what the size did not cover, as from a pipe
    return parse_panel(data, fmt=fmt, ragged=ragged)


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

    @property
    def retrieval(self) -> StepIndex:
        """The step index, whose ``extract`` retrieves rows."""
        return self.step

    @property
    def sorted_rows(self) -> bool:
        return self.prefix.orig_ids is not None

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
    shifts = run_shifts(pc)                 # one flat pass over the runs, for both sides
    fore_lists = build_fore_subruns(pc, shifts)
    back_lists = [] if fore_only else build_back_subruns(pc, shifts)
    del shifts
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
    flags = FLAG_SORTED if ix.sorted_rows else 0
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

"""Panel file ingestion and binary index serialization.

Panel files are either a digit matrix (one row per line, single characters,
alphabet up to 10) or token lines (whitespace-separated integers). An optional
header line ``#sigma=<n>`` declares the alphabet size, overriding inference.

The index file is little-endian throughout: an eight-byte magic, a version,
flag bits, a CRC-32 of the payload and the payload length, then the payload
(dimensions, per-column step tables, prefix-search samples, and the optional
id permutation). Rank/select over the sub-run symbols is rebuilt on load.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .panel import Panel, PanelError, validate_panel
from .pbwt import build_pbwt
from .prefixsearch import PrefixSearchIndex, assemble_prefix_index, sort_panel
from .retrieval import RetrievalIndex
from .stepindex import BackStepColumn, ForeStepColumn, StepIndex, build_step_index
from .subruns import SubRunLists, build_back_subruns, build_fore_subruns

MAGIC = b"PBWTSTEP"
VERSION = 1

FLAG_SORTED = 1
FLAG_TERMINATOR = 2
FLAG_FORE_ONLY = 4
FLAG_TOKENS = 8


class IndexFormatError(ValueError):
    """Raised for unreadable, corrupt, or incompatible index files."""


# --------------------------------------------------------------- panel files

def parse_panel_text(text: str, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    """Parse panel file content; returns the panel and the format actually used."""
    header_sigma = None
    lines = text.splitlines()
    data_lines = []
    for ln in lines:
        s = ln.strip()
        if not s:
            continue
        if s.startswith("#"):
            for tok in s[1:].replace(",", " ").split():
                if "=" in tok:
                    key, _, val = tok.partition("=")
                    if key.strip() == "sigma":
                        header_sigma = int(val)
            continue
        data_lines.append(s)
    if not data_lines:
        raise PanelError("empty panel file")
    if fmt == "auto":
        fmt = "tokens" if any(ch.isspace() for ch in data_lines[0]) else "digits"
    rows = []
    for idx, s in enumerate(data_lines, 1):
        try:
            if fmt == "digits":
                rows.append([int(ch) for ch in s])
            else:
                rows.append([int(tok) for tok in s.split()])
        except ValueError as exc:
            raise PanelError(f"malformed line {idx}: {s!r}") from exc
    p = Panel.from_rows(rows, sigma=header_sigma, ragged=ragged)
    validate_panel(p)
    return p, fmt


def load_panel(path: str, fmt: str = "auto", ragged: bool = False) -> tuple[Panel, str]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_panel_text(fh.read(), fmt=fmt, ragged=ragged)


def parse_pattern(text: str, fmt: str) -> list[int]:
    if text == "":
        return []
    try:
        if fmt == "digits":
            return [int(ch) for ch in text.strip()]
        return [int(tok) for tok in text.replace(",", " ").split()]
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
        return self.step.back_cols is None

    @property
    def h(self) -> int:
        return self.step.h

    @property
    def w(self) -> int:
        return self.step.w


def build_index(p: Panel, sorted_rows: bool = False, fore_only: bool = False,
                panel_format: str = "digits") -> IndexFile:
    """Build every query structure for a panel in one pass."""
    validate_panel(p)
    orig_ids = None
    if sorted_rows:
        p, orig_ids = sort_panel(p)
    pc = build_pbwt(p)
    fore_lists = build_fore_subruns(pc)
    back_lists = [] if fore_only else build_back_subruns(pc)
    step = build_step_index(pc, SubRunLists(back_lists, fore_lists))
    prefix = assemble_prefix_index(pc, step, sorted_rows, orig_ids, p.sigma)
    return IndexFile(step=step, prefix=prefix, panel_format=panel_format)


# ------------------------------------------------------------- wire encoding

def _put_arr(chunks: list[bytes], arr) -> None:
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.int64).reshape(-1), dtype="<i8")
    chunks.append(struct.pack("<Q", a.size))
    chunks.append(a.tobytes())


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

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def arr(self) -> np.ndarray:
        n = self.u64()
        return np.frombuffer(self.take(8 * n), dtype="<i8").astype(np.int64)


def _encode_payload(ix: IndexFile) -> bytes:
    st = ix.step
    chunks: list[bytes] = []
    chunks.append(struct.pack("<QQQQ", st.h, st.w, ix.prefix.sigma_public, st.total_runs))
    _put_arr(chunks, st.col_lens)
    for j in range(1, st.w + 1):
        fc = st.fore_cols[j - 1]
        _put_arr(chunks, fc.starts)
        _put_arr(chunks, fc.vals)
        if j < st.w:
            _put_arr(chunks, fc.nquints)
            _put_arr(chunks, fc.quints)
    chunks.append(struct.pack("<B", 0 if st.back_cols is None else 1))
    if st.back_cols is not None:
        for j in range(1, st.w + 1):
            bc = st.back_cols[j - 1]
            _put_arr(chunks, bc.starts)
            _put_arr(chunks, bc.vals)
            if j > 1:
                _put_arr(chunks, bc.nquads)
                _put_arr(chunks, bc.quads)
    for j in range(1, st.w + 1):
        _put_arr(chunks, ix.prefix.pa_at_start[j - 1])
        _put_arr(chunks, ix.prefix.rank_at_start[j - 1])
    chunks.append(struct.pack("<B", 0 if ix.prefix.orig_ids is None else 1))
    if ix.prefix.orig_ids is not None:
        _put_arr(chunks, ix.prefix.orig_ids)
    return b"".join(chunks)


def save_index(path: str, ix: IndexFile) -> int:
    """Write the index; returns the byte count."""
    payload = _encode_payload(ix)
    flags = 0
    flags |= FLAG_SORTED if ix.sorted_rows else 0
    flags |= FLAG_TERMINATOR if ix.step.terminator is not None else 0
    flags |= FLAG_FORE_ONLY if ix.step.back_cols is None else 0
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
    h, w, sigma_public, total_runs = struct.unpack("<QQQQ", rd.take(32))
    col_lens = rd.arr()
    terminator = 0 if flags & FLAG_TERMINATOR else None
    sigma = sigma_public + (1 if terminator is not None else 0)

    fore_cols = []
    for j in range(1, w + 1):
        starts = rd.arr()
        vals = rd.arr()
        if j < w:
            nquints = rd.arr().astype(np.uint8)
            quints = rd.arr().reshape(starts.size, 3, 5)
        else:
            nquints, quints = None, None
        fore_cols.append(ForeStepColumn(starts, vals, quints, nquints))
    back_cols = None
    if struct.unpack("<B", rd.take(1))[0]:
        back_cols = []
        for j in range(1, w + 1):
            starts = rd.arr()
            vals = rd.arr()
            if j > 1:
                nquads = rd.arr().astype(np.uint8)
                quads = rd.arr().reshape(starts.size, 3, 4)
            else:
                nquads, quads = None, None
            back_cols.append(BackStepColumn(starts, vals, quads, nquads))
    pa_at_start, rank_at_start = [], []
    for _ in range(w):
        pa_at_start.append(rd.arr())
        rank_at_start.append(rd.arr())
    orig_ids = rd.arr() if struct.unpack("<B", rd.take(1))[0] else None
    if rd.off != len(payload):
        raise IndexFormatError("trailing bytes after the last section")

    step = StepIndex(h=int(h), w=int(w), sigma=int(sigma), total_runs=int(total_runs),
                     terminator=terminator, col_lens=col_lens,
                     back_cols=back_cols, fore_cols=fore_cols)
    prefix = PrefixSearchIndex(step=step, pa_at_start=pa_at_start,
                               rank_at_start=rank_at_start,
                               sorted_rows=bool(flags & FLAG_SORTED),
                               orig_ids=orig_ids, sigma_public=int(sigma_public))
    return IndexFile(step=step, prefix=prefix,
                     panel_format="tokens" if flags & FLAG_TOKENS else "digits")

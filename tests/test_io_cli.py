import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from pbwtstep.cli import main
from pbwtstep.io import (IndexFormatError, MAGIC, build_index, load_index,
                         load_panel, parse_panel, parse_pattern, save_index)
from pbwtstep.panel import Panel, PanelError

from conftest import enumerate_ids, pattern_battery, rand_panel
from test_golden_fixtures import PANEL_A, PANEL_B


def test_parse_digit_matrix():
    p, fmt = parse_panel(b"01\n10\n00\n")
    assert fmt == "digits" and p.h == 3 and p.w == 2 and p.sigma == 2


def test_parse_token_format():
    p, fmt = parse_panel(b"3 0 1\n1 2 0\n")
    assert fmt == "tokens" and p.h == 2 and p.w == 3
    assert p.sigma == 4


def test_parse_header_sigma(tmp_path, capsys):
    p, _ = parse_panel(b"#h=2 w=2 sigma=5\n01\n10\n")
    assert p.sigma == 5
    # an alphabet of 2^62 or more is refused as the panel is read
    path = tmp_path / "panel.txt"
    for sigma in (2**62, 2**64, 10**23):
        with pytest.raises(PanelError, match=f"alphabet size {sigma} >= 2\\^62"):
            parse_panel(b"#sigma=%d\n0101\n" % sigma)
        path.write_bytes(b"#sigma=%d\n0101\n" % sigma)
        for flags in ([], ["--ragged"]):
            assert main(["build", str(path), "-o", str(tmp_path / "ix.bin")] + flags) == 3
            assert f"alphabet size {sigma} >= 2^62" in capsys.readouterr().err
    assert parse_panel(b"#sigma=%d\n0101\n" % (2**62 - 1))[0].sigma == 2**62 - 1


def test_parse_malformed_line(tmp_path, capsys):
    # the file's own line numbers, blank and "#" lines counted
    path = tmp_path / "panel.txt"
    for text, msg in (("01\n1x\n", "malformed line 2: '1x'"),
                      ("#sigma=2\n\n01\n0x\n", "malformed line 4: '0x'"),
                      ("# rows\n\n0 1\n\n1 x\n", "malformed line 5: '1 x'"),
                      ("# a\fb\n01\n0x\n", "malformed line 3: '0x'"),
                      ("01\r\n1x\r\n", "malformed line 2: '1x'"),
                      ("#sigma=2\r\r\n01\r0x\r", "malformed line 4: '0x'"),
                      ("01\n\r10\r\n0x\n", "malformed line 4: '0x'"),
                      ("01\n1x", "malformed line 2: '1x'"),
                      ("01\r\n1x", "malformed line 2: '1x'"),
                      ("01\r1x", "malformed line 2: '1x'"),
                      ("01\n\r1x", "malformed line 3: '1x'"),
                      ("#sigma=two\n01\n", "malformed header on line 1: '#sigma=two'"),
                      ("01\n\n# h=2, sigma=\u0663\n10\n",
                       "malformed header on line 3: '# h=2, sigma=\ufffd\ufffd'")):
        # a non-ASCII byte reads as U+FFFD, so the two UTF-8 bytes of U+0663 as two
        with pytest.raises(PanelError) as err:
            parse_panel(text.encode())
        assert str(err.value) == msg
        path.write_text(text, encoding="utf-8")
        assert main(["build", str(path), "-o", str(tmp_path / "ix.bin")]) == 3
        assert capsys.readouterr().err.strip().endswith(msg)


MIXED_EOLS = ["\n", "\r\n", "\r", "\n\r"]


def _oracle_parse(text):
    """Per-character reference parse: (rows, header sigma) of a digit panel."""
    rows, sigma = [], None
    for ln in text.splitlines():
        s = ln.strip()
        if s.startswith("#"):
            for tok in s[1:].split():
                if tok.startswith("sigma="):
                    sigma = int(tok[len("sigma="):])
        elif s:
            rows.append([int(ch) for ch in s])
    return rows, sigma


def _digit_panel_text(rng, ragged):
    h, w = int(rng.integers(1, 30)), int(rng.integers(1, 25))
    top = int(rng.integers(1, 11))
    lines = []
    if rng.random() < 0.5:
        lines.append(f"#sigma={top} h={h}")
    for _ in range(h):
        n = int(rng.integers(0, w + 1)) if ragged else w
        lines.append("".join(str(d) for d in rng.integers(0, top, size=n)))
        if rng.random() < 0.2:
            lines.append(["", "  ", "# note", "#w=3"][int(rng.integers(0, 4))])
    return lines


def test_parse_matches_per_character_oracle(rng, tmp_path):
    # the bytes parsed in memory and the same bytes read from a file; lines
    # end at \n, \r\n or a bare \r, and some lines are padded with blanks
    path = tmp_path / "panel.txt"
    pads = ["", "", " ", "\t", " \t "]
    for k in range(120):
        ragged = k % 2 == 1
        lines = [pads[int(rng.integers(0, 5))] + ln + pads[int(rng.integers(0, 5))]
                 for ln in _digit_panel_text(rng, ragged)]
        eol = ("\n", "\r\n", "\r")[k % 3]
        text = eol.join(lines) + (eol if k % 4 else "")
        rows, sigma = _oracle_parse(text)
        if not rows:        # every row empty: a blank file
            continue
        path.write_bytes(text.encode())
        for p, fmt in (parse_panel(text.encode(), ragged=ragged),
                       load_panel(str(path), ragged=ragged)):
            assert fmt == "digits" and p.ragged == ragged
            assert [r.tolist() for r in p.rows] == rows
            want_sigma = sigma if sigma is not None else max(max(r, default=0) for r in rows) + 1
            assert p.sigma == want_sigma


def test_parse_mixed_line_ends_match_oracle(rng, tmp_path):
    # one file mixes \n, \r\n, bare \r and \n\r, which ends two lines
    path = tmp_path / "panel.txt"
    for k in range(120):
        ragged = k % 2 == 1
        lines = _digit_panel_text(rng, ragged)
        text = "".join(ln + MIXED_EOLS[int(rng.integers(0, 4))] for ln in lines)
        rows, sigma = _oracle_parse(text)
        if not rows:
            continue
        path.write_bytes(text.encode())
        for p, _ in (parse_panel(text.encode(), ragged=ragged),
                     load_panel(str(path), ragged=ragged)):
            assert [r.tolist() for r in p.rows] == rows
            assert p.sigma == (sigma if sigma is not None else max(max(r, default=0)
                                                                   for r in rows) + 1)


def test_parse_bad_byte_names_its_line(rng):
    # the line of the file: the header, blank and "#" lines count, as do the
    # empty lines that \n\r leaves; the last line may have no line end
    for eols in (["\n"], ["\r\n"], ["\r"], MIXED_EOLS):
        _check_bad_byte_line_numbers(rng, eols)


def _check_bad_byte_line_numbers(rng, eols):
    for _ in range(60):
        lines = ["#sigma=10"] + _digit_panel_text(rng, ragged=True)
        data = [k for k, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
        if not data:
            continue
        k = data[int(rng.integers(0, len(data)))]
        pos = int(rng.integers(0, len(lines[k]) + 1))
        bad = "x-+./:a"[int(rng.integers(0, 7))]
        lines[k] = lines[k][:pos] + bad + lines[k][pos:]
        ends = [eols[int(rng.integers(0, len(eols)))] for _ in lines]
        if rng.random() < 0.5:
            ends[-1] = ""               # the last line ends the file, with no line end
        line_no = len("".join(a + b for a, b in zip(lines[:k], ends)).splitlines()) + 1
        with pytest.raises(PanelError) as err:
            parse_panel("".join(a + b for a, b in zip(lines, ends)).encode(), fmt="digits",
                        ragged=True)
        assert str(err.value) == f"malformed line {line_no}: {lines[k]!r}"


def test_parse_rejects_non_ascii_digits():
    # int() accepts other scripts' digits; a digit panel is ASCII only
    for text in ("0\u0663\n", "01\n1\uff11\n"):
        with pytest.raises(PanelError, match="malformed line"):
            parse_panel(text.encode())
    with pytest.raises(PanelError, match="malformed line 2"):
        Panel.from_strings(["01", "0\u0663"])


def test_load_panel_peak_memory(tmp_path):
    # the file is read into one buffer and decoded in place, and the matrix is
    # copied from it once: the traced peak stays within 3.5 times the file size
    rows = np.random.default_rng(7).integers(0, 4, size=(2000, 300), dtype=np.uint8)
    path = tmp_path / "panel.txt"
    path.write_bytes(b"#sigma=4\n" + b"".join((r + ord("0")).tobytes() + b"\n" for r in rows))
    load_panel(str(path))       # first-call allocations are not the parser's
    tracemalloc.start()
    try:
        p, fmt = load_panel(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fmt == "digits" and p.sigma == 4 and np.array_equal(p.mat, rows)
    assert peak <= 3.5 * path.stat().st_size, peak / path.stat().st_size


def test_parse_mixed_lengths_needs_ragged():
    with pytest.raises(PanelError, match="mixed lengths"):
        parse_panel(b"01\n100\n")
    p, _ = parse_panel(b"01\n100\n", ragged=True)
    assert p.ragged


def test_parse_pattern_formats():
    assert parse_pattern("012", "digits") == [0, 1, 2]
    assert parse_pattern("10 2 0", "tokens") == [10, 2, 0]
    assert parse_pattern("", "digits") == []
    with pytest.raises(PanelError):
        parse_pattern("1x", "digits")
    # digits and tokens from other scripts are rejected, as in panel files
    with pytest.raises(PanelError):
        parse_pattern("0\u0663", "digits")
    with pytest.raises(PanelError):
        parse_pattern("1 \u0661\u0662", "tokens")
    # tokens are split on whitespace only, as in panel files
    assert parse_pattern(" 1\t0 ", "tokens") == [1, 0]
    for pattern in ("1,0", "1, 0"):
        with pytest.raises(PanelError):
            parse_pattern(pattern, "tokens")


def test_round_trip_preserves_queries(rng, tmp_path):
    for k in range(25):
        ragged = k % 3 == 2
        p = rand_panel(rng, ragged=ragged)
        ix = build_index(p, sorted_rows=(k % 2 == 0))
        path = tmp_path / f"ix{k}.bin"
        save_index(str(path), ix)
        loaded = load_index(str(path))
        assert loaded.sorted_rows == ix.sorted_rows
        assert loaded.h == ix.h and loaded.w == ix.w
        for pat in pattern_battery(rng, p, count=5):
            assert loaded.prefix.partial_prefix_search(pat) == \
                ix.prefix.partial_prefix_search(pat)
            if ix.sorted_rows:
                assert enumerate_ids(loaded.prefix, pat) == \
                    enumerate_ids(ix.prefix, pat)
        for i in range(1, p.h + 1):
            assert loaded.retrieval.extract(i) == ix.retrieval.extract(i)
        if not ix.fore_only:
            st, lst = ix.step, loaded.step
            for j in range(2, st.w + 1):
                for i in range(1, int(st.col_lens[j - 1]) + 1):
                    x = st.find_back_subrun(j, i)
                    assert st.back_step(i, j, x) == lst.back_step(i, j, x)


def test_save_is_deterministic(rng, tmp_path):
    p = rand_panel(rng)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_index(str(a), build_index(p, sorted_rows=True))
    save_index(str(b), build_index(p, sorted_rows=True))
    assert a.read_bytes() == b.read_bytes()


RAGGED = Panel.from_rows([[0, 1, 2], [1], [], [2, 2, 0, 1], [0, 1], [0, 1, 2]], sigma=3,
                         ragged=True)
GOLDEN_DIGESTS = [
    (PANEL_A, {}, "c6ed5b0a0129545b5600005d6009e6c5cab7ff03d75224985cb6deda92ae0dc8"),
    (PANEL_B, {"sorted_rows": True},
     "8403205bee093c8aa0c8b5193a7b57ba51b7957d836fdad84dc6dcb7d7410076"),
    (RAGGED, {"sorted_rows": True, "fore_only": True},
     "2e5b1785d8fdd1728284f5548c8ff6efc324381c13a2f9de2876d245dd78d80c"),
]


def test_saved_index_bytes_frozen(tmp_path):
    # index files are a format: a build change must not move a single byte
    for k, (p, opts, want) in enumerate(GOLDEN_DIGESTS):
        path = tmp_path / f"ix{k}.bin"
        save_index(str(path), build_index(p, **opts))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, k


def test_truncated_file_rejected(rng, tmp_path):
    p = rand_panel(rng)
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(p))
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(IndexFormatError, match="checksum"):
        load_index(str(path))


def test_corrupt_payload_rejected(rng, tmp_path):
    p = rand_panel(rng)
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(p))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="checksum"):
        load_index(str(path))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANIDX" + b"\0" * 64)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(str(path))


def test_short_file_rejected(tmp_path, capsys):
    path = tmp_path / "short.idx"
    path.write_bytes(MAGIC)                 # the magic without the header after it
    with pytest.raises(IndexFormatError, match="file too short"):
        load_index(str(path))
    assert main(["extract", str(path), "1"]) == 2
    assert "file too short" in capsys.readouterr().err


def test_version_mismatch_rejected(rng, tmp_path):
    p = rand_panel(rng)
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(p))
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(str(path))


def _array_elements(blob):
    """(offset of the first element, element size, count) of every array in
    a saved index's payload, which follows the header and three u64 dims."""
    off, out = len(MAGIC) + 20 + 24, []
    while off < len(blob):
        size, n = struct.unpack_from("<BQ", blob, off)
        out.append((off + 9, size, n))
        off += 9 + size * n
    return out


def _write_with_crc(path, blob):
    head = len(MAGIC) + 20
    struct.pack_into("<I", blob, len(MAGIC) + 8, zlib.crc32(bytes(blob[head:])))
    path.write_bytes(bytes(blob))


def test_malformed_crc_valid_payload_rejected(tmp_path, capsys):
    # one more fore sub-run start than written: every later array is misread,
    # but the checksum is recomputed, so only decoding can catch it
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(Panel.from_strings(["0110", "1011", "0001", "1100"])))
    blob = bytearray(path.read_bytes())
    first, _, count = _array_elements(blob)[1]           # fore starts, after col_lens
    struct.pack_into("<Q", blob, first - 8, count + 1)
    _write_with_crc(path, blob)
    with pytest.raises(IndexFormatError):
        load_index(str(path))
    assert main(["extract", str(path), "1"]) == 2
    assert "index error" in capsys.readouterr().err


def test_corrupt_array_elements_exit_cleanly(tmp_path, capsys):
    # every stored array element set to 0, 7 and its dtype's maximum, with the
    # checksum recomputed: queries answer (exit 0) or the load refuses (exit 2)
    cases = [(["0110", "1011", "0001", "1100", "0110", "1010"], [], "011"),
             (["011", "1", "0010", "11", "0111", "10"], ["--ragged", "--sorted"], "01")]
    for k, (rows, flags, pattern) in enumerate(cases):
        panel, path = tmp_path / f"p{k}.txt", tmp_path / f"ix{k}.bin"
        panel.write_text("\n".join(rows) + "\n")
        assert main(["build", str(panel), "-o", str(path)] + flags) == 0
        queries = [["extract", str(path), "1"], ["extract", str(path), str(len(rows))],
                   ["prefix", str(path), pattern] + (["--enumerate"] if flags else [])]
        clean = bytearray(path.read_bytes())
        for first, size, count in _array_elements(clean):
            for at in range(first, first + size * count, size):
                for value in (0, 7, 256 ** size - 1):
                    blob = bytearray(clean)
                    blob[at:at + size] = value.to_bytes(size, "little")
                    _write_with_crc(path, blob)
                    for q in queries:
                        assert main(q) in (0, 2), (q, at, value)
        capsys.readouterr()


def _widened(blob, which, at=None, extra=0):
    """A saved index with array ``which`` stored 8 bytes wide and ``extra``
    added to its element ``at``, header length and checksum recomputed."""
    head = len(MAGIC) + 20
    out = bytearray(blob[:head + 24])
    for k, (first, size, n) in enumerate(_array_elements(blob)):
        if k != which:
            out += blob[first - 9:first + size * n]
            continue
        vals = np.frombuffer(bytes(blob), f"<u{size}", n, first).astype("<u8")
        if at is not None:
            vals[at] += extra
        out += struct.pack("<BQ", 8, n) + vals.tobytes()
    struct.pack_into("<IQ", out, len(MAGIC) + 8, zlib.crc32(bytes(out[head:])),
                     len(out) - head)
    return bytes(out)


def test_wide_elements_do_not_wrap(tmp_path, capsys):
    # every stored array rewritten 8 bytes wide loads as before; one element
    # raised by 2^32 or 2^63 must be refused (exit 2), never read modulo the
    # narrower table dtype as its clean value
    cases = [(["0110", "1011", "0001", "1100", "0110", "1010"], [], "011"),
             (["011", "1", "0010", "11", "0111", "10"], ["--ragged", "--sorted"], "01")]
    for k, (rows, flags, pattern) in enumerate(cases):
        panel, path = tmp_path / f"p{k}.txt", tmp_path / f"ix{k}.bin"
        panel.write_text("\n".join(rows) + "\n")
        assert main(["build", str(panel), "-o", str(path)] + flags) == 0
        queries = [["extract", str(path), "1"], ["extract", str(path), str(len(rows))],
                   ["prefix", str(path), pattern] + (["--enumerate"] if flags else [])]
        clean = path.read_bytes()
        capsys.readouterr()
        want = [(main(q), capsys.readouterr().out) for q in queries]
        assert [code for code, _ in want] == [0, 0, 0]
        for which, (_, _, count) in enumerate(_array_elements(clean)):
            path.write_bytes(_widened(clean, which))
            assert [(main(q), capsys.readouterr().out) for q in queries] == want
            for at in range(count):
                for extra in (2**32, 2**63):
                    path.write_bytes(_widened(clean, which, at, extra))
                    for q in queries:
                        assert main(q) == 2, (which, at, extra, q)
        capsys.readouterr()


def _rewritten(blob, edit):
    """A saved index whose dims (h, w, sigma) and arrays, as int64, ``edit``
    changes in place; it returns how many payload bytes to cut from the end.
    The arrays are stored 8 bytes wide, header length and checksum recomputed."""
    head = len(MAGIC) + 20
    dims = list(struct.unpack_from("<QQQ", blob, head))
    arrays = [np.frombuffer(bytes(blob), f"<u{size}", n, first).astype(np.int64)
              for first, size, n in _array_elements(blob)]
    cut = edit(dims, arrays) or 0
    payload = struct.pack("<QQQ", *dims) + b"".join(
        struct.pack("<BQ", 8, a.size) + a.astype("<u8").tobytes() for a in arrays)
    payload = payload[:len(payload) - cut]
    return blob[:len(MAGIC) + 8] + struct.pack("<IQ", zlib.crc32(payload), len(payload)) \
        + payload


def _set(k, at, value):
    def edit(dims, arrays):
        arrays[k][at] = value
    return edit


def _set_dim(k, value):
    def edit(dims, arrays):
        dims[k] = value
    return edit


def _second_column_start(dims, arrays):
    arrays[1][np.flatnonzero(arrays[1] == 1)[1]] = 2


def _repeated_id(dims, arrays):
    arrays[5][0] = arrays[5][1]


# arrays of a sorted two-sided index: col_lens, fore starts, fore symbols,
# back starts, prefix samples, ids
REFUSALS = {
    "h=0": (_set_dim(0, 0), "dimensions out of range"),
    "sigma=2^62": (_set_dim(2, 2**62), "dimensions out of range"),
    "h+1": (_set_dim(0, 5), "array sizes do not match the dimensions"),
    "sigma=1": (_set_dim(2, 1), "fore sub-run symbol outside the alphabet"),
    "column start": (_second_column_start, "fore sub-run starts do not split into 4 columns"),
    "truncated": (lambda dims, arrays: 1, "payload ended early"),
    "sample 0": (_set(4, 0, 0), "prefix-array samples do not fit"),
    "sample h+1": (_set(4, 1, 5), "prefix-array samples do not fit"),
    "repeated id": (_repeated_id, "stored row ids are not a permutation"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_decode_refusals(tmp_path, case):
    # a CRC-valid file that breaks only one of the decoder's checks
    edit, message = REFUSALS[case]
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(Panel.from_strings(["0110", "1011", "0001", "1100"]),
                                      sorted_rows=True))
    clean = path.read_bytes()
    path.write_bytes(_rewritten(clean, lambda dims, arrays: None))
    assert load_index(str(path)).retrieval.extract(2) == [0, 1, 1, 0]   # sorted row 2
    path.write_bytes(_rewritten(clean, edit))
    with pytest.raises(IndexFormatError, match=message):
        load_index(str(path))


def _package_env():
    """The environment of a child interpreter that imports this pbwtstep."""
    import pbwtstep

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(pbwtstep.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p))


def test_decode_refusal_exits_2_under_optimize(tmp_path):
    # the refusals are not asserts, so -O keeps them
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(Panel.from_strings(["0110", "1011", "0001", "1100"]),
                                      sorted_rows=True))
    path.write_bytes(_rewritten(path.read_bytes(), _repeated_id))
    proc = subprocess.run([sys.executable, "-O", "-m", "pbwtstep.cli", "extract", str(path), "1"],
                          env=_package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "not a permutation" in proc.stderr


def test_corrupt_panel_bytes_exit_cleanly(tmp_path, capsys):
    # every byte of a small digit and token panel, and of two headers past
    # 2^62, replaced or lengthened: build and stats accept the file (exit 0)
    # or refuse it (exit 3)
    panels = [b"#sigma=3\n0110\n1021\n0001\n",
              b"3 0 1\n9223372036854775806 2\n1 2 0\n",
              b"#sigma=99999999999999999999999\n0101\n",
              b"#sigma=18446744073709551616\n0101\n"]
    values = [b"0", b"9", b" ", b"\n", b"#", b"-", b"=", b"x", b"\xff"]
    path = tmp_path / "panel.txt"
    for k, clean in enumerate(panels):
        for at in range(len(clean)):
            for value in values + [clean[at:at + 1] + b"9"]:
                path.write_bytes(clean[:at] + value + clean[at + 1:])
                for cmd in (["build", str(path), "-o", str(tmp_path / "ix.bin")],
                            ["build", str(path), "-o", str(tmp_path / "ix.bin"), "--ragged"],
                            ["stats", str(path)]):
                    assert main(cmd) in (0, 3), (k, at, value, cmd)
        capsys.readouterr()


def test_token_overflow_names_its_line(tmp_path, capsys):
    path = tmp_path / "panel.txt"
    for text, line in (("3 99999999999999999999999\n1 2\n", 1),
                       ("1 0\n18446744073709551615 1\n", 2),
                       ("# rows\n1 0\n\n18446744073709551615 1\n", 4)):
        path.write_text(text)
        for cmd in (["build", str(path), "-o", str(tmp_path / "ix.bin")], ["stats", str(path)]):
            assert main(cmd) == 3
            assert f"out of int64 range on line {line}" in capsys.readouterr().err


def test_non_ascii_bytes_in_panel_files(tmp_path, capsys):
    # a comment holding non-ASCII bytes is skipped like any other; a data
    # line holding one is refused by its line number
    path, ix = tmp_path / "panel.txt", tmp_path / "ix.bin"
    for clean in ("#sigma=3\n0110\n1021\n", "#sigma=3\n0 1 1 0\n1 0 2 1\n"):
        path.write_text(clean)
        assert main(["build", str(path), "-o", str(ix)]) == 0
        want = ix.read_bytes()
        path.write_text("# panel from Z\u00fcrich\n" + clean, encoding="utf-8")
        assert main(["build", str(path), "-o", str(ix)]) == 0
        assert ix.read_bytes() == want
        assert main(["stats", str(path)]) == 0
    for text in ("01\n10\n0\u0663\n", "0 1\n1 0\n0 \u0663\n"):
        path.write_text(text, encoding="utf-8")
        for cmd in (["build", str(path), "-o", str(ix)], ["stats", str(path)]):
            assert main(cmd) == 3
            assert "malformed line 3" in capsys.readouterr().err


def test_version_1_rejected(rng, tmp_path, capsys):
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(rand_panel(rng)))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="unsupported index version 1"):
        load_index(str(path))
    assert main(["extract", str(path), "1"]) == 2
    assert "unsupported index version 1" in capsys.readouterr().err


def test_loaded_tables_equal_built(rng, tmp_path):
    # build and load derive the step tables through the same assembly
    for kw in ({}, {"fore_only": True}, {"sorted_rows": True, "ragged": True}):
        for _ in range(8):
            ragged = kw.get("ragged", False)
            p = rand_panel(rng, ragged=ragged)
            ix = build_index(p, sorted_rows=kw.get("sorted_rows", False),
                             fore_only=kw.get("fore_only", False))
            path = tmp_path / "ix.bin"
            save_index(str(path), ix)
            loaded = load_index(str(path))
            st, lst = ix.step, loaded.step
            assert np.array_equal(loaded.prefix.pa_at_start, ix.prefix.pa_at_start)
            assert loaded.prefix.pa_at_start.dtype == ix.prefix.pa_at_start.dtype
            assert (st.back_starts is None) == (lst.back_starts is None) == ix.fore_only
            for f in dataclasses.fields(st):
                a, b = getattr(st, f.name), getattr(lst, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b) and a.dtype == b.dtype, f.name
                else:
                    assert a == b, f.name


def test_trailing_bytes_rejected(rng, tmp_path):
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(rand_panel(rng)))
    blob = bytearray(path.read_bytes() + b"\0" * 8)
    head = len(MAGIC) + 20
    struct.pack_into("<IQ", blob, len(MAGIC) + 8, zlib.crc32(bytes(blob[head:])),
                     len(blob) - head)
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="trailing"):
        load_index(str(path))


def test_fore_only_halves_file(rng, tmp_path):
    p = rand_panel(rng, h_max=24, w_max=20)
    full, half = tmp_path / "full.bin", tmp_path / "half.bin"
    nf = save_index(str(full), build_index(p))
    nh = save_index(str(half), build_index(p, fore_only=True))
    assert nh < nf
    loaded = load_index(str(half))
    assert loaded.fore_only and loaded.step.back_cols is None
    for i in range(1, p.h + 1):
        assert loaded.retrieval.extract(i) == [int(s) for s in p.rows[i - 1]]


# ------------------------------------------------------------------ CLI layer

@pytest.fixture
def panel_file(tmp_path):
    path = tmp_path / "panel.txt"
    path.write_text("01\n10\n00\n")
    return str(path)


def test_cli_build_prefix_extract(panel_file, tmp_path, capsys):
    idx = str(tmp_path / "panel.idx")
    assert main(["build", panel_file, "-o", idx]) == 0
    capsys.readouterr()
    assert main(["prefix", idx, "00"]) == 0
    assert capsys.readouterr().out.strip() == "m'=2 occ=1 index=3"
    assert main(["extract", idx, "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_cli_prefix_enumerate(panel_file, tmp_path, capsys):
    idx = str(tmp_path / "panel.idx")
    assert main(["build", panel_file, "-o", idx, "--sorted"]) == 0
    capsys.readouterr()
    assert main(["prefix", idx, "0", "--enumerate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "m'=1 occ=2 index=1"
    assert out[1] == "ids=3,1"


def test_cli_enumerate_matches_two_call_form(tmp_path, capsys):
    # the one-search --enumerate output equals row_ids' ids under
    # partial_prefix_search's line, on a sorted fixed-length and a sorted ragged index
    panel, idx = tmp_path / "p.txt", str(tmp_path / "p.idx")
    for text, flags in (("0110\n1010\n0111\n0010\n1110\n", []),
                        ("01\n0\n011\n10\n0110\n", ["--ragged"])):
        panel.write_text(text)
        assert main(["build", str(panel), "-o", idx, "--sorted"] + flags) == 0
        ix = load_index(idx).prefix
        capsys.readouterr()
        for text_pat in ("", "0", "01", "011", "0110", "01101", "1", "10", "2"):
            pat = parse_pattern(text_pat, "digits")
            m_prime, occ, witness = ix.partial_prefix_search(pat)
            ids = ix.row_ids(witness, occ)
            assert main(["prefix", idx, text_pat, "--enumerate"]) == 0
            assert capsys.readouterr().out == (f"m'={m_prime} occ={occ} index={witness}\n"
                                               f"ids={','.join(map(str, ids))}\n")
    assert main(["build", str(panel), "-o", idx, "--ragged"]) == 0
    capsys.readouterr()
    assert main(["prefix", idx, "0", "--enumerate"]) == 3     # unsorted: refused, no output
    assert capsys.readouterr().out == ""


def test_cli_empty_pattern(panel_file, tmp_path, capsys):
    idx = str(tmp_path / "panel.idx")
    main(["build", panel_file, "-o", idx])
    capsys.readouterr()
    assert main(["prefix", idx, ""]) == 0
    assert capsys.readouterr().out.strip() == "m'=0 occ=3 index=1"


def test_cli_tokens_round_trip(tmp_path, capsys):
    panel = tmp_path / "p.txt"
    panel.write_text("3 0 1\n1 2 0\n")
    idx = str(tmp_path / "p.idx")
    assert main(["build", str(panel), "-o", idx]) == 0
    capsys.readouterr()
    assert main(["extract", idx, "1"]) == 0
    assert capsys.readouterr().out.strip() == "3 0 1"
    assert main(["prefix", idx, "3 0"]) == 0
    assert capsys.readouterr().out.strip() == "m'=2 occ=1 index=1"
    assert main(["prefix", idx, "3,0"]) == 3
    assert "malformed pattern" in capsys.readouterr().err


def test_cli_ragged_build(tmp_path, capsys):
    panel = tmp_path / "p.txt"
    panel.write_text("01\n0\n011\n")
    idx = str(tmp_path / "p.idx")
    assert main(["build", str(panel), "-o", idx]) == 3  # refused without --ragged
    assert main(["build", str(panel), "-o", idx, "--ragged"]) == 0
    capsys.readouterr()
    assert main(["extract", idx, "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["prefix", idx, "01"]) == 0
    assert capsys.readouterr().out.strip() == "m'=2 occ=2 index=1"


def test_cli_stats(panel_file, tmp_path, capsys):
    assert main(["stats", panel_file]) == 0
    out = capsys.readouterr().out
    assert "r_tilde=5" in out and "all_checks=pass" in out
    csv_path = tmp_path / "cols.csv"
    assert main(["stats", panel_file, "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "column,runs,canonical" and len(rows) == 3


def test_cli_exit_codes(panel_file, tmp_path, capsys):
    assert main(["bogus"]) == 1                       # usage
    assert main(["build"]) == 1                       # usage
    assert main(["build", str(tmp_path / "nope.txt"), "-o", "x"]) == 2   # I/O
    bad = tmp_path / "bad.txt"
    bad.write_text("01\n0x\n")
    assert main(["build", str(bad), "-o", str(tmp_path / "x.idx")]) == 3  # validation
    junk = tmp_path / "junk.idx"
    junk.write_bytes(b"NOTANIDX" + b"\0" * 64)
    assert main(["prefix", str(junk), "0"]) == 2      # corrupt index
    for bad_args in (["--panels", "0"], ["--panels", "-1"], ["--seed", "-1"]):
        assert main(["selftest", *bad_args]) == 1     # usage: a run that checks nothing
    assert "usage error" in capsys.readouterr().err


def test_cli_selftest(capsys):
    assert main(["selftest", "--seed", "1", "--panels", "6"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out


def test_selftest_fails_under_optimize():
    # -O strips assert statements; the selftest's checks must still run
    code = """
from pbwtstep.selftest import run_selftest
from pbwtstep.stepindex import StepIndex
if __debug__:
    raise SystemExit("not running under -O")
print(run_selftest(panels=3)[0])
StepIndex.extract = lambda self, i: [-1]
ok, summary = run_selftest(panels=10)
print(ok)
print(summary)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "True"                   # control: unpatched selftest passes
    assert lines[1] == "False"
    assert "extract mismatch" in lines[2]


@pytest.mark.parametrize("name", ["fore_step", "back_step"])
def test_selftest_catches_an_off_by_one_step(monkeypatch, name):
    from pbwtstep.selftest import run_selftest
    from pbwtstep.stepindex import StepIndex

    step = getattr(StepIndex, name)

    def off_by_one(self, i, j, x):     # wrong on sub-run 1 of column 2 only
        i2, x2 = step(self, i, j, x)
        return (i2 + 1, x2) if (j, x) == (2, 1) else (i2, x2)

    monkeypatch.setattr(StepIndex, name, off_by_one)
    ok, summary = run_selftest(panels=10)
    assert not ok and f"{name} mismatch" in summary


def test_selftest_round_trips_an_index_file(monkeypatch):
    from pbwtstep import selftest

    assert selftest.run_selftest(panels=10)[0]     # the 10th panel goes through a file
    load = selftest.load_index

    def load_broken(path):
        ix = load(path)
        ix.step.extract = lambda i: [-1]
        return ix

    monkeypatch.setattr(selftest, "load_index", load_broken)
    ok, summary = selftest.run_selftest(panels=10)
    assert not ok and "round-trip extract mismatch" in summary


def test_selftest_failure_counts_passed_checks(monkeypatch):
    from pbwtstep.selftest import run_selftest
    from pbwtstep.stepindex import StepIndex

    monkeypatch.setattr(StepIndex, "extract", lambda self, i: [-1])
    ok, summary = run_selftest(panels=3)
    assert not ok and "extract mismatch" in summary
    m = re.search(r"FAILED after (\d+) checks", summary)
    assert m and int(m.group(1)) > 0
    # a query path that raises is a failure too, not an escaped exception
    monkeypatch.setattr(StepIndex, "extract", lambda self, i: self.fore_step(0, 1, 1))
    ok, summary = run_selftest(panels=3)
    assert not ok and "FAILED after" in summary

import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from pbwtstep.cli import main
from pbwtstep.io import (IndexFormatError, MAGIC, build_index, load_index,
                         load_panel, parse_panel_text, parse_pattern, save_index)
from pbwtstep.panel import Panel, PanelError

from conftest import pattern_battery, rand_panel
from test_golden_fixtures import PANEL_A, PANEL_B


def test_parse_digit_matrix():
    p, fmt = parse_panel_text("01\n10\n00\n")
    assert fmt == "digits" and p.h == 3 and p.w == 2 and p.sigma == 2


def test_parse_token_format():
    p, fmt = parse_panel_text("3 0 1\n1 2 0\n")
    assert fmt == "tokens" and p.h == 2 and p.w == 3
    assert p.sigma == 4


def test_parse_header_sigma():
    p, _ = parse_panel_text("#h=2 w=2 sigma=5\n01\n10\n")
    assert p.sigma == 5 and not p.sigma_inferred


def test_parse_malformed_line():
    with pytest.raises(PanelError, match="malformed"):
        parse_panel_text("01\n1x\n")


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


def test_parse_matches_per_character_oracle(rng):
    for k in range(120):
        ragged = k % 2 == 1
        lines = _digit_panel_text(rng, ragged)
        text = ("\r\n" if k % 3 else "\n").join(lines) + ("\r\n" if k % 4 else "")
        rows, sigma = _oracle_parse(text)
        if not rows:        # every row empty: a blank file
            continue
        p, fmt = parse_panel_text(text, ragged=ragged)
        assert fmt == "digits" and p.ragged == ragged
        assert [r.tolist() for r in p.rows] == rows
        want_sigma = sigma if sigma is not None else max(max(r, default=0) for r in rows) + 1
        assert (p.sigma, p.sigma_inferred) == (want_sigma, sigma is None)


def test_parse_bad_byte_names_its_line(rng):
    for _ in range(60):
        lines = [ln for ln in _digit_panel_text(rng, ragged=True) if ln.strip() and
                 not ln.startswith("#")]
        if not lines:
            continue
        k = int(rng.integers(0, len(lines)))
        pos = int(rng.integers(0, len(lines[k]) + 1))
        bad = "x-+./:a"[int(rng.integers(0, 7))]
        lines[k] = lines[k][:pos] + bad + lines[k][pos:]
        with pytest.raises(PanelError) as err:
            parse_panel_text("\n".join(["#sigma=10"] + lines), fmt="digits", ragged=True)
        assert str(err.value) == f"malformed line {k + 1}: {lines[k]!r}"


def test_parse_rejects_non_ascii_digits():
    # int() accepts other scripts' digits; a digit panel is ASCII only
    for text in ("0\u0663\n", "01\n1\uff11\n"):
        with pytest.raises(PanelError, match="malformed line"):
            parse_panel_text(text)
    with pytest.raises(PanelError, match="malformed line 2"):
        Panel.from_strings(["01", "0\u0663"])


def test_parse_mixed_lengths_needs_ragged():
    with pytest.raises(PanelError, match="mixed lengths"):
        parse_panel_text("01\n100\n")
    p, _ = parse_panel_text("01\n100\n", ragged=True)
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
                assert loaded.prefix.enumerate_prefixed(pat) == \
                    ix.prefix.enumerate_prefixed(pat)
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


def test_corrupt_panel_bytes_exit_cleanly(tmp_path, capsys):
    # every byte of a small digit and token panel replaced or lengthened:
    # build and stats accept the file (exit 0) or refuse it (exit 3)
    panels = [b"#sigma=3\n0110\n1021\n0001\n",
              b"3 0 1\n9223372036854775806 2\n1 2 0\n"]
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
                       ("1 0\n18446744073709551615 1\n", 2)):
        path.write_text(text)
        for cmd in (["build", str(path), "-o", str(tmp_path / "ix.bin")], ["stats", str(path)]):
            assert main(cmd) == 3
            assert f"out of int64 range on line {line}" in capsys.readouterr().err


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
    # the one-search --enumerate output equals enumerate_prefixed's ids under
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
            m_prime, ids = ix.enumerate_prefixed(pat)
            _, occ, witness = ix.partial_prefix_search(pat)
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
    import pbwtstep

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(pbwtstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p))
    code = """
from pbwtstep.retrieval import RetrievalIndex
from pbwtstep.selftest import run_selftest
if __debug__:
    raise SystemExit("not running under -O")
print(run_selftest(panels=3)[0])
RetrievalIndex.extract = lambda self, i: [-1]
ok, summary = run_selftest(panels=10)
print(ok)
print(summary)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
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


def test_selftest_failure_counts_passed_checks(monkeypatch):
    from pbwtstep.retrieval import RetrievalIndex
    from pbwtstep.selftest import run_selftest

    monkeypatch.setattr(RetrievalIndex, "extract", lambda self, i: [-1])
    ok, summary = run_selftest(panels=3)
    assert not ok and "extract mismatch" in summary
    m = re.search(r"FAILED after (\d+) checks", summary)
    assert m and int(m.group(1)) > 0
    # a query path that raises is a failure too, not an escaped exception
    monkeypatch.setattr(RetrievalIndex, "extract", lambda self, i: self.step.fore_step(0, 1, 1))
    ok, summary = run_selftest(panels=3)
    assert not ok and "FAILED after" in summary

import os
import struct
import subprocess
import sys
import zlib

import pytest

from pbwtstep.cli import main
from pbwtstep.io import (IndexFormatError, MAGIC, build_index, load_index,
                         load_panel, parse_panel_text, parse_pattern, save_index)
from pbwtstep.panel import Panel, PanelError

from conftest import pattern_battery, rand_panel


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


def test_malformed_crc_valid_payload_rejected(tmp_path, capsys):
    # one more column-1 start than written: every later array is misread,
    # but the checksum is recomputed, so only decoding can catch it
    path = tmp_path / "ix.bin"
    save_index(str(path), build_index(Panel.from_strings(["0110", "1011", "0001", "1100"])))
    blob = bytearray(path.read_bytes())
    head = len(MAGIC) + 20
    at = head + 32 + 8 + 8 * 4            # dims, then col_lens (count + 4 values)
    count = struct.unpack_from("<Q", blob, at)[0]
    struct.pack_into("<Q", blob, at, count + 1)
    struct.pack_into("<I", blob, len(MAGIC) + 8, zlib.crc32(bytes(blob[head:])))
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError):
        load_index(str(path))
    assert main(["extract", str(path), "1"]) == 2
    assert "index error" in capsys.readouterr().err


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
    capsys.readouterr()


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

"""Tests of the benchmark itself: seeded inputs, the oracle, and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import setup_child  # noqa: E402
from tracing import Tracer, TracingError  # noqa: E402
from workloads import WORKLOADS, RowScan, generate, read_queries, write_inputs  # noqa: E402

io = setup_child.import_io(HERE.parent)
from pbwtstep.panel import Panel  # noqa: E402

SMALL = {name: replace(wl, h=60, w=40) for name, wl in WORKLOADS.items()}


def _files(tmp_path, wl, seed, tag):
    paths = [tmp_path / f"{tag}.{ext}" for ext in ("panel", "prefix", "extract")]
    write_inputs(wl, generate(wl, seed), *paths)
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, name):
    wl = WORKLOADS[name]
    first = _files(tmp_path, wl, 7, "a")
    assert first == _files(tmp_path, wl, 7, "b")
    assert all(a != b for a, b in zip(first, _files(tmp_path, wl, 8, "c")))


def test_panel_file_round_trips_through_the_parser(tmp_path):
    wl = SMALL["ragged"]
    inputs = generate(wl, 3)
    paths = [tmp_path / n for n in ("panel.txt", "prefix.txt", "extract.txt")]
    write_inputs(wl, inputs, *paths)
    panel, fmt = io.load_panel(str(paths[0]), ragged=True)
    assert fmt == "digits" and panel.sigma == wl.sigma
    assert [r.tolist() for r in panel.rows] == [r.tolist() for r in inputs.rows]
    prefix, extract = read_queries(*paths[1:])
    assert prefix == [p.tolist() for p in inputs.prefix]
    assert extract == inputs.extract.tolist()


def _scan(rows, pattern):
    """Row-by-row reference for RowScan.prefix."""
    lcp = []
    for r in rows:
        k = 0
        while k < min(len(pattern), len(r)) and r[k] == pattern[k]:
            k += 1
        lcp.append(k)
    best = max(lcp)
    if best == 0:
        return 0, len(rows), 1
    hits = [i for i, k in enumerate(lcp, 1) if k == best]
    return best, len(hits), hits[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_row_scan_matches_loop_and_index(name):
    wl = SMALL[name]
    inputs = generate(wl, 5)
    rows = [r.tolist() for r in inputs.rows]
    if wl.sorted_rows:
        rows = sorted(rows)
    oracle = RowScan(wl, inputs.rows)
    panel = Panel.from_rows(inputs.rows, sigma=wl.sigma, ragged=wl.ragged)
    ix = io.build_index(panel, sorted_rows=wl.sorted_rows, fore_only=wl.fore_only)
    absent = [(rows[0][0] + 1) % wl.sigma] if all(r[0] == rows[0][0] for r in rows) else None
    patterns = [p.tolist() for p in inputs.prefix[:200]] + ([absent] if absent else [])
    for pat in patterns:
        assert oracle.prefix(pat) == _scan(rows, pat) == ix.prefix.partial_prefix_search(pat)
    for i in range(1, wl.h + 1):
        assert oracle.extract(i).tolist() == rows[i - 1] == ix.retrieval.extract(i)


def test_empty_match_reports_whole_panel():
    wl = replace(SMALL["blocky"], sigma=3)
    rows = [np.array([0, 1, 2] * 13 + [0], np.uint8)] * wl.h
    assert RowScan(wl, rows).prefix([1, 0]) == (0, wl.h, 1)


def test_self_time_subtracts_children():
    tr = Tracer()
    mod = types.SimpleNamespace(__name__="fake")
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    untraced = mod.outer
    tr.wrap(mod, "inner")
    tr.wrap(mod, "outer")
    mod.outer()
    tr.restore()
    outer = next(k for k, s in enumerate(tr.spans) if s.parent is None)
    kids = [s for s in tr.spans if s.parent == outer]
    assert len(kids) == 3
    expect = tr.spans[outer].duration - sum(s.duration for s in kids)
    assert tr.self_time(outer) == pytest.approx(expect, abs=1e-9)
    assert mod.outer is untraced


def test_missing_function_fails_loudly():
    tr = Tracer()
    with pytest.raises(TracingError):
        tr.wrap(io, "no_such_function")
    with pytest.raises(TracingError):
        tr.one("io.load_panel")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_build_is_byte_identical(tmp_path, name):
    wl = SMALL[name]
    panel = tmp_path / "panel.txt"
    write_inputs(wl, generate(wl, 11), panel, tmp_path / "p", tmp_path / "e")
    flags = (wl.sorted_rows, wl.fore_only, wl.ragged)
    setup_child.setup(io, str(panel), str(tmp_path / "plain.idx"), *flags)
    tr = setup_child.traced(io)
    try:
        setup_s, nbytes = setup_child.setup(io, str(panel), str(tmp_path / "traced.idx"),
                                            *flags)
    finally:
        tr.restore()
    assert (tmp_path / "plain.idx").read_bytes() == (tmp_path / "traced.idx").read_bytes()
    lay = setup_child.layer_metrics(tr, setup_s, nbytes, wl.sorted_rows, wl.fore_only)
    assert 0 < lay["subruns.fore_ratio"] < 1 and lay["stepindex.max_tuples"] <= 3
    assert (lay["subruns.back_count"] == 0) == wl.fore_only

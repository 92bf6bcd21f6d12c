"""One set-up repetition in a fresh process: panel file to saved index file.

Usage: python3 setup_child.py ROOT PANEL OUT [--sorted] [--fore-only] [--ragged] [--trace]

Times ``io.load_panel`` + ``io.build_index`` + ``io.save_index`` and prints
one JSON object: the set-up time, the process's peak RSS and the index size.
With ``--trace`` the same calls run with spans around each module function
that ``build_index`` calls, and the object also carries the spans and the
per-layer metrics derived from them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, TracingError, peak_rss_mb  # noqa: E402

# functions build_index calls, looked up in the io module's namespace
BUILD_STEPS = ("sort_panel", "build_pbwt", "build_fore_subruns", "build_back_subruns",
               "build_step_index", "assemble_prefix_index")


def import_io(root: Path):
    """``pbwtstep.io`` from ``root/src``; an installed copy is refused."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from pbwtstep import io
    if not Path(io.__file__).resolve().is_relative_to(src):
        raise ImportError(f"pbwtstep imported from {io.__file__}, not from {src}")
    return io


def setup(io, panel: str, out: str, sorted_rows: bool, fore_only: bool,
          ragged: bool) -> tuple[float, int]:
    t0 = time.perf_counter()
    p, fmt = io.load_panel(panel, ragged=ragged)
    ix = io.build_index(p, sorted_rows=sorted_rows, fore_only=fore_only, panel_format=fmt)
    nbytes = io.save_index(out, ix)
    return time.perf_counter() - t0, nbytes


def _pbwt_counts(pc) -> dict:
    return {"cells": int(sum(c.size for c in pc.cols)), "r_tilde": int(pc.total_runs)}


def _subrun_counts(lists) -> dict:
    return {"subruns": sum(len(lst) for lst in lists)}


def _table_counts(step) -> dict:
    per_subrun = [c.nquints for c in step.fore_cols if c.nquints is not None]
    if step.back_cols is not None:
        per_subrun += [c.nquads for c in step.back_cols if c.nquads is not None]
    n = np.concatenate(per_subrun) if per_subrun else np.zeros(0, np.int64)
    return {"stored_words": int(step.stored_words()), "tuples": int(n.sum()),
            "tabled_subruns": int(n.size), "max_tuples": int(n.max(initial=0))}


COUNTS = {"build_pbwt": _pbwt_counts, "build_fore_subruns": _subrun_counts,
          "build_back_subruns": _subrun_counts, "build_step_index": _table_counts}


def traced(io) -> Tracer:
    """A tracer wrapped around the set-up calls and every step of build_index."""
    tr = Tracer()
    for attr in ("load_panel", "build_index", "save_index") + BUILD_STEPS:
        tr.wrap(io, attr, COUNTS.get(attr))
    return tr


def layer_metrics(tr: Tracer, setup_s: float, nbytes: int, sorted_rows: bool,
                  fore_only: bool) -> dict:
    """Per-layer figures of one traced build; raises TracingError when a
    function build_index should have called left no span."""
    parse, build, save = (tr.one(f"io.{f}") for f in ("load_panel", "build_index",
                                                      "save_index"))
    pbwt = tr.one("pbwt.build_pbwt")
    fore = tr.one("subruns.build_fore_subruns")
    step = tr.one("stepindex.build_step_index")
    assemble = tr.one("prefixsearch.assemble_prefix_index")
    sort = tr.one("prefixsearch.sort_panel") if sorted_rows else None
    back = None if fore_only else tr.one("subruns.build_back_subruns")
    build_idx = tr.spans.index(build)
    in_build = sum(s.duration for s in tr.spans if s.parent == build_idx)
    r_tilde = pbwt.counts["r_tilde"]
    back_count = back.counts["subruns"] if back else 0
    sc = step.counts
    return {
        "io.parse_s": parse.duration,
        "io.save_s": save.duration,
        "io.index_bytes": nbytes,
        "io.bytes_per_word": nbytes / sc["stored_words"],
        "prefixsearch.sort_s": sort.duration if sort else 0.0,
        "prefixsearch.assemble_s": assemble.duration,
        "pbwt.build_s": pbwt.duration,
        "pbwt.ns_per_cell": pbwt.duration * 1e9 / pbwt.counts["cells"],
        "pbwt.peak_rss_mb": pbwt.rss_rise_mb,
        "pbwt.cells": pbwt.counts["cells"],
        "pbwt.r_tilde": r_tilde,
        "subruns.fore_s": fore.duration,
        "subruns.back_s": back.duration if back else 0.0,
        "subruns.fore_count": fore.counts["subruns"],
        "subruns.back_count": back_count,
        "subruns.fore_ratio": fore.counts["subruns"] / (2 * r_tilde),
        "subruns.back_ratio": back_count / (2 * r_tilde),
        "stepindex.build_s": step.duration,
        "stepindex.stored_words": sc["stored_words"],
        "stepindex.tuples_per_subrun": sc["tuples"] / max(sc["tabled_subruns"], 1),
        "stepindex.max_tuples": sc["max_tuples"],
        "trace.setup_s": setup_s,
        "trace.unattributed_s": setup_s - parse.duration - in_build - save.duration,
    }


def main(argv: list[str]) -> int:
    root, panel, out = Path(argv[0]), argv[1], argv[2]
    flags = set(argv[3:])
    sorted_rows, fore_only = "--sorted" in flags, "--fore-only" in flags
    io = import_io(root)
    tr = traced(io) if "--trace" in flags else None
    try:
        setup_s, nbytes = setup(io, panel, out, sorted_rows, fore_only, "--ragged" in flags)
    finally:
        if tr is not None:
            tr.restore()
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "index_bytes": nbytes}
    if tr is not None:
        try:
            result["layers"] = layer_metrics(tr, setup_s, nbytes, sorted_rows, fore_only)
        except TracingError as exc:
            print(f"tracing failed: {exc}", file=sys.stderr)
            return 3
        result["spans"] = tr.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

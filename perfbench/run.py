"""End-to-end benchmark: panel file -> build -> index file -> load -> queries.

Usage (from the repository root):

    python3 perfbench/run.py --workload blocky --seed 1 --seconds 15 --trace 0

For the chosen workload the benchmark generates a panel file and query
lists from the seed, builds and saves the index in fresh child processes
(one per repetition, so peak RSS is not shared between them), loads the
saved index, and runs prefix and extract queries against the loaded index in
a closed loop: one client, one query at a time, alternating the two kinds,
in passes over the same query slots that take about ``--seconds`` seconds in
all (see QueryLoop). Every answer is compared with a row scan of the
generated panel, outside the timed call.

With ``--trace 1`` each set-up repetition is followed by a traced one (spans
around the calls ``build_index`` makes into each module), the traced index
must be byte-identical to the untraced one, and the printed metrics are per
layer.

Each metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from setup_child import import_io  # noqa: E402
from workloads import WORKLOADS, RowScan, generate, read_queries, write_inputs  # noqa: E402

SETUP_REPS = 3        # set-up repetitions per run (and as many traced, with --trace 1)
PASSES = 5            # timed passes over the query slots
SUSPECT = 1.2         # per-column slowdown against the median that gets a slot retimed
RETRIES = 8           # extra timings of such slots,
RETRY_GAP_S = 0.2     # ... at least this far apart, longer than a burst of contention
LOAD_EVERY_S = 1.0    # seconds of queries between timed loads of the index
MIN_SAMPLES = 1010    # query slots per kind: p99 then has at least ten samples beyond it
WARMUP = 20           # untimed queries of each kind before the loop
CHAIN_ROWS = 200      # rows chained through fore_step for stepindex.fore_step_ns
SELECT_PAIRS = 20000  # rank+select pairs for prefixsearch.select_ns
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "load_s": "s", "index_bytes_per_run": "B", "build_peak_rss_mb": "MB",
    "prefix_qps": "1/s", "prefix_p50_us": "us", "prefix_p99_us": "us",
    "extract_qps": "1/s", "extract_p50_us": "us",
}
# printed with the end-to-end metrics, but not in the result: see README.md
UNBOUNDED_UNITS = {"extract_p99_us": "us"}


LAYER_UNITS = {
    "io.parse_s": "s", "io.save_s": "s", "io.index_bytes": "count",
    "io.bytes_per_word": "B/word",
    "prefixsearch.sort_s": "s", "prefixsearch.assemble_s": "s",
    "pbwt.build_s": "s", "pbwt.ns_per_cell": "ns", "pbwt.peak_rss_mb": "MB",
    "pbwt.cells": "count", "pbwt.r_tilde": "count",
    "subruns.fore_s": "s", "subruns.back_s": "s", "subruns.fore_count": "count",
    "subruns.back_count": "count", "subruns.fore_ratio": "ratio", "subruns.back_ratio": "ratio",
    "stepindex.build_s": "s", "stepindex.stored_words": "count",
    "stepindex.tuples_per_subrun": "count", "stepindex.max_tuples": "count",
    "stepindex.fore_step_ns": "ns",
    "prefixsearch.ns_per_col": "ns", "prefixsearch.select_ns": "ns",
    "prefixsearch.match_cols_mean": "count",
    "retrieval.ns_per_col": "ns",
    "trace.setup_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    if not (ROOT / "src" / "pbwtstep" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'pbwtstep'}")
    try:
        io = import_io(ROOT)
    except ImportError as exc:
        raise BenchError(str(exc)) from None
    from pbwtstep import kernels
    return io, kernels


def run_setup(panel: Path, out: Path, flags: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(ROOT), str(panel), str(out),
           *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up child ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_vals: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1, int(np.ceil(q * len(sorted_vals))) - 1))
    return float(sorted_vals[k])


class QueryLoop:
    """Closed loop over fixed query slots: one client, one query at a time.

    Slot k issues one query of each kind, ``queries[k % len(queries)]``, and
    keeps its fastest time. On a host shared with other tenants, queries run
    up to twice as slow while a neighbour is busy, in bursts of tens of
    milliseconds. A slot's best time only shows such a burst if every timing
    of the slot was hit, so slots are timed in PASSES passes seconds apart,
    and slots still slower per column than SUSPECT times their kind's median
    are timed again, up to RETRIES more times, RETRY_GAP_S apart. The saved
    index is loaded again every LOAD_EVERY_S seconds between queries.
    """

    def __init__(self, kinds: dict, load):
        self.kinds = kinds        # kind -> (call, queries, expected answers, columns)
        self.load = load
        self.best = {kind: [] for kind in kinds}
        self.loads: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._next_load = 0

    def _time(self, kind: str, k: int) -> None:
        call, queries, want, _ = self.kinds[kind]
        i = k % len(queries)
        t0 = time.perf_counter_ns()
        try:
            got = call(queries[i])
        except Exception:
            got = None
        dt = time.perf_counter_ns() - t0
        self.attempted += 1
        self.failed += not np.array_equal(got, want[i])
        best = self.best[kind]
        if k == len(best):
            best.append(dt)
        elif dt < best[k]:
            best[k] = dt
        if t0 >= self._next_load:
            self.loads.append(self.load())
            self._next_load = time.perf_counter_ns() + int(LOAD_EVERY_S * 1e9)

    def first_pass(self, seconds: float) -> None:
        """Warm up, then fill slots for ``seconds`` and at least MIN_SAMPLES."""
        for call, queries, _, _ in self.kinds.values():
            for q in queries[:WARMUP]:
                call(q)
        end = time.perf_counter_ns() + int(seconds * 1e9)
        while len(self.best["prefix"]) < MIN_SAMPLES or time.perf_counter_ns() < end:
            k = len(self.best["prefix"])
            for kind in self.kinds:
                self._time(kind, k)

    def next_pass(self) -> None:
        for k in range(len(self.best["prefix"])):
            for kind in self.kinds:
                self._time(kind, k)

    def retime_suspects(self) -> None:
        for kind, (_, _, _, cols) in self.kinds.items():
            best = self.best[kind]
            per_col = sorted(t / cols[k % len(cols)] for k, t in enumerate(best))
            limit = SUSPECT * per_col[len(per_col) // 2]
            for _ in range(RETRIES):
                suspects = [k for k, t in enumerate(best) if t > limit * cols[k % len(cols)]]
                if not suspects:
                    break
                start = time.perf_counter()
                for k in suspects:
                    self._time(kind, k)
                time.sleep(max(0.0, start + RETRY_GAP_S - time.perf_counter()))


def latency_metrics(kind: str, lat_ns: list[int]) -> dict:
    s = sorted(lat_ns)
    return {f"{kind}_qps": len(s) / (sum(s) / 1e9),
            f"{kind}_p50_us": percentile(s, 0.50) / 1e3,
            f"{kind}_p99_us": percentile(s, 0.99) / 1e3}


def best_of(fn) -> tuple[int, object]:
    """Fastest of PASSES back-to-back calls of ``fn`` in ns, and its result."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter_ns()
        out = fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times), out


def fore_step_chain(step, rows: list[int], lens) -> tuple[float, list[str]]:
    """Mean ns per step of find_fore_subrun then fore_step chained across
    every column each row reaches; checks the final sub-run of each chain."""
    plan = [(i, min(int(lens[i - 1]), step.w - 1)) for i in rows]

    def chain():
        ends = []
        for i, last in plan:
            x, cur = step.find_fore_subrun(1, i), i
            for j in range(1, last + 1):
                cur, x = step.fore_step(cur, j, x)
            ends.append((cur, x, last + 1))
        return ends

    ns, ends = best_of(chain)
    errors = [f"fore_step chain ends in sub-run {x}, not {step.find_fore_subrun(j, cur)}"
              for cur, x, j in ends if step.find_fore_subrun(j, cur) != x]
    return ns / max(sum(last for _, last in plan), 1), errors[:3]


def select_pairs(ix, rng) -> tuple[float, list[str]]:
    """Mean ns of one rank + select pair over a column's sub-run symbols:
    the next occurrence of a symbol after a sub-run, as prefix search asks."""
    st = ix.step
    probes = []
    for j in rng.integers(1, st.w + 1, size=SELECT_PAIRS).tolist():
        rs = ix.prefix.rank_select[j - 1]
        probes.append((j, rs, int(rng.integers(0, st.sigma)), int(rng.integers(1, rs.n + 1))))
    ns, found = best_of(lambda: [rs.select(c, rs.rank(c, x) + 1) for _, rs, c, x in probes])
    errors = []
    for (j, rs, c, x), y in zip(probes, found):
        nxt = np.flatnonzero(st.fore_cols[j - 1].vals[x:] == c)
        if y != (x + 1 + int(nxt[0]) if nxt.size else rs.n + 1):
            errors.append(f"select after rank in column {j}: {y} for symbol {c} after {x}")
    return ns / SELECT_PAIRS, errors[:3]


def median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def emit(metrics: dict, units: dict) -> dict:
    """Print every metric named in ``units`` and return them in result form."""
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def layer_metrics(ix, traced, loop, oracle, extract_q, seed, wl):
    """Per-layer figures: medians over the traced builds, query cost per column
    from the closed loop, and two probes of single query layers. Also checks
    the paper's invariants on every traced build."""
    errors = []
    for t in traced:
        lay = t["layers"]
        for kind in ("fore", "back"):
            if not lay[f"subruns.{kind}_ratio"] < 1:
                errors.append(f"{lay[f'subruns.{kind}_count']} {kind} sub-runs, not fewer "
                              f"than 2*r_tilde = {2 * lay['pbwt.r_tilde']}")
        if not lay["stepindex.max_tuples"] <= 3:
            errors.append(f"a sub-run holds {lay['stepindex.max_tuples']} tuples, more than 3")
    layers = median_dict([t["layers"] for t in traced])

    def per_col(kind):
        _, queries, want, cols = loop.kinds[kind]
        best = loop.best[kind]
        slots = [k % len(queries) for k in range(len(best))]
        return sum(best) / sum(cols[i] for i in slots), [want[i] for i in slots]

    layers["prefixsearch.ns_per_col"], answers = per_col("prefix")
    layers["prefixsearch.match_cols_mean"] = statistics.mean(a[0] for a in answers)
    layers["retrieval.ns_per_col"], _ = per_col("extract")
    layers["stepindex.fore_step_ns"], errs = fore_step_chain(
        ix.step, extract_q[:CHAIN_ROWS], oracle.lens)
    errors += errs
    layers["prefixsearch.select_ns"], errs = select_pairs(
        ix, np.random.default_rng([seed, wl.key, 1]))
    errors += errs
    return layers, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        io, kernels = import_package()
        work.mkdir(parents=True)
        return measure(args, wl, io, kernels, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work.parent.rmdir()


def measure(args, wl, io, kernels, work: Path) -> int:
    panel = work / "panel.txt"
    prefix_path, extract_path = work / "prefix.txt", work / "extract.txt"
    inputs = generate(wl, args.seed)
    write_inputs(wl, inputs, panel, prefix_path, extract_path)
    oracle = RowScan(wl, inputs.rows)
    del inputs
    prefix_q, extract_q = read_queries(prefix_path, extract_path)
    want_prefix = [oracle.prefix(q) for q in prefix_q]
    want_extract = [oracle.extract(i) for i in extract_q]

    flags = [flag for flag, on in (("--sorted", wl.sorted_rows), ("--fore-only", wl.fore_only),
                                   ("--ragged", wl.ragged)) if on]
    builds, traced = [], []

    def setup(k: int) -> None:
        builds.append(run_setup(panel, work / f"index{k}.idx", flags))
        if args.trace:
            traced.append(run_setup(panel, work / f"traced{k}.idx", flags + ["--trace"]))

    index_path = work / "index0.idx"

    def load() -> float:
        t0 = time.perf_counter()
        io.load_index(str(index_path))
        return time.perf_counter() - t0

    # columns a query touches: prefix search examines the matched ones and the
    # first mismatch; extract visits the whole row and a short row's terminator
    prefix_cols = [min(a[0] + 1, len(q)) for a, q in zip(want_prefix, prefix_q)]
    extract_cols = [int(oracle.lens[i - 1]) + wl.ragged for i in extract_q]
    # set-up repetitions sit between query passes, so the passes are spread
    # over the whole run and a long spell of host contention hits fewer of them
    setup(0)
    ix = io.load_index(str(index_path))
    loop = QueryLoop({"prefix": (ix.prefix.partial_prefix_search, prefix_q, want_prefix,
                                 prefix_cols),
                      "extract": (ix.retrieval.extract, extract_q, want_extract,
                                  extract_cols)}, load)
    loop.first_pass(args.seconds / PASSES)
    for p in range(1, PASSES):
        if p < SETUP_REPS:
            setup(p)
        loop.next_pass()
    loop.retime_suspects()
    reference = index_path.read_bytes()
    errors = [f"{f.name} is not byte-identical to {index_path.name}"
              for f in sorted(work.glob("*.idx")) if f.read_bytes() != reference]
    n = len(loop.best["prefix"])
    r_tilde = ix.step.total_runs
    e2e = {"setup_s": statistics.median(b["setup_s"] for b in builds),
           "load_s": min(loop.loads),
           "index_bytes_per_run": len(reference) / r_tilde,
           "build_peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in builds),
           **latency_metrics("prefix", loop.best["prefix"]),
           **latency_metrics("extract", loop.best["extract"])}

    print(f"# workload {args.workload} seed={args.seed} h={ix.h} w={ix.w} "
          f"sigma={wl.sigma} r_tilde={r_tilde} index_bytes={len(reference)}")
    print(f"# env backend={kernels.BACKEND} numpy={np.__version__} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"# samples setup={SETUP_REPS} load={len(loop.loads)} prefix={n} extract={n} "
          f"(query slots, best of at least {PASSES} timings each; closed loop, one client)")
    print(f"failed_frac {loop.failed / loop.attempted:.6g} -")
    emit(e2e, UNBOUNDED_UNITS)
    metrics = emit(e2e, END_TO_END_UNITS)

    if args.trace:
        try:
            layers, trace_errors = layer_metrics(ix, traced, loop, oracle, extract_q,
                                                 args.seed, wl)
        except (AttributeError, TypeError, KeyError) as exc:
            raise BenchError(f"per-layer probe no longer matches the package: {exc!r}")
        errors += trace_errors
        layers["trace.overhead_s"] = layers["trace.setup_s"] - e2e["setup_s"]
        for s in traced[-1]["spans"]:
            print(f"# span {s['name']} parent={s['parent']} dur_s={s['end'] - s['start']:.6f} "
                  f"self_s={s['self_s']:.6f} rss_rise_mb={s['rss_rise_mb']:.1f}")
        metrics = emit(layers, LAYER_UNITS)

    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    correct = loop.failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

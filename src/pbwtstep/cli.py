"""Command-line interface: build, prefix, extract, stats, selftest.

Exit codes: 0 ok, 1 usage, 2 I/O (including corrupt index files),
3 input validation, 4 selftest failure. Results go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .bounds import check_bounds
from .io import (IndexFormatError, build_index, format_row, load_index,
                 load_panel, parse_pattern, save_index)
from .panel import PanelError
from .selftest import run_selftest


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    ap = _Parser(prog="pbwtstep",
                 description="Run-length compressed PBWT indexing: constant-time "
                             "stepping, prefix search, haplotype retrieval.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index from a panel file")
    b.add_argument("panel")
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--sorted", action="store_true",
                   help="sort rows lexicographically; enables interval output "
                        "and id enumeration")
    b.add_argument("--ragged", action="store_true",
                   help="allow rows of differing lengths (terminator-extended)")
    b.add_argument("--fore-only", action="store_true",
                   help="store only the forward tables (no backward steps)")
    b.add_argument("--format", choices=["auto", "digits", "tokens"], default="auto")

    q = sub.add_parser("prefix", help="longest-prefix query against an index")
    q.add_argument("index")
    q.add_argument("pattern",
                   help="symbols in the panel's file syntax; '' for the empty pattern")
    q.add_argument("--enumerate", action="store_true", dest="enumerate_ids",
                   help="also list matching haplotype ids (sorted index only)")

    e = sub.add_parser("extract", help="reconstruct one haplotype from an index")
    e.add_argument("index")
    e.add_argument("row", type=int)

    s = sub.add_parser("stats", help="run-count statistics and bound checks")
    s.add_argument("panel")
    s.add_argument("--format", choices=["auto", "digits", "tokens"], default="auto")
    s.add_argument("--csv", help="also write per-column counts as CSV")

    t = sub.add_parser("selftest", help="randomized oracle cross-validation")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--panels", type=int, default=50)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.cmd == "selftest" and (args.panels < 1 or args.seed < 0):
            ap.error("selftest needs --panels >= 1 and --seed >= 0")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.cmd == "build":
            panel, fmt = load_panel(args.panel, fmt=args.format, ragged=args.ragged)
            ix = build_index(panel, sorted_rows=args.sorted,
                             fore_only=args.fore_only, panel_format=fmt)
            nbytes = save_index(args.output, ix)
            print(f"h={ix.h} w={ix.w} sigma={ix.prefix.sigma_public} "
                  f"r_tilde={ix.step.total_runs} bytes={nbytes}")
            return 0

        if args.cmd == "prefix":
            ix = load_index(args.index)
            pattern = parse_pattern(args.pattern, ix.panel_format)
            m_prime, occ, witness = ix.prefix.partial_prefix_search(pattern)
            ids = ix.prefix.row_ids(witness, occ) if args.enumerate_ids else None
            print(f"m'={m_prime} occ={occ} index={witness}")
            if ids is not None:
                print("ids=" + ",".join(map(str, ids)))
            return 0

        if args.cmd == "extract":
            ix = load_index(args.index)
            row = ix.retrieval.extract(args.row)
            print(format_row(row, ix.panel_format))
            return 0

        if args.cmd == "stats":
            panel, _ = load_panel(args.panel, fmt=args.format)
            report = check_bounds(panel)
            for line in report.lines():
                print(line)
            if args.csv:
                with open(args.csv, "w", newline="", encoding="ascii") as fh:
                    wr = csv.writer(fh)
                    wr.writerow(["column", "runs", "canonical"])
                    for j, (r, ell) in enumerate(zip(report.r_per_col,
                                                     report.ell_per_col), 1):
                        wr.writerow([j, r, ell])
            return 0 if report.passed else 3

        if args.cmd == "selftest":
            ok, summary = run_selftest(seed=args.seed, panels=args.panels,
                                       log=lambda s: print(s, file=sys.stderr))
            print(summary)
            return 0 if ok else 4

    except (PanelError, ValueError) as exc:
        if isinstance(exc, IndexFormatError):
            print(f"index error: {exc}", file=sys.stderr)
            return 2
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

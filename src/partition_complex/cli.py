"""Command-line interface: tables, verification runs, homology reports, exports.

Every subcommand writes deterministic output: no timestamps, sorted JSON
keys, LF newlines.  Identical arguments (including --seed) produce
byte-identical files, and `verify` gives the same bytes for every --jobs.

Only `verify` takes --jobs, to run its n values in parallel.  `table` and
`export bfile` take every row from one pass over part values
(cliques.fvector_table), so they have nothing to split among workers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from typing import Optional, Sequence

from .cliques import (
    format_facet_lines,
    fvector_table,
    maximal_simplices,
)
from .graph import build_graph, format_dimacs, format_edge_list, format_legend
from .homology import build_chain_complex, reduced_homology
from .nerve import build_nerve, build_poset, order_complex, poset_json_dict
from .verification import (
    BUDGETS,
    FAIL,
    PASS,
    SKIP,
    SUITE_ORDER,
    VACUOUS,
    homology_concentrated,
    verify_single_n,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path atomically: into a temp file beside it,
    then os.replace, so a failed write leaves no partial file and any
    existing file at that path unchanged.  A directory at any of the paths
    is refused before any file is written."""
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(f"Is a directory: {path!r}")
    for path, text in texts.items():
        temp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(temp, "w", newline="\n") as handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
            raise


def _emit(text: str, out: Optional[str]) -> None:
    """Write to the --out path when given, else to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        _write_files({out: text})


# -- table -------------------------------------------------------------


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for --jobs: never more workers than tasks or CPUs, at least one."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _map_over_n(worker, ns, jobs: int) -> list:
    """Apply worker to each n, in parallel when the clamped pool has > 1 worker,
    merged in n order.  The pool module (and multiprocessing) is imported only
    here, so a serial run never loads it."""
    workers = _worker_count(jobs, len(ns))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, ns))
    return [worker(n) for n in ns]


def _format_table_text(fvectors) -> str:
    header = ("n", "p", "f-vector", "chi", "b")
    cells = [header]
    for n, fvector in enumerate(fvectors, start=1):
        counts = fvector.counts
        chi = fvector.euler_characteristic
        cells.append((str(n), str(counts[0]), str(list(counts)),
                      str(chi), str(chi - 1)))
    widths = [max(len(row[col]) for row in cells) for col in range(5)]
    lines = []
    for row in cells:
        # Right-align the numeric columns, left-align the f-vector.
        parts = [row[0].rjust(widths[0]), row[1].rjust(widths[1]),
                 row[2].ljust(widths[2]), row[3].rjust(widths[3]),
                 row[4].rjust(widths[4])]
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines) + "\n"


def _format_table_csv(fvectors) -> str:
    depth = max(len(fvector.counts) for fvector in fvectors)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "p"] + [f"f{i}" for i in range(depth)] + ["chi", "b"])
    for n, fvector in enumerate(fvectors, start=1):
        counts = fvector.counts
        chi = fvector.euler_characteristic
        padded = list(counts) + [""] * (depth - len(counts))
        writer.writerow([n, counts[0]] + padded + [chi, chi - 1])
    return buffer.getvalue()


def _format_table_json(fvectors) -> str:
    payload = {"rows": []}
    for n, fvector in enumerate(fvectors, start=1):
        chi = fvector.euler_characteristic
        payload["rows"].append({
            "n": n,
            "p": fvector.counts[0],
            "fvector": list(fvector.counts),
            "chi": chi,
            "b": chi - 1,
        })
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    fvectors = fvector_table(args.max_n)
    if args.format == "csv":
        text = _format_table_csv(fvectors)
    elif args.format == "json":
        text = _format_table_json(fvectors)
    else:
        text = _format_table_text(fvectors)
    _emit(text, args.out)
    return 0


# -- verify ------------------------------------------------------------


def _selected_suites(requested: Optional[list]) -> frozenset:
    if not requested or "all" in requested:
        return frozenset(SUITE_ORDER)
    return frozenset(requested)


def _format_verify_text(outcomes) -> str:
    lines = [outcome.line() for outcome in outcomes]
    tally = {PASS: 0, FAIL: 0, VACUOUS: 0, SKIP: 0}
    for outcome in outcomes:
        tally[outcome.status] += 1
    lines.append(f"{tally[PASS]} pass, {tally[FAIL]} fail,"
                 f" {tally[VACUOUS]} vacuous, {tally[SKIP]} skip")
    return "\n".join(lines) + "\n"


def _format_verify_csv(outcomes) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "n", "status", "detail", "counterexample"])
    for outcome in outcomes:
        witness = ""
        if outcome.counterexample is not None:
            witness = json.dumps(outcome.counterexample, sort_keys=True)
        writer.writerow([outcome.suite, outcome.n, outcome.status,
                         outcome.detail or "", witness])
    return buffer.getvalue()


def _format_verify_json(outcomes) -> str:
    payload = {"outcomes": [outcome.to_json_dict() for outcome in outcomes]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    suites = _selected_suites(args.suite)
    if args.ignore_budget:
        capped = sorted(name for name in suites if args.max_n > BUDGETS[name])
        if capped:
            print("warning: running past the default budgets of "
                  + ", ".join(capped) + "; large n may take a long time",
                  file=sys.stderr)
    worker = functools.partial(verify_single_n, suites=suites, seed=args.seed,
                               ignore_budget=args.ignore_budget)
    chunks = _map_over_n(worker, range(1, args.max_n + 1), args.jobs)
    outcomes = [outcome for chunk in chunks for outcome in chunk]
    if args.format == "csv":
        text = _format_verify_csv(outcomes)
    elif args.format == "json":
        text = _format_verify_json(outcomes)
    else:
        text = _format_verify_text(outcomes)
    _emit(text, args.out)
    return 1 if any(outcome.status == FAIL for outcome in outcomes) else 0


# -- homology ----------------------------------------------------------


def cmd_homology(args: argparse.Namespace) -> int:
    budget = BUDGETS["homology"]
    if args.n > budget:
        if not args.ignore_budget:
            print(f"error: n={args.n} exceeds the default homology budget"
                  f" n <= {budget}; rerun with --ignore-budget to proceed",
                  file=sys.stderr)
            return 3
        print(f"warning: n={args.n} is past the default homology budget"
              f" n <= {budget}; this may take a long time", file=sys.stderr)
    facets = maximal_simplices(build_graph(args.n))
    report = reduced_homology(build_chain_complex(facets))
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = report.summary() + "\n"
    _emit(text, args.out)
    if not homology_concentrated(report, report.euler_characteristic):
        print("error: homology deviates from the degree-2 concentration"
              " pattern; see the report above", file=sys.stderr)
        return 1
    return 0


# -- export ------------------------------------------------------------

_EXPORT_FORMATS = {
    "graph": ("dimacs", ("dimacs", "edges")),
    "facets": ("text", ("text",)),
    "poset": ("json", ("json", "text")),
    "bfile": ("text", ("text",)),
}


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def cmd_export(args: argparse.Namespace) -> int:
    default_format, allowed = _EXPORT_FORMATS[args.what]
    fmt = args.format or default_format
    if fmt not in allowed:
        return _usage_error(
            f"format {fmt!r} is not valid for {args.what}"
            f" (choose from {', '.join(allowed)})")
    if args.what == "bfile":
        if args.n is not None:
            return _usage_error("export bfile takes no --n; use --max-n")
        if args.sequence is None:
            return _usage_error("export bfile needs a sequence: chi or b")
        if args.max_n is None:
            return _usage_error("export bfile needs --max-n")
        lines = []
        for n, fvector in enumerate(fvector_table(args.max_n), start=1):
            chi = fvector.euler_characteristic
            value = chi if args.sequence == "chi" else chi - 1
            lines.append(f"{n} {value}\n")
        _emit("".join(lines), args.out)
        return 0
    if args.sequence is not None:
        return _usage_error(f"export {args.what} takes no sequence argument")
    if args.max_n is not None:
        return _usage_error(f"export {args.what} takes no --max-n; use --n")
    if args.n is None:
        return _usage_error(f"export {args.what} needs --n")
    g = build_graph(args.n)
    if args.what == "graph":
        text = format_dimacs(g) if fmt == "dimacs" else format_edge_list(g)
        if args.out is None:
            sys.stdout.write(text)
        else:
            # Vertex legend rides along as a sibling file, never on stdout.
            _write_files({args.out: text, args.out + ".legend": format_legend(g)})
        return 0
    if args.what == "facets":
        _emit(format_facet_lines(maximal_simplices(g)), args.out)
        return 0
    poset = build_poset(build_nerve(g))
    if fmt == "json":
        text = json.dumps(poset_json_dict(poset), indent=2, sort_keys=True) + "\n"
    else:
        text = format_facet_lines(order_complex(poset).facets)
    _emit(text, args.out)
    return 0


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-complex",
        description="Transfer graphs on integer partitions, their clique"
                    " complexes, and verification of the structure theorems.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="per-n table of p(n), f-vector, chi, and b; every row"
        " comes from one pass over part values, with no graph built and no"
        " partition listed")
    table.add_argument("--max-n", type=_positive_int, required=True,
                       help="largest n to tabulate")
    table.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    table.add_argument("--out", help="write here instead of stdout")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--suite", action="append",
                        choices=SUITE_ORDER + ("all",),
                        help="suite to run; repeatable; default all")
    verify.add_argument("--max-n", type=_positive_int, required=True,
                        help="largest n to verify")
    verify.add_argument("--seed", type=int, default=None,
                        help="base seed for the randomized walk suite")
    verify.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    verify.add_argument("--out", help="write here instead of stdout")
    verify.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes, capped at the CPU count and the"
                        " number of n values; output is identical either way")
    verify.add_argument("--ignore-budget", action="store_true",
                        help="run suites past their default n budgets")
    verify.set_defaults(func=cmd_verify)

    homology = sub.add_parser(
        "homology", help="exact integer homology of the clique complex")
    homology.add_argument("--n", type=_positive_int, required=True)
    homology.add_argument("--format", choices=("text", "json"),
                          default="text")
    homology.add_argument("--out", help="write here instead of stdout")
    homology.add_argument("--ignore-budget", action="store_true",
                          help="allow n past the default budget")
    homology.set_defaults(func=cmd_homology)

    export = sub.add_parser(
        "export", help="write graphs, facets, posets, or integer sequences")
    export.add_argument("what", choices=("graph", "facets", "poset", "bfile"))
    export.add_argument("sequence", nargs="?", choices=("chi", "b"),
                        help="which sequence to export (bfile only)")
    export.add_argument("--n", type=_positive_int,
                        help="partition size (graph, facets, poset)")
    export.add_argument("--max-n", type=_positive_int,
                        help="largest n (bfile)")
    export.add_argument("--format",
                        help="graph: dimacs or edges; poset: json or text")
    export.add_argument("--out", help="write here instead of stdout")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

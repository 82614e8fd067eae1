"""Command-line interface: tables, verification runs, homology reports, exports.

Every subcommand writes deterministic output: no timestamps, sorted JSON
keys, LF newlines.  Identical arguments (including --seed) produce
byte-identical files, and `verify` gives the same bytes for every --jobs.

Only `verify` takes --jobs, to run its n values in parallel.  `table` and
`export bfile` take every row from the partition numbers p(0..max-n)
(cliques.fvector_table), so they have nothing to split among workers.

Each output rule is written once.  `_table_rows` reads chi and b = chi - 1
off the f-vectors for every table format and for `export bfile`;
`_json_text` fixes the bytes of every JSON document; and each subcommand,
each `export` target included, takes its --format choices from one
format -> formatter table (`_TABLE_FORMATS`, `_VERIFY_FORMATS`,
`_HOMOLOGY_FORMATS`, `_EXPORT_FORMATS[target]`), whose keys are the formats
it accepts.  Every export format, with its rule of 1-based ids and one line
per edge, facet or chain, and the verify text line are defined here and
nowhere else in the package.

argparse alone validates arguments: `export` has one subcommand per target,
each with its own size flag (`bfile` --max-n and a sequence, the others
--n), so every usage error exits 2 through argparse, and a stray argument
is reported by the (sub)command it was given to.

Each per-n stage is chained in one place, `stages.NContext`: `verify` runs
its suites on one, and `homology` and `export` read the graph, facets and
poset on n off one.  This module calls no stage builder itself.

Each command loads only the layers it runs.  At import this module loads
nothing from the package but `suite_names`, which the parser lists for
--suite; each subcommand imports its layers when it runs.  So `table` and
`export bfile` load `cliques`, `graph` and `partitions` only; `homology`
and the other `export` targets add `stages` and the builders they read;
and only `verify` loads the verification, loop and oracle layers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import stat
import sys
from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .suite_names import BUDGETS, SUITE_ORDER


def _digits(text: str) -> str:
    """text, if it names a positive integer as parse_partition takes a part:
    ASCII decimal digits with no leading zero."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} must be ASCII decimal digits")
    if text[0] == "0":
        raise argparse.ArgumentTypeError(
            f"{text!r} must be at least 1" if text == "0" else f"{text!r} has a leading zero")
    return text


def _positive_int(text: str) -> int:
    try:
        return int(_digits(text))
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"{text!r} is too long") from None


def _seed(text: str) -> int:
    """A --seed value: 0, or a positive integer as _positive_int takes it,
    after an optional '-'."""
    if text == "0":
        return 0
    if text.startswith("-"):
        return -_positive_int(text[1:])
    return _positive_int(text)


def _size_up_to(bound: int):
    """The argparse type of a size flag: an integer from 1 to bound."""

    def size(text: str) -> int:
        # A digit string longer than the bound's is past it, however long.
        digits = _digits(text)
        if len(digits) > len(str(bound)) or int(digits) > bound:
            raise argparse.ArgumentTypeError(f"{text!r} must be at most {bound}")
        return int(digits)

    return size


# Each size flag is bounded, so no integer overflows or runs without end.
# `table` and `export bfile` read the partition numbers with no graph built
# (about 0.2 s for the whole run at n = 1000 on a 2-vCPU host); every other
# size flag builds objects on the partitions of n, so its bound is that of
# the graph (`export graph --n 45` peaks at 672 MB), except `export poset`,
# whose poset outgrows the graph: it peaks at 629 MB at n = 36 and 773 MB at
# n = 37.
_TABLE_SIZE = _size_up_to(1000)
_GRAPH_SIZE = _size_up_to(45)
_POSET_SIZE = _size_up_to(36)


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path atomically: into a temp file beside it,
    then os.replace, so a failed write leaves no partial file and any
    existing file at that path unchanged.  A symlink is followed: its target
    is replaced and the link kept.  Every path is checked before any file is
    written, and an empty path or an existing one that is not a regular file
    (a directory, FIFO, device or socket) is refused.  The temp file is made
    exclusively, under the first free name, so no file this did not create is
    written or removed; it gets the mode open(path, "w") would leave.  An
    error opening or replacing a temp file names its path, not the temp
    file."""
    modes = {}
    for path in texts:
        if not path:
            raise FileNotFoundError(f"No such file or directory: {path!r}")
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            continue
        if not stat.S_ISREG(mode):
            raise OSError(f"Not a regular file: {path!r}")
        modes[path] = stat.S_IMODE(mode)
    for path, text in texts.items():
        target = os.path.realpath(path)
        temp = created = None
        try:
            for attempt in itertools.count():
                temp = f"{target}.{os.getpid()}.{attempt}.tmp"
                with contextlib.suppress(FileExistsError):
                    handle = open(temp, "x", newline="\n")
                    break
            created = temp
            with handle:
                handle.write(text)
            if path in modes:
                os.chmod(temp, modes[path])
            os.replace(temp, target)
        except BaseException as exc:
            if created is not None:
                with contextlib.suppress(OSError):
                    os.remove(created)
            if isinstance(exc, OSError) and exc.filename == temp:
                # Name the path asked for, not the temp file beside it.
                raise type(exc)(exc.errno, exc.strerror, path) from None
            raise


def _emit(text: str, out: Optional[str]) -> None:
    """Write to the --out path when given, else to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        _write_files({out: text})


def _json_text(payload) -> str:
    """Every JSON document on stdout: sorted keys, two-space indent, final LF."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


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


class TableRow(NamedTuple):
    """One row of the chi table: n, the f-vector counts, chi and b = chi - 1."""

    n: int
    counts: tuple[int, ...]
    chi: int
    b: int


def _table_rows(max_n: int) -> list[TableRow]:
    """One row per n up to max_n, off one cliques.fvector_table call.  This
    is the only place chi and b = chi - 1 are read off an f-vector, for
    every table format and for `export bfile`."""
    from .cliques import fvector_table

    rows = []
    for n, fvector in enumerate(fvector_table(max_n), start=1):
        chi = fvector.euler_characteristic
        rows.append(TableRow(n, fvector.counts, chi, chi - 1))
    return rows


def _format_table_text(rows) -> str:
    cells = [("n", "p", "f-vector", "chi", "b")]
    cells += [(str(n), str(counts[0]), str(list(counts)), str(chi), str(b))
              for n, counts, chi, b in rows]
    widths = tuple(max(map(len, column)) for column in zip(*cells))
    # Right-align the numeric columns, left-align the f-vector; the last
    # column is right-aligned, so no line ends in a space.
    line = "{:>%d}  {:>%d}  {:<%d}  {:>%d}  {:>%d}\n" % widths
    return "".join(line.format(*row) for row in cells)


def _format_table_csv(rows) -> str:
    depth = max(len(row.counts) for row in rows)
    lines = [["n", "p"] + [f"f{i}" for i in range(depth)] + ["chi", "b"]]
    for n, counts, chi, b in rows:
        padded = list(counts) + [""] * (depth - len(counts))
        lines.append([n, counts[0]] + padded + [chi, b])
    return _csv_text(lines)


def _format_table_json(rows) -> str:
    return _json_text({"rows": [
        {"n": n, "p": counts[0], "fvector": counts, "chi": chi, "b": b}
        for n, counts, chi, b in rows]})


_TABLE_FORMATS = {
    "text": _format_table_text,
    "csv": _format_table_csv,
    "json": _format_table_json,
}


def cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args.max_n)
    _emit(_TABLE_FORMATS[args.format](rows), args.out)
    return 0


# -- verify ------------------------------------------------------------


def _selected_suites(requested: Optional[list]) -> frozenset:
    if not requested or "all" in requested:
        return frozenset(SUITE_ORDER)
    return frozenset(requested)


def _format_verify_text(outcomes) -> str:
    from .verification import FAIL, PASS, SKIP, VACUOUS

    lines = []
    for outcome in outcomes:
        line = f"{outcome.suite} n={outcome.n}: {outcome.status}"
        if outcome.detail:
            line += f" ({outcome.detail})"
        if outcome.counterexample is not None:
            pairs = sorted(outcome.counterexample.items())
            line += " [" + ", ".join(f"{k}={v}" for k, v in pairs) + "]"
        lines.append(line)
    tally = Counter(outcome.status for outcome in outcomes)
    lines.append(f"{tally[PASS]} pass, {tally[FAIL]} fail,"
                 f" {tally[VACUOUS]} vacuous, {tally[SKIP]} skip")
    return "\n".join(lines) + "\n"


def _format_verify_csv(outcomes) -> str:
    rows = [("suite", "n", "status", "detail", "counterexample")]
    for outcome in outcomes:
        witness = ""
        if outcome.counterexample is not None:
            # Compact: a csv cell, not a JSON document.
            witness = json.dumps(outcome.counterexample, sort_keys=True)
        rows.append((outcome.suite, outcome.n, outcome.status,
                     outcome.detail or "", witness))
    return _csv_text(rows)


_VERIFY_FORMATS = {
    "text": _format_verify_text,
    "csv": _format_verify_csv,
    "json": lambda outcomes: _json_text(
        {"outcomes": [dataclasses.asdict(outcome) for outcome in outcomes]}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import FAIL, verify_single_n

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
    _emit(_VERIFY_FORMATS[args.format](outcomes), args.out)
    return 1 if any(outcome.status == FAIL for outcome in outcomes) else 0


# -- homology ----------------------------------------------------------

_HOMOLOGY_FORMATS = {
    "text": lambda report: report.summary() + "\n",
    "json": lambda report: _json_text(report.to_json_dict()),
}


def cmd_homology(args: argparse.Namespace) -> int:
    from .homology import build_chain_complex, homology_concentrated, reduced_homology
    from .stages import NContext

    budget = BUDGETS["homology"]
    if args.n > budget:
        if not args.ignore_budget:
            print(f"error: n={args.n} exceeds the default homology budget"
                  f" n <= {budget}; rerun with --ignore-budget to proceed",
                  file=sys.stderr)
            return 3
        print(f"warning: n={args.n} is past the default homology budget"
              f" n <= {budget}; this may take a long time", file=sys.stderr)
    # No local keeps the context, so its graph is freed before the chain
    # complex is built.
    report = reduced_homology(build_chain_complex(NContext(args.n).facets))
    _emit(_HOMOLOGY_FORMATS[args.format](report), args.out)
    if not homology_concentrated(report):
        print("error: homology deviates from the degree-2 concentration"
              " pattern; see the report above", file=sys.stderr)
        return 1
    return 0


# -- export ------------------------------------------------------------


def _format_bfile(rows, sequence: str) -> str:
    """Lines "n value" of one column; sequence (chi or b) is a TableRow field."""
    return "".join(f"{row.n} {getattr(row, sequence)}\n" for row in rows)


def _facet_lines(facets) -> str:
    """One facet (or chain) per line as space-separated 1-based ids."""
    return "".join(" ".join(str(vid + 1) for vid in facet) + "\n" for facet in facets)


def _format_dimacs(ctx) -> str:
    """DIMACS edge format: a `p edge` header, then `e i j` lines."""
    g = ctx.graph
    lines = [f"p edge {len(g.vertices)} {g.edge_count()}\n"]
    lines.extend(f"e {i + 1} {j + 1}\n" for i, j in g.edges())
    return "".join(lines)


def _format_edge_list(ctx) -> str:
    return "".join(f"{i + 1} {j + 1}\n" for i, j in ctx.graph.edges())


def _format_legend(ctx) -> str:
    """Each vertex id with its partition literal: the `.legend` sibling."""
    from .partitions import format_partition

    return "".join(f"{vid + 1} {format_partition(lam)}\n"
                   for vid, lam in enumerate(ctx.graph.vertices))


def _format_poset_json(ctx) -> str:
    """Elements as 1-based member ids, cover relations as 1-based element
    pairs, and the longest chain's length."""
    from .nerve import max_chain_length

    poset = ctx.poset
    return _json_text({
        "elements": [[m + 1 for m in element] for element in poset.elements],
        "hasse": [[i + 1, j + 1] for i, ups in enumerate(poset.upper_covers()) for j in ups],
        "max_chain_length": max_chain_length(poset),
    })


def _format_poset_text(ctx) -> str:
    """The maximal chains of the poset, one per line."""
    from .nerve import order_complex

    return _facet_lines(order_complex(ctx.poset).facets)


# Target -> {format: formatter}; the first format is the target's default.
# bfile formats table rows; the other targets format the NContext on n.
_EXPORT_FORMATS = {
    "graph": {"dimacs": _format_dimacs, "edges": _format_edge_list},
    "facets": {"text": lambda ctx: _facet_lines(ctx.facets)},
    "poset": {"json": _format_poset_json, "text": _format_poset_text},
    "bfile": {"text": _format_bfile},
}


def cmd_export(args: argparse.Namespace) -> int:
    formatter = _EXPORT_FORMATS[args.what][args.format]
    if args.what == "bfile":
        _emit(formatter(_table_rows(args.max_n), args.sequence), args.out)
        return 0
    from .stages import NContext

    ctx = NContext(args.n)
    text = formatter(ctx)
    if args.what == "graph" and args.out is not None:
        # Vertex legend rides along as a sibling file, never on stdout.
        _write_files({args.out: text, args.out + ".legend": _format_legend(ctx)})
    else:
        _emit(text, args.out)
    return 0


# -- parser ------------------------------------------------------------


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses stray arguments itself, under its
    own usage line.  argparse would hand them up to the root parser, whose
    usage line names no subcommand's flags."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_output_arguments(parser: argparse.ArgumentParser, formats: dict) -> None:
    """--format, whose choices are the keys of a formatter table (the first
    is the default), and --out."""
    parser.add_argument("--format", choices=tuple(formats),
                        default=next(iter(formats)))
    parser.add_argument("--out", help="write here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call returns a
    fresh namespace, so calls share no parsed state."""
    parser = argparse.ArgumentParser(
        prog="partition-complex",
        description="Transfer graphs on integer partitions, their clique"
                    " complexes, and verification of the structure theorems.")
    # Every subcommand parser, and each `export` target's below it, is a
    # _SubcommandParser: add_subparsers defaults to the parent's class.
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    table = sub.add_parser(
        "table", help="per-n table of p(n), f-vector, chi, and b; every row"
        " comes from the partition numbers p(0..max-n), with no graph built"
        " and no partition listed")
    table.add_argument("--max-n", type=_TABLE_SIZE, required=True,
                       help="largest n to tabulate")
    _add_output_arguments(table, _TABLE_FORMATS)
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--suite", action="append",
                        choices=SUITE_ORDER + ("all",),
                        help="suite to run; repeatable; default all")
    verify.add_argument("--max-n", type=_GRAPH_SIZE, required=True,
                        help="largest n to verify")
    verify.add_argument("--seed", type=_seed, default=None,
                        help="base seed for the randomized walk suite")
    _add_output_arguments(verify, _VERIFY_FORMATS)
    verify.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes, capped at the CPU count and the"
                        " number of n values; output is identical either way")
    verify.add_argument("--ignore-budget", action="store_true",
                        help="run suites past their default n budgets")
    verify.set_defaults(func=cmd_verify)

    homology = sub.add_parser(
        "homology", help="exact integer homology of the clique complex")
    homology.add_argument("--n", type=_GRAPH_SIZE, required=True)
    _add_output_arguments(homology, _HOMOLOGY_FORMATS)
    homology.add_argument("--ignore-budget", action="store_true",
                          help="allow n past the default budget")
    homology.set_defaults(func=cmd_homology)

    export = sub.add_parser(
        "export", help="write graphs, facets, posets, or integer sequences")
    targets = export.add_subparsers(dest="what", required=True)
    for what, formats in _EXPORT_FORMATS.items():
        target = targets.add_parser(what)
        if what == "bfile":
            target.add_argument("sequence", choices=("chi", "b"),
                                help="which sequence to export")
            target.add_argument("--max-n", type=_TABLE_SIZE, required=True,
                                help="largest n")
        else:
            target.add_argument("--n", type=_POSET_SIZE if what == "poset" else _GRAPH_SIZE,
                                required=True, help="partition size")
        _add_output_arguments(target, formats)
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

"""cli.main fuzzed in-process, with argv drawn from the parser's own grammar.

Each example picks a command path (a subcommand, and an `export` target
below it) or a bad one, and a token for each argument the parser at that
path declares: a choice for --format, --suite and the bfile sequence; a
size for each size flag; a path under tmp_path for --out.  It carries at
most one fault: an argument left out, a bad token (a wrong word; a size
that is zero, negative, past its bound, huge, not a number or not plain
ASCII digits; a seed that is not 0 or plain ASCII digits after an optional
'-'; an --out that is a directory or empty), or stray tokens.  Every bad size on every
size flag also runs as an explicit example, and as a plain test that it
is refused.  Sizes that do work stay small
enough that one run takes a few milliseconds, and --jobs is never drawn
above 1, so no process pool starts.

Whatever the argv, the exit code is 0, 1, 2 or 3 and no exception but
SystemExit leaves main; a nonzero exit writes nothing to stdout and leaves
the --out directory as it was; and exit 0 writes the same stdout again.
"""

import argparse
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from partition_complex import cli
from partition_complex.suite_names import BUDGETS
from test_cli import HUGE, SIZE_BOUNDS

# Largest size that does work, by command path: each run stays in the
# milliseconds (verify runs every suite).
WORK_CAP = {
    "table": 40, "verify": 4, "homology": 10,
    "export graph": 10, "export facets": 10, "export poset": 10, "export bfile": 40,
}
# Sizes that fail before any work: zero, negative, one past each size bound,
# huge, too long for int(), not a number, or an integer int() takes that is
# not plain ASCII decimal digits without a leading zero.  (`table` and
# `bfile` accept one past the graph's and the poset's bound, and run them
# in milliseconds.)
LENIENT = ["+3", "1_0", " 4 ", "\u0663", "03"]
PAST_BOUNDS = sorted({str(bound + 1) for bound in SIZE_BOUNDS.values()})
BAD_SIZES = ["0", "-1", *PAST_BOUNDS, HUGE, "9" * 5000, "x", "1.5", "", *LENIENT]
TABLE_PATHS = ("table", "export bfile")
BAD_JOBS = ["0", "-2", "x", *LENIENT]
SEEDS = ["0", "7", "-3", HUGE]
STRAY = ["--bogus", "extra", "-q", "--", "--format", "--n", "7", "-h"]
# Stands for a fresh directory under tmp_path, one per example.
OUT = "<out>"


def leaf_parsers():
    """Command path -> the parser at that path, from the built parser."""
    leaves = {}

    def walk(parser, path):
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        if not subparsers:
            leaves[" ".join(path)] = parser
        for action in subparsers:
            for name, child in action.choices.items():
                walk(child, path + [name])

    walk(cli.build_parser(), [])
    return leaves


LEAVES = leaf_parsers()


def arguments(path):
    """The arguments the parser at path declares, --help aside."""
    return [action for action in LEAVES[path]._actions
            if not isinstance(action, argparse._HelpAction)]


def is_size(action):
    return action.dest in ("n", "max_n")


def test_the_fuzzer_covers_every_command_path():
    assert sorted(LEAVES) == sorted(WORK_CAP)
    for path in LEAVES:
        assert sum(map(is_size, arguments(path))) == 1


def bound_at(path):
    """The bound of the size flag at path."""
    words = tuple(path.split())
    [bound] = [bound for head, bound in SIZE_BOUNDS.items() if head[:len(words)] == words]
    return bound


def bad_sizes(path):
    """BAD_SIZES that reach path: one past a bound below path's own would
    run a graph-sized build, so only the paths bounded by the table's size
    get those."""
    return [size for size in BAD_SIZES
            if size not in PAST_BOUNDS or int(size) > bound_at(path) or path in TABLE_PATHS]


def sized(path, size):
    """path's argv with its size flag at size, and the bfile sequence."""
    [flag] = [action.option_strings[0] for action in arguments(path) if is_size(action)]
    return path.split() + [flag, size] + (["chi"] if path == "export bfile" else [])


@st.composite
def argvs(draw):
    path = draw(st.sampled_from(sorted(LEAVES) + ["", "bogus", "export bogus"]))
    actions = arguments(path) if path in LEAVES else []
    # At most one fault an argv, so each is what main meets first: the
    # argument at one index left out or given a bad token, or stray tokens.
    fault = draw(st.sampled_from(["none", "omit", "bad", "stray"]))
    at = draw(st.integers(0, max(len(actions) - 1, 0)))
    kept = []
    for index, action in enumerate(actions):
        if fault == "omit" and index == at:
            continue
        if action.required or (fault == "bad" and index == at) or draw(st.booleans()):
            kept.append((action, fault == "bad" and index == at))
    ignore_budget = any(action.dest == "ignore_budget" for action, _ in kept)
    groups = []
    for action, bad in kept:
        if action.dest == "ignore_budget":
            good, wrong = [], []
        elif action.dest == "out":
            good, wrong = [os.path.join(OUT, "out.txt")], [OUT, ""]
        elif action.dest == "jobs":
            good, wrong = ["1"], BAD_JOBS
        elif action.dest == "seed":
            good, wrong = SEEDS, ["seed", "", *LENIENT]
        elif action.choices is not None:
            good, wrong = list(action.choices), ["bogus", ""]
        else:
            good, wrong = [str(draw(st.integers(1, WORK_CAP[path])))], bad_sizes(path)
            if path == "homology" and not ignore_budget:
                # Past its budget, homology exits 3 before any work.
                bound = SIZE_BOUNDS[("homology", "--n")]
                good.append(str(draw(st.integers(BUDGETS["homology"] + 1, bound))))
        tokens = wrong if bad else good
        groups.append(action.option_strings[:1]
                      + ([draw(st.sampled_from(tokens))] if tokens else []))
    if fault == "stray":
        stray = draw(st.lists(st.sampled_from(STRAY), min_size=1, max_size=2))
        groups += [[token] for token in stray]
    groups = draw(st.permutations(groups))
    return path.split() + [token for group in groups for token in group]


def run(argv):
    """Exit code and stdout of one cli.main call; stderr is dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


def with_every_bad_size(test):
    """test, with an explicit example for each bad size on each size flag."""
    for path in sorted(LEAVES):
        for size in bad_sizes(path):
            test = example(argv=sized(path, size))(test)
    return test


def _size_id(size):
    return size if len(size) <= 21 else f"{len(size)}-digit"


@pytest.mark.parametrize("path, size", [
    (path, size) for path in sorted(LEAVES) for size in bad_sizes(path)],
    ids=_size_id)
def test_every_bad_size_is_refused(path, size):
    # One past the graph's or the poset's bound is inside the bound of
    # `table` and `export bfile`, which read the partition numbers alone and
    # run it; every other bad size is a usage error.
    code, stdout = run(sized(path, size))
    if size in PAST_BOUNDS and int(size) <= bound_at(path):
        assert path in TABLE_PATHS
        assert code == 0
    else:
        assert (code, stdout) == (2, "")


@pytest.mark.parametrize("seed", SEEDS, ids=_size_id)
def test_every_good_seed_parses_to_its_integer(seed):
    args = cli.build_parser().parse_args(["verify", "--max-n", "1", "--seed", seed])
    assert args.seed == int(seed)


@pytest.mark.parametrize("seed", ["seed", "", "-", "-0", "-03", *LENIENT])
def test_every_bad_seed_is_refused(seed):
    assert run(["verify", "--max-n", "1", "--seed", seed]) == (2, "")


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@with_every_bad_size
@given(argv=argvs())
def test_main_exits_cleanly_on_any_argv(argv, tmp_path):
    out_dir = tempfile.mkdtemp(dir=tmp_path)
    argv = [token.replace(OUT, out_dir) for token in argv]
    code, stdout = run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        assert stdout == ""
        assert os.listdir(out_dir) == []
    else:
        assert run(argv) == (0, stdout)

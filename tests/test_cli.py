"""Command-line interface: formats, files, exit codes, determinism."""

import csv
import errno
import json
import os
import stat
import subprocess
import sys
import weakref

import pytest

from partition_complex import cli, cliques, homology, verification
from partition_complex.cli import _worker_count, main
from partition_complex.homology import HomologyReport
from partition_complex.reference import EULER_CHARACTERISTIC
from partition_complex.stages import NContext
from partition_complex.verification import BUDGETS, SUITE_ORDER, verify_single_n


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "partition_complex", *argv],
        capture_output=True, text=True)


def test_table_text(capsys):
    assert main(["table", "--max-n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "p", "f-vector", "chi", "b"]
    assert len(lines) == 9
    last = lines[-1].split()
    assert last[0] == "8" and last[1] == "22"
    assert last[-2:] == ["2", "1"]


def test_table_single_row(capsys):
    assert main(["table", "--max-n", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[-2:] == ["1", "0"]


def test_table_csv(capsys):
    assert main(["table", "--max-n", "8", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["n", "p", "f0", "f1", "f2", "f3", "chi", "b"]
    assert rows[1] == ["1", "1", "1", "", "", "", "1", "0"]
    assert rows[8] == ["8", "22", "22", "47", "29", "2", "2", "1"]


def test_table_json_matches_reference(capsys):
    assert main(["table", "--max-n", "12", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 12
    for row in payload["rows"]:
        assert row["chi"] == EULER_CHARACTERISTIC[row["n"]]
        assert row["b"] == row["chi"] - 1
        assert row["p"] == row["fvector"][0]


def test_table_out_file_and_jobs(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table", "--max-n", "10", "--format", "csv",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[-1].startswith("10,42,")
    # Only verify runs in parallel; table and export take no --jobs.
    for argv in (["table", "--max-n", "3", "--jobs", "2"],
                 ["export", "bfile", "chi", "--max-n", "3", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _worker_count(5000, 3) == 3
    assert _worker_count(5000, 25) == 4
    assert _worker_count(2, 25) == 2
    assert _worker_count(1, 25) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _worker_count(5000, 25) == 1


def test_verify_text(capsys):
    assert main(["verify", "--suite", "euler", "--max-n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("euler n=1: pass")
    assert lines[-1] == "8 pass, 0 fail, 0 vacuous, 0 skip"


def test_verify_vacuous_poset_at_1(capsys):
    assert main(["verify", "--suite", "poset", "--max-n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("poset n=1: vacuous")


def test_verify_text_fail_line_lists_the_witness_sorted(monkeypatch, capsys):
    def suite(ctx):
        raise verification._Counterexample(
            {"route": "dp", "counted": [1, 0], "lam": "[3,1]"})

    monkeypatch.setitem(verification._SUITE_FUNCS, "euler", suite)
    assert main(["verify", "--suite", "euler", "--max-n", "1"]) == 1
    assert capsys.readouterr().out == (
        "euler n=1: fail [counted=[1, 0], lam=[3,1], route=dp]\n"
        "0 pass, 1 fail, 0 vacuous, 0 skip\n")


def test_verify_text_vacuous_line_gives_its_detail(capsys):
    assert main(["verify", "--suite", "cover", "--max-n", "1"]) == 0
    assert capsys.readouterr().out == (
        "cover n=1: vacuous (empty cover)\n"
        "0 pass, 0 fail, 1 vacuous, 0 skip\n")


def test_verify_text_skip_line_names_the_budget(monkeypatch, capsys):
    monkeypatch.setitem(BUDGETS, "euler", 1)
    assert main(["verify", "--suite", "euler", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "euler n=2: skip (n beyond default budget 1; rerun with --ignore-budget)",
        "1 pass, 0 fail, 0 vacuous, 1 skip"]


def test_verify_json(capsys):
    assert main(["verify", "--suite", "heights", "--max-n", "4",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["n"] for entry in payload["outcomes"]] == [1, 2, 3, 4]
    assert all(entry["suite"] == "heights" for entry in payload["outcomes"])


def test_verify_csv(capsys):
    assert main(["verify", "--suite", "euler", "--max-n", "3",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["suite", "n", "status", "detail", "counterexample"]
    assert len(rows) == 4
    assert all(row[2] == "pass" for row in rows[1:])


def test_verify_budget_skip_and_override(capsys):
    cap = BUDGETS["facets"]
    assert main(["verify", "--suite", "facets", "--max-n", str(cap + 1)]) == 0
    out = capsys.readouterr().out
    assert f"facets n={cap + 1}: skip" in out
    assert f"facets n={cap}: pass" in out
    assert "--ignore-budget" in out
    [outcome] = verify_single_n(BUDGETS["homology"] + 1, {"homology"}, seed=None)
    assert outcome.status == "skip"


def test_verify_all_small(capsys):
    assert main(["verify", "--suite", "all", "--max-n", "5", "--seed", "1"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert " 0 fail, " in summary


def test_homology_text(capsys):
    assert main(["homology", "--n", "8"]) == 0
    assert capsys.readouterr().out == "reduced homology: H~2=Z; euler characteristic 2\n"
    assert main(["homology", "--n", "4"]) == 0
    assert "trivial in all degrees" in capsys.readouterr().out


def test_homology_json(capsys):
    assert main(["homology", "--n", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_betti"] == [0, 0, 2, 0]


def test_homology_deviation_prints_the_report_and_exits_1(monkeypatch, capsys):
    deviant = HomologyReport((11, 17, 7), (1, 1, 2), ((), (), ()))
    # cmd_homology reads the homology layer's functions when it runs.
    monkeypatch.setattr(homology, "reduced_homology", lambda cplx: deviant)
    assert main(["homology", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == deviant.summary() + "\n"
    assert captured.err == ("error: homology deviates from the degree-2"
                            " concentration pattern; see the report above\n")


def test_homology_frees_the_graph_before_the_chain_complex(monkeypatch, capsys):
    # The graph is the largest per-n object; homology needs only the facets.
    graphs = []
    # NContext reads the facet builder off the cliques module when it runs.
    real_facets = cliques.maximal_simplices
    real_complex = homology.build_chain_complex

    def facets(g):
        graphs.append(weakref.ref(g))
        return real_facets(g)

    def chain_complex(facet_list):
        assert [ref() for ref in graphs] == [None]
        return real_complex(facet_list)

    monkeypatch.setattr(cliques, "maximal_simplices", facets)
    monkeypatch.setattr(homology, "build_chain_complex", chain_complex)
    assert main(["homology", "--n", "8"]) == 0
    assert capsys.readouterr().out == "reduced homology: H~2=Z; euler characteristic 2\n"


def test_homology_budget_exit_code():
    result = run_cli("homology", "--n", str(BUDGETS["homology"] + 1))
    assert result.returncode == 3
    assert "--ignore-budget" in result.stderr
    assert result.stdout == ""


def test_export_graph_dimacs(capsys):
    assert main(["export", "graph", "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p edge 3 2"


def test_export_graph_edges_with_legend(tmp_path, capsys):
    out = tmp_path / "g4.edges"
    assert main(["export", "graph", "--n", "4", "--format", "edges",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == "1 2"
    legend = (tmp_path / "g4.edges.legend").read_text().splitlines()
    assert legend[0] == "1 [4]"


def test_export_facets(capsys):
    assert main(["export", "facets", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "2 3 4"


def test_export_poset_json(capsys):
    assert main(["export", "poset", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_chain_length"] == 2
    assert len(payload["elements"]) == 9


def test_export_poset_text(capsys):
    assert main(["export", "poset", "--n", "4", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8


def test_format_dimacs():
    text = cli._format_dimacs(NContext(3))
    lines = text.splitlines()
    assert lines[0] == "p edge 3 2"
    assert len(lines) == 3
    assert all(line.startswith("e ") for line in lines[1:])


def test_format_edge_list_and_legend():
    ctx = NContext(3)
    assert cli._format_edge_list(ctx) == "1 2\n2 3\n"
    legend = cli._format_legend(ctx).splitlines()
    assert legend[0] == "1 [3]"
    assert legend[-1] == "3 [1,1,1]"


def test_format_facet_lines():
    facets = [(0, 1), (1, 2, 3)]
    assert cli._facet_lines(facets) == "1 2\n2 3 4\n"


def test_poset_json_is_one_based():
    payload = json.loads(cli._format_poset_json(NContext(4)))
    assert len(payload["elements"]) == 9
    assert all(min(element) >= 1 for element in payload["elements"])
    assert payload["max_chain_length"] == 2
    assert all(len(pair) == 2 for pair in payload["hasse"])
    assert all(1 <= i <= 9 and 1 <= j <= 9 for i, j in payload["hasse"])


def test_export_bfile(capsys):
    assert main(["export", "bfile", "chi", "--max-n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1"
    assert lines[7] == "8 2"
    assert lines[8] == "9 3"
    assert lines[9] == "10 6"
    assert main(["export", "bfile", "b", "--max-n", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "8 1"


def _usage_error_line(argv, tmp_path, capsys):
    """Run an invalid command as given and again with --out: both must exit 2
    through argparse with nothing on stdout, and the second must create no
    file.  Returns the last stderr line, which must agree between the runs."""
    out = tmp_path / "x"
    lines = []
    for extra in ([], ["--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err.splitlines()[-1])
    assert not list(tmp_path.iterdir())
    assert lines[0] == lines[1]
    return lines[0]


def test_export_usage_errors(tmp_path, capsys):
    # Each target takes only its own size flag, and reports a stray one
    # itself, under its own usage line.
    line = _usage_error_line(["export", "bfile", "chi", "--max-n", "3", "--n", "5"],
                             tmp_path, capsys)
    assert line == "partition-complex export bfile: error: unrecognized arguments: --n 5"
    for what in ("graph", "facets", "poset"):
        line = _usage_error_line(["export", what, "--n", "3", "--max-n", "9"],
                                 tmp_path, capsys)
        assert line == (f"partition-complex export {what}: error:"
                        " unrecognized arguments: --max-n 9")


@pytest.mark.parametrize("argv, usage", [
    ("export graph --n 3 --max-n 9", "usage: partition-complex export graph [-h] --n N"),
    ("export bfile chi --max-n 3 --n 5", "usage: partition-complex export bfile [-h]"),
    ("export graph chi --n 3", "usage: partition-complex export graph [-h] --n N"),
    ("export --bogus graph --n 3", "usage: partition-complex export [-h]"),
    ("table --max-n 3 --n 5", "usage: partition-complex table [-h] --max-n MAX_N"),
])
def test_stray_arguments_show_the_usage_of_their_subcommand(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)


# One invalid export input each -> the last line argparse prints on stderr.
EXPORT_USAGE_ERRORS = {
    "export bfile --max-n 3": "partition-complex export bfile: error:"
        " the following arguments are required: sequence",
    "export bfile chi": "partition-complex export bfile: error:"
        " the following arguments are required: --max-n",
    "export graph": "partition-complex export graph: error:"
        " the following arguments are required: --n",
    "export facets": "partition-complex export facets: error:"
        " the following arguments are required: --n",
    "export poset": "partition-complex export poset: error:"
        " the following arguments are required: --n",
    "export graph chi --n 3":
        "partition-complex export graph: error: unrecognized arguments: chi",
    "export graph --n 3 --format text": "partition-complex export graph: error:"
        " argument --format: invalid choice: 'text' (choose from 'dimacs', 'edges')",
    "export poset --n 4 --format dimacs": "partition-complex export poset: error:"
        " argument --format: invalid choice: 'dimacs' (choose from 'json', 'text')",
    "export facets --n 3 --format json": "partition-complex export facets: error:"
        " argument --format: invalid choice: 'json' (choose from 'text')",
    "export bfile chi --max-n 3 --format json": "partition-complex export bfile: error:"
        " argument --format: invalid choice: 'json' (choose from 'text')",
}


@pytest.mark.parametrize("command", sorted(EXPORT_USAGE_ERRORS))
def test_export_usage_error_messages(command, tmp_path, capsys):
    line = _usage_error_line(command.split(), tmp_path, capsys)
    assert line == EXPORT_USAGE_ERRORS[command]


def test_export_empty_format_is_a_usage_error(tmp_path, capsys):
    # An empty --format is a format like any other, not a request for the
    # default; the table above splits on spaces, so it cannot hold this one.
    line = _usage_error_line(["export", "graph", "--n", "3", "--format", ""],
                             tmp_path, capsys)
    assert line == ("partition-complex export graph: error: argument --format:"
                    " invalid choice: '' (choose from 'dimacs', 'edges')")


HUGE = "100000000000000000000"


# Each size flag's bound, by the argv before it.  Parsed only, never run:
# were a bound lost, verify --max-n 10**20 would append one skip outcome per
# n without end.  tests/test_cli_fuzz.py runs every bad size through main.
SIZE_BOUNDS = {
    ("table", "--max-n"): 1000,
    ("export", "bfile", "chi", "--max-n"): 1000,
    ("verify", "--max-n"): 45,
    ("homology", "--n"): 45,
    ("export", "graph", "--n"): 45,
    ("export", "facets", "--n"): 45,
    ("export", "poset", "--n"): 45,
}


@pytest.mark.parametrize("head", sorted(SIZE_BOUNDS))
def test_size_flags_are_bounded(head, capsys):
    parser = cli.build_parser()
    bound = SIZE_BOUNDS[head]
    assert parser.parse_args([*head, str(bound)]).func is not None
    for value in (str(bound + 1), HUGE):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*head, value])
        assert exc.value.code == 2
        assert f"'{value}' must be at most {bound}" in capsys.readouterr().err


def test_main_calls_share_no_parsed_state(capsys):
    assert main(["verify", "--suite", "euler", "--max-n", "2", "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)["outcomes"]
    assert {outcome["suite"] for outcome in first} == {"euler"}
    assert main(["verify", "--max-n", "2", "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)["outcomes"]
    assert len(second) == 2 * len(SUITE_ORDER)
    assert {outcome["suite"] for outcome in second} == set(SUITE_ORDER)


def test_argparse_usage_exit_code():
    assert run_cli("table").returncode == 2
    assert run_cli("table", "--max-n", "0").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("verify", "--suite", "bogus", "--max-n", "2").returncode == 2


def test_out_write_failure_exits_1():
    result = run_cli("table", "--max-n", "2", "--out", "/nonexistent/dir/t.txt")
    assert result.returncode == 1
    assert "error" in result.stderr
    assert "/nonexistent/dir/t.txt" in result.stderr and ".tmp" not in result.stderr


def test_empty_out_exits_1_before_making_a_temp_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    opened = []
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args),
                        raising=False)
    assert main(["table", "--max-n", "2", "--out", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ".tmp" not in err
    assert opened == []
    assert not list(tmp_path.iterdir())


def test_failed_replace_names_the_out_path(tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.txt"

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src, None, dst)

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["table", "--max-n", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err
    assert not list(tmp_path.iterdir())


def test_out_directory_exits_1_without_temp_file(tmp_path, capsys):
    assert main(["table", "--max-n", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path) in err and ".tmp" not in err
    assert not list(tmp_path.parent.glob("*.tmp"))
    assert not list(tmp_path.glob("*.tmp"))


def test_export_graph_refuses_a_legend_directory_before_writing(tmp_path, capsys):
    out = tmp_path / "g"
    legend = tmp_path / "g.legend"
    legend.mkdir()
    assert main(["export", "graph", "--n", "4", "--out", str(out)]) == 1
    assert str(legend) in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_out_write_keeps_existing_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.txt"
    out.write_bytes(b"previous contents\n")

    class HalfWrite:
        """A file whose write lands half its text, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: HalfWrite(open(*args, **kwargs)),
                        raising=False)
    assert main(["table", "--max-n", "6", "--out", str(out)]) == 1
    assert "No space left" in capsys.readouterr().err
    assert out.read_bytes() == b"previous contents\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table.txt"]


def test_out_fifo_is_refused_unopened(tmp_path, capsys):
    # Opening a FIFO for writing would block without a reader, so the
    # refusal must come before any open.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert main(["table", "--max-n", "3", "--out", str(fifo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(fifo) in err and ".tmp" not in err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [path.name for path in tmp_path.iterdir()] == ["pipe"]


def test_out_symlink_target_is_replaced_and_the_link_kept(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("previous contents\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["table", "--max-n", "3", "--out", str(link)]) == 0
    assert capsys.readouterr().out == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert main(["table", "--max-n", "3"]) == 0
    assert target.read_text() == capsys.readouterr().out
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_out_leaves_files_at_temp_names_untouched(tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.txt"
    # Names a temp file beside table.txt could take, made by someone else.
    squatters = [tmp_path / f"table.txt.{os.getpid()}{tag}.tmp" for tag in ("", ".0")]
    for squatter in squatters:
        squatter.write_bytes(b"not ours\n")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src, None, dst)

    # A failed write removes its own temp file only.
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "replace", refuse)
        assert main(["table", "--max-n", "3", "--out", str(out)]) == 1
    assert sorted(tmp_path.iterdir()) == sorted(squatters)
    assert main(["table", "--max-n", "3", "--out", str(out)]) == 0
    assert [squatter.read_bytes() for squatter in squatters] == [b"not ours\n"] * 2
    assert main(["table", "--max-n", "3"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert sorted(tmp_path.iterdir()) == sorted(squatters + [out])


@pytest.mark.parametrize("command", [
    "verify --suite all --max-n 8 --seed 3",
    "export poset --n 9 --format json",
    "export graph --n 8 --format edges",
    "homology --n 12 --format json",
    "verify --suite loops --max-n 6 --seed 7",
])
def test_output_does_not_depend_on_the_hash_seed(command):
    # The nerve and the poset are built on sets, whose order follows the
    # hash seed; the bytes written must not.
    runs = [subprocess.run([sys.executable, "-m", "partition_complex", *command.split()],
                           capture_output=True,
                           env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "12345")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_verify_jobs_output_matches_serial(tmp_path):
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    assert main(["verify", "--suite", "euler", "--suite", "heights",
                 "--max-n", "9", "--seed", "2", "--out", str(serial)]) == 0
    assert main(["verify", "--suite", "euler", "--suite", "heights",
                 "--max-n", "9", "--seed", "2", "--jobs", "3",
                 "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()

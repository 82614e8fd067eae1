"""Command-line interface: formats, files, exit codes, determinism."""

import csv
import json
import subprocess
import sys

import pytest

from partition_complex import cli
from partition_complex.cli import _worker_count, main
from partition_complex.reference import EULER_CHARACTERISTIC
from partition_complex.verification import BUDGETS, verify_single_n


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


def test_export_bfile(capsys):
    assert main(["export", "bfile", "chi", "--max-n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1"
    assert lines[7] == "8 2"
    assert lines[8] == "9 3"
    assert lines[9] == "10 6"
    assert main(["export", "bfile", "b", "--max-n", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "8 1"


def test_export_usage_errors(capsys):
    assert main(["export", "bfile", "--max-n", "3"]) == 2
    assert main(["export", "graph", "chi", "--n", "3"]) == 2
    assert main(["export", "graph"]) == 2
    assert main(["export", "poset", "--n", "4", "--format", "dimacs"]) == 2
    capsys.readouterr()
    # Each target takes only its own size flag.
    assert main(["export", "bfile", "chi", "--max-n", "3", "--n", "5"]) == 2
    assert capsys.readouterr().err == "usage error: export bfile takes no --n; use --max-n\n"
    for what in ("graph", "facets", "poset"):
        assert main(["export", what, "--n", "3", "--max-n", "9"]) == 2
        assert capsys.readouterr().err == (
            f"usage error: export {what} takes no --max-n; use --n\n")


def test_argparse_usage_exit_code():
    assert run_cli("table").returncode == 2
    assert run_cli("table", "--max-n", "0").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("verify", "--suite", "bogus", "--max-n", "2").returncode == 2


def test_out_write_failure_exits_1():
    result = run_cli("table", "--max-n", "2", "--out", "/nonexistent/dir/t.txt")
    assert result.returncode == 1
    assert "error" in result.stderr


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


def test_verify_runs_are_byte_identical():
    first = run_cli("verify", "--suite", "loops", "--max-n", "6", "--seed", "7")
    second = run_cli("verify", "--suite", "loops", "--max-n", "6", "--seed", "7")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_jobs_output_matches_serial(tmp_path):
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    assert main(["verify", "--suite", "euler", "--suite", "heights",
                 "--max-n", "9", "--seed", "2", "--out", str(serial)]) == 0
    assert main(["verify", "--suite", "euler", "--suite", "heights",
                 "--max-n", "9", "--seed", "2", "--jobs", "3",
                 "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()

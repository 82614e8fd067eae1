"""Acceptance gate: every headline guarantee, one printed line per criterion.

Each test prints `acceptance <name>: PASS|FAIL` through the capture-disabled
writer so the line is visible in plain pytest output, then asserts.
"""

import json
import subprocess
import sys
import time

import pytest

from partition_complex.cli import main
from partition_complex.cliques import maximal_simplices
from partition_complex.graph import build_graph
from partition_complex.homology import build_chain_complex, reduced_homology
from partition_complex.reference import EULER_CHARACTERISTIC, SPHERE_COUNT
from partition_complex.verification import (
    FAIL,
    PASS,
    homology_concentrated,
    run_verification,
    verify_single_n,
)


@pytest.fixture
def announce(capfd):
    def _announce(line):
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def report(announce, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    announce(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion failed: {name}"


def no_failures(outcomes):
    return [outcome for outcome in outcomes if outcome.status == FAIL] == []


def test_table_reproduction(announce, capfd):
    # Exact match with the tabulated euler characteristics for n = 1..25,
    # both the raw and the shifted column, within the runtime bound, through
    # the table command that users run.
    start = time.monotonic()
    status = main(["table", "--max-n", "25", "--format", "json"])
    rows = json.loads(capfd.readouterr().out)["rows"]
    elapsed = time.monotonic() - start
    mismatches = [
        (row["n"], row["chi"], row["b"]) for row in rows
        if row["chi"] != EULER_CHARACTERISTIC[row["n"]] or row["b"] != SPHERE_COUNT[row["n"]]
    ]
    if status != 0 or [row["n"] for row in rows] != list(range(1, 26)):
        mismatches.append(("status", status, len(rows)))
    ok = not mismatches and elapsed < 120
    report(announce, "table-reproduction", ok,
           f"n<=25 exact, {elapsed:.1f}s" if ok else f"mismatches={mismatches}")


def test_homology_concentration(announce):
    # Reduced homology is a single free group in degree 2 of rank chi - 1,
    # with no torsion anywhere, for n = 1..25.
    start = time.monotonic()
    deviations = []
    for n in range(1, 26):
        cplx = build_chain_complex(maximal_simplices(build_graph(n)))
        report_n = reduced_homology(cplx)
        if not homology_concentrated(report_n):
            deviations.append(n)
        elif cplx.euler_characteristic != EULER_CHARACTERISTIC[n]:
            deviations.append(n)
    elapsed = time.monotonic() - start
    ok = not deviations and elapsed < 600
    report(announce, "homology-concentration", ok,
           f"n<=25 exact, {elapsed:.1f}s" if ok else f"deviations={deviations}")


def test_triangle_oracle(announce):
    outcomes = run_verification(10, ["triangles"])
    report(announce, "triangle-oracle", no_failures(outcomes),
           "classification matches raw adjacency, n<=10")


def test_facet_oracle(announce):
    outcomes = run_verification(10, ["facets"])
    report(announce, "facet-oracle", no_failures(outcomes),
           "classified facets equal generic maximal cliques, n<=10")


def test_cover_and_anchors(announce):
    outcomes = run_verification(10, ["cover", "anchors"])
    report(announce, "cover-and-anchors", no_failures(outcomes),
           "coverage and anchor intersection trichotomy, n<=10")


def test_poset_dimension(announce):
    outcomes = run_verification(12, ["poset"])
    checked = [o for o in outcomes if o.n >= 2]
    ok = no_failures(outcomes) and all(o.status == PASS for o in checked)
    report(announce, "poset-dimension", ok,
           "chains <= 2 and chi agreement, 2<=n<=12")


def test_closure_laws(announce):
    outcomes = run_verification(8, ["closure"])
    report(announce, "closure-laws", no_failures(outcomes),
           "extensive, monotone, idempotent, n<=8")


def test_height_lemmas(announce):
    outcomes = run_verification(12, ["heights"])
    report(announce, "height-lemmas", no_failures(outcomes),
           "row-difference identity and distinct edge heights, n<=12")


def test_loop_reduction(announce):
    start = time.monotonic()
    outcomes = []
    for n in (8, 9, 10):
        outcomes.extend(verify_single_n(n, {"loops"}, seed=7))
    elapsed = time.monotonic() - start
    ok = (no_failures(outcomes)
          and all(o.status == PASS for o in outcomes)
          and elapsed < 60)
    report(announce, "loop-reduction", ok,
           f"1000 walks each in G_8..G_10, {elapsed:.1f}s")


def test_determinism(announce):
    command = [sys.executable, "-m", "partition_complex", "verify",
               "--suite", "all", "--max-n", "10", "--seed", "7"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    report(announce, "determinism", ok,
           "two seeded verify runs byte-identical")

"""Tests of the benchmark itself, on the tiny "smoke" inputs.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def smoke(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0",
                           "--trace", str(trace), "--size", "smoke"])
    return run.run(args, ROOT)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_metric_and_passes_its_checks(workload, trace):
    result = smoke(workload, trace)["result"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload, busy, idle", [
    ("table", ["graph.build_s", "cliques.cover_s"], ["homology.reduce_s", "nerve.build_s"]),
    ("homology", ["homology.chain_complex_s", "homology.reduce_s"],
     ["graph.build_s", "cliques.cover_s"]),
    ("verify", ["oracles.all_cliques_s", "nerve.build_s", "verification.loops_s",
                "loops.steps"], []),
])
def test_traced_run_puts_time_in_the_layers_the_workload_uses(workload, busy, idle):
    metrics = smoke(workload, 1)["result"]["metrics"]
    assert all(metrics[name]["value"] > 0 for name in busy)
    assert all(metrics[name]["value"] == 0 for name in idle)


def test_traced_self_times_add_up_to_the_traced_wall_time():
    record = smoke("verify", 1)
    spans = record["spans"][0]
    wall = spans[0][3] - spans[0][2]
    children = [0.0] * len(spans)
    for name, parent, start, end in spans[1:]:
        children[parent] += end - start
    self_total = sum(end - start - inner
                     for (name, parent, start, end), inner in zip(spans, children))
    assert self_total == pytest.approx(wall, rel=1e-9)


def test_a_wrong_chi_row_is_counted_as_failed(monkeypatch):
    original = run.Worker.run

    def corrupt_last_chi(self, mode, workload, seconds=0.0):
        reply, wall = original(self, mode, workload, seconds)
        if mode == "time":
            first = reply["passes"][0]
            # The last row ends "<chi>  <b>"; raise chi by one.
            first["stdout"] = re.sub(
                r"(\d+)(\s+-?\d+\n)$", lambda m: f"{int(m.group(1)) + 1}{m.group(2)}",
                first["stdout"])
        return reply, wall

    monkeypatch.setattr(run.Worker, "run", corrupt_last_chi)
    record = smoke("table", 0)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == 1 == result["attempted"]
    assert record["meta"]["failed_frac"] == 1.0
    problems = record["problems"][0]
    assert "stdout differs from the recorded digest" in problems
    assert any("disagrees with the reference" in problem for problem in problems)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(BENCHMARK["command"] + ["--workload", "table", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout

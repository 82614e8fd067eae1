"""Benchmark of partition-complex: the table, homology and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times untraced passes and reports the end-to-end
metrics; with ``--trace 1`` it replays the workload with a span around every
layer call and reports the per-layer metrics.  Every pass's output is checked
outside the timed region, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
including the spans of a traced run, goes to ``.perfbench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = worker.__file__
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = ".perfbench_out"

WORKLOADS = ("table", "homology", "verify")
SUITES = ("triangles", "cliques", "facets", "cover", "nerve", "anchors",
          "poset", "closure", "heights", "loops", "homology", "euler")
# One discarded probe compiles bytecode; the median of the rest is setup_s.
SETUP_PROBES = 7
# A run must end within this many seconds of starting.
DEADLINE_S = 175.0

PER_LAYER = (
    ["cli.import_s", "oracles.networkx_import_s", "cli.other_s",
     "partitions.enumerate_s", "graph.build_s", "graph.edges",
     "cliques.cover_s", "cliques.facets_s", "cliques.fvector_subsets_s",
     "cliques.cover_members", "cliques.facets", "cliques.faces",
     "cliques.peak_alloc_mb",
     "homology.chain_complex_s", "homology.reduce_s", "homology.faces",
     "homology.boundary_nnz", "homology.peak_alloc_mb",
     "nerve.build_s", "nerve.poset_s", "nerve.poset_elements",
     "oracles.all_cliques_s"]
    + [f"verification.{suite}_s" for suite in SUITES]
    + ["verification.outcomes", "loops.reduce_s", "loops.steps",
       "trace.wall_s", "trace.overhead_s"]
)
UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return sha256_bytes(handle.read())


# -- running the worker ----------------------------------------------------


class Worker:
    """Starts worker.py in fresh interpreters against one checkout's src/."""

    def __init__(self, root: str, seed: int, size: str, deadline: float):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.root = root
        self.seed = seed
        self.size = size
        self.deadline = deadline

    def run(self, mode: str, workload: str, seconds: float = 0.0) -> tuple[dict, float]:
        """The worker's JSON reply and the wall time of its whole process."""
        command = [sys.executable, WORKER, mode, "--workload", workload,
                   "--seed", str(self.seed), "--seconds", str(seconds),
                   "--size", self.size]
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        done = subprocess.run(command, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"worker {mode} {workload} exited with"
                               f" {done.returncode}:\n{done.stderr}")
        return json.loads(done.stdout), wall

    def setup_probes(self, workload: str) -> list[dict]:
        """Set-up times of fresh interpreters, in reference and raw seconds.

        A probe's raw time is its process's wall time less what its speed
        meter cost; the probe's mean measured speed converts it.
        """
        probes = []
        for _ in range(SETUP_PROBES + 1):
            reply, wall = self.run("setup", workload)
            speed = reply["ref_s"] / reply["raw_s"]
            raw = wall - reply["meter_s"]
            probes.append({"raw_setup_s": raw, "setup_s": raw * speed,
                           "cli_import_s": reply["cli_import_s"] * speed,
                           "networkx_import_s": reply["networkx_import_s"] * speed})
        return probes[1:]


# -- output checks -----------------------------------------------------------

_TABLE_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\[[\d, ]*\])\s+(-?\d+)\s+(-?\d+)$")
_OUTCOME = re.compile(r"^(\w+) n=(\d+): (\w+)")


def load_reference(src: str):
    """The checkout's tabulated chi and b values, without importing the package."""
    path = os.path.join(src, "partition_complex", "reference.py")
    spec = importlib.util.spec_from_file_location("_perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alternating_sum(counts) -> int:
    return sum((-1) ** p * f for p, f in enumerate(counts))


def check_table(text: str, max_n: int, reference) -> tuple[list[str], int]:
    """Problems found in a table output, and the faces it counts."""
    problems, faces, seen = [], 0, []
    lines = text.splitlines()
    for line in lines[1:]:
        match = _TABLE_ROW.match(line)
        if not match:
            problems.append(f"unparsed table row {line!r}")
            continue
        n, p, chi, b = (int(match.group(i)) for i in (1, 2, 4, 5))
        fvector = json.loads(match.group(3))
        seen.append(n)
        faces += sum(fvector)
        if (p != fvector[0] or chi != alternating_sum(fvector)
                or chi != reference.EULER_CHARACTERISTIC.get(n)
                or b != reference.SPHERE_COUNT.get(n)):
            problems.append(f"table row n={n} disagrees with the reference")
    if seen != list(range(1, max_n + 1)):
        problems.append(f"table rows for n={seen}, expected 1..{max_n}")
    return problems, faces


def check_homology(text: str, fvector, expected: dict) -> tuple[list[str], int]:
    problems = []
    if fvector != expected["fvector"]:
        problems.append(f"f-vector {fvector} differs from the recorded one")
    chi = alternating_sum(expected["fvector"])
    try:
        report = json.loads(text)
        reduced = report["reduced_betti"]
        torsion = [dim["torsion"] for dim in report["dimensions"].values()]
    except (ValueError, KeyError, TypeError, AttributeError):
        return problems + ["homology report is not the expected JSON"], 0
    if reduced[:3] != [0, 0, chi - 1] or any(reduced[3:]) or any(torsion):
        problems.append(f"reduced homology {reduced} (torsion {torsion}) is not"
                        f" Z^{chi - 1} in degree 2 alone")
    return problems, sum(fvector)


def check_verify(text: str, max_n: int) -> tuple[list[str], int]:
    problems, seen = [], set()
    lines = text.splitlines()
    for line in lines[:-1]:
        match = _OUTCOME.match(line)
        if not match:
            problems.append(f"unparsed outcome {line!r}")
            continue
        suite, n, status = match.group(1), int(match.group(2)), match.group(3)
        seen.add((suite, n))
        if status not in ("pass", "vacuous"):
            problems.append(f"outcome {suite} n={n} is {status}")
    wanted = {(suite, n) for suite in SUITES for n in range(1, max_n + 1)}
    if seen != wanted or len(lines) - 1 != len(wanted):
        problems.append(f"{len(lines) - 1} outcomes, expected {len(wanted)}")
    if not lines or not re.fullmatch(r"\d+ pass, 0 fail, \d+ vacuous, 0 skip", lines[-1]):
        problems.append("missing or failing tally line")
    return problems, len(seen)


class Checker:
    """Checks one workload's pass outputs against the recorded expectations."""

    def __init__(self, workload: str, seed: int, size: str, src: str):
        with open(EXPECTED) as handle:
            self.expected = json.load(handle)[size][workload]
        self.workload = workload
        self.size = size
        self.reference = load_reference(src)
        self.input_problems = []
        if workload == "homology":
            path = os.path.join(worker.DATA, worker.SIZES[size]["facets"])
            if sha256_file(path) != self.expected["input_sha256"]:
                self.input_problems.append(f"input {path} differs from the recorded digest")
            self.digest = self.expected["stdout_sha256"]
        elif workload == "verify":
            verify_seed = seed % worker.VERIFY_SEEDS
            self.digest = self.expected["stdout_sha256"][str(verify_seed)]
        else:
            self.digest = self.expected["stdout_sha256"]

    def check(self, result: dict) -> tuple[list[str], int]:
        """Problems with one pass, and the work it did (faces or outcomes)."""
        text = result["stdout"]
        problems = list(self.input_problems)
        if result["exit"] != 0:
            problems.append(f"exit code {result['exit']}")
        if sha256_bytes(text.encode()) != self.digest:
            problems.append("stdout differs from the recorded digest")
        sizes = worker.SIZES[self.size]
        if self.workload == "table":
            found, work = check_table(text, sizes["table_max_n"], self.reference)
        elif self.workload == "homology":
            found, work = check_homology(text, result["fvector"], self.expected)
        else:
            found, work = check_verify(text, sizes["verify_max_n"])
        if "self_s" in result:
            found += accounting_problems(result)
        return problems + found, work


# -- metrics -----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reply, probes, checked) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw (not speed-normalised) times."""
    wall = median([p["wall_s"] for p in reply["passes"]])
    work = median([work for _, work in checked])
    metrics = {
        "wall_s": wall,
        "work_per_s": work / wall if wall else 0.0,
        "peak_rss_mb": reply["peak_rss_mb"],
        "setup_s": median([p["setup_s"] for p in probes]),
    }
    raw = {"raw_wall_s": median([p["raw_wall_s"] for p in reply["passes"]]),
           "raw_setup_s": median([p["raw_setup_s"] for p in probes])}
    return metrics, raw


def per_layer(reply, probes) -> tuple[dict, dict]:
    """The per-layer metrics, and the raw (not speed-normalised) traced wall time."""
    traced = reply["traced"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = median([p["self_s"].get(name[:-2], 0.0) for p in traced])
    for name, value in traced[0]["counts"].items():
        metrics[name] = value
    for layer in ("cliques", "homology"):
        metrics[f"{layer}.peak_alloc_mb"] = max(
            (mb for span, mb in reply["memory"]["peak_alloc_mb"].items()
             if span.startswith(layer + ".")), default=0.0)
    metrics["cli.import_s"] = median([p["cli_import_s"] for p in probes])
    metrics["oracles.networkx_import_s"] = median(
        [p["networkx_import_s"] for p in probes])
    metrics["trace.wall_s"] = median([p["wall_s"] for p in traced])
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - median([p["wall_s"] for p in reply["untraced"]]))
    return metrics, {"raw_trace.wall_s": median([p["raw_wall_s"] for p in traced])}


def accounting_problems(result: dict) -> list[str]:
    """Layer self times plus cli.other must add up to the traced wall time."""
    total = sum(result["self_s"].values())
    if abs(total - result["wall_s"]) > 1e-6 * result["wall_s"] + 1e-9:
        return [f"self times sum to {total}, traced wall is {result['wall_s']}"]
    return []


# -- record keeping ------------------------------------------------------------


def git_sha(root: str):
    """HEAD of the checkout's own .git, read directly; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: str) -> str:
    """Digest over the package's source files, for checkouts without git."""
    package = os.path.join(src, "partition_complex")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run(args, root: str) -> dict:
    """One benchmark run; returns the full record, with the result line under 'result'."""
    src = os.path.join(root, "src")
    deadline = time.monotonic() + DEADLINE_S
    runner = Worker(root, args.seed, args.size, deadline)
    checker = Checker(args.workload, args.seed, args.size, src)
    probes = runner.setup_probes(args.workload)
    mode = "trace" if args.trace else "time"
    reply, _ = runner.run(mode, args.workload, args.seconds)
    if args.trace:
        passes = reply["untraced"] + reply["traced"] + [reply["memory"]]
    else:
        passes = reply["passes"]
    checked = [checker.check(result) for result in passes]
    if args.trace:
        metrics, raw = per_layer(reply, probes)
        samples = {"untraced": len(reply["untraced"]), "traced": len(reply["traced"]),
                   "tracemalloc": 1, "setup_probes": len(probes)}
    else:
        metrics, raw = end_to_end(reply, probes, checked)
        samples = {"wall_s": len(passes), "setup_s": len(probes), "peak_rss_mb": 1}
    failed = sum(1 for problems, _ in checked if problems)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(root), "src_sha256": source_sha256(src),
        "samples": samples,
        "failed_frac": failed / len(passes),
    }
    record = {
        "meta": meta,
        "problems": [problems for problems, _ in checked],
        "raw": raw,
        "passes": [{key: p[key] for key in ("wall_s", "raw_wall_s") if key in p}
                   for p in passes],
        "setup_probes": probes,
        "result": {
            "correct": failed == 0, "attempted": len(passes), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        },
    }
    if args.trace:
        record["spans"] = reply["spans"]
    return record


def write_record(root: str, record: dict) -> str:
    meta = record["meta"]
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    name = f"{meta['workload']}-{meta['size']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "partition_complex", "cli.py")):
        print("error: no src/partition_complex here; run from the root of a"
              " partition-complex checkout", file=sys.stderr)
        return 2
    try:
        record = run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_record(root, record)
    meta, result = record["meta"], record["result"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for problems in record["problems"]:
        for problem in problems:
            print(f"check failed: {problem}")
    print(f"failed_frac {meta['failed_frac']} ({result['failed']} of"
          f" {result['attempted']} passes)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["raw"].items():
        print(f"{name} {value:.6g} s (raw wall time, not speed-normalised)")
    print(f"record {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

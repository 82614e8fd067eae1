"""One benchmark process: set-up probe, timed passes, or traced passes.

run.py starts this file in a fresh interpreter with the checkout's ``src``
on PYTHONPATH and reads the single JSON document it prints.  Modes:

- ``setup``: import networkx, then ``partition_complex.cli``, then load the
  workload input, and report how long each step took.
- ``time``: run untraced workload passes until ``--seconds`` have passed.
- ``trace``: alternate untraced and traced passes until ``--seconds`` have
  passed, then make one traced pass under tracemalloc.

Spans are placed from outside the package: every public function named in
LAYER_CALLS is replaced, in every ``partition_complex`` module that holds
it, by a wrapper that records a span, and put back afterwards.  Nothing
under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Workload sizes.  "smoke" is the tiny mode used by the benchmark's tests.
SIZES = {
    "full": {"table_max_n": 25, "verify_max_n": 14, "facets": "facets_n30.txt"},
    "smoke": {"table_max_n": 8, "verify_max_n": 4, "facets": "facets_n12.txt"},
}
# verify's input depends on the seed only through --seed; reducing it modulo
# VERIFY_SEEDS keeps every input one whose stdout digest is recorded.
VERIFY_SEEDS = 32

# (module, public function, span name or span-name function, counters of the
# returned value).  The span name is also the per-layer metric stem.
LAYER_CALLS = (
    ("partition_complex.partitions", "enumerate_partitions",
     "partitions.enumerate", None),
    ("partition_complex.graph", "build_graph", "graph.build",
     lambda g: {"graph.edges": g.edge_count()}),
    ("partition_complex.cliques", "canonical_cover", "cliques.cover",
     lambda cover: {"cliques.cover_members": len(cover)}),
    ("partition_complex.cliques", "maximal_simplices", "cliques.facets",
     lambda facets: {"cliques.facets": len(facets)}),
    ("partition_complex.cliques", "enumerate_simplices",
     "cliques.fvector_subsets",
     lambda fvector: {"cliques.faces": sum(fvector.counts)}),
    ("partition_complex.nerve", "build_nerve", "nerve.build", None),
    ("partition_complex.nerve", "build_poset", "nerve.poset",
     lambda poset: {"nerve.poset_elements": len(poset.elements)}),
    ("partition_complex.oracles", "all_cliques_reference",
     "oracles.all_cliques", None),
    ("partition_complex.homology", "build_chain_complex",
     "homology.chain_complex",
     lambda cplx: {"homology.faces": sum(cplx.fvector),
                   "homology.boundary_nnz": sum(
                       len(column) for columns in cplx.boundaries
                       for column in columns)}),
    ("partition_complex.homology", "reduced_homology", "homology.reduce", None),
    ("partition_complex.loops", "reduce_loop", "loops.reduce",
     lambda trace: {"loops.steps": len(trace.steps)}),
    ("partition_complex.verification", "run_suite",
     lambda name, ctx: f"verification.{name}",
     lambda outcome: {"verification.outcomes": 1}),
)

# Speed normalisation; see SpeedMeter.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.00115

# The root span of a pass; its self time is what no layer span covers:
# argument parsing, formatting and emitting output.
ROOT = "cli.other"
MIB = 1024 * 1024


class Tracer:
    """Spans and counters of one pass, kept in memory.

    A span is [name, parent index, start, end].  With ``memory`` set, each
    span also records the peak tracemalloc size reached while it was open,
    relative to the size when it opened.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.peaks: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], peak)
            self._mem_stack.append([current, current])
            tracemalloc.reset_peak()
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                frame = self._mem_stack.pop()
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                if self._mem_stack:
                    outer = self._mem_stack[-1]
                    outer[1] = max(outer[1], frame[1])
                tracemalloc.reset_peak()
                grown = (frame[1] - frame[0]) / MIB
                self.peaks[name] = max(self.peaks.get(name, 0.0), grown)

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> dict[str, float]:
        """Duration of each span minus the time its child spans cover, summed by name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every LAYER_CALLS function through a span for the duration."""
    patches = []
    for module_name, func_name, span_name, counter in LAYER_CALLS:
        original = getattr(importlib.import_module(module_name), func_name)
        wrapper = _wrap(tracer, original, span_name, counter)
        for name, module in list(sys.modules.items()):
            if not name.startswith("partition_complex") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def _wrap(tracer, func, span_name, counter):
    def wrapper(*args, **kwargs):
        name = span_name(*args, **kwargs) if callable(span_name) else span_name
        with tracer.span(name):
            result = func(*args, **kwargs)
        if counter is not None:
            tracer.count(counter(result))
        return result

    return wrapper


class SpeedMeter:
    """How fast the machine runs while a pass runs, by timing a fixed probe.

    On a shared 2-vCPU virtual machine the CPU speed was seen to alternate
    between two levels, in phases of seconds to minutes: the same homology
    pass took 3.7 s to 6.2 s within three minutes, and a fixed loop ran 1.6
    times slower in the slow phases on both vCPUs.  Raw wall times of
    separate runs are then not comparable.  While measuring, a SIGALRM handler times the probe every
    PROBE_INTERVAL_S.  Each stretch of the program's time between two probes
    is converted to reference seconds, the time it would take at the speed
    where one probe takes PROBE_REF_S: stretch * PROBE_REF_S / probe time.
    """

    def __init__(self):
        keys = [tuple(range(i % 7, i % 7 + 3)) + (i,) for i in range(20000)]
        self._table = {key: i for i, key in enumerate(keys)}
        self._sample = keys[::8]

    def probe(self) -> float:
        """Seconds one fixed round of tuple hashing, dict lookups and sorting takes now."""
        start = time.perf_counter()
        total = 0
        for key in self._sample:
            total += self._table[key] + len(sorted(key))
        return time.perf_counter() - start

    @contextlib.contextmanager
    def measure(self):
        """Yields a reading, filled in on exit: raw_s is the time measured
        with the probes left out, ref_s the same time in reference seconds."""
        reading = {"raw_s": 0.0, "ref_s": 0.0, "probes": 0}
        last = time.perf_counter()

        def tick(signum, frame):
            nonlocal last
            stretch = time.perf_counter() - last
            took = self.probe()
            reading["raw_s"] += stretch
            reading["ref_s"] += stretch * PROBE_REF_S / took
            reading["probes"] += 1
            last = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            tick(None, None)  # one more probe closes the last stretch


# -- workloads -----------------------------------------------------------


def read_facets(path: str) -> list[tuple[int, ...]]:
    """Facet file as written by ``export facets``: 1-based ids, one facet a line."""
    with open(path) as handle:
        return [tuple(sorted(int(token) - 1 for token in line.split()))
                for line in handle if line.strip()]


def load_input(workload: str, seed: int, size: str):
    """The workload's input: CLI arguments, or the facet list for homology.

    Imports the package first, so that no pass pays for the import.
    """
    import partition_complex.cli  # noqa: F401

    sizes = SIZES[size]
    if workload == "table":
        return ["table", "--max-n", str(sizes["table_max_n"])]
    if workload == "verify":
        return ["verify", "--suite", "all", "--max-n", str(sizes["verify_max_n"]),
                "--ignore-budget", "--seed", str(seed % VERIFY_SEEDS)]
    if workload == "homology":
        return read_facets(os.path.join(DATA, sizes["facets"]))
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, data) -> dict:
    """One pass of the workload; returns its stdout text and exit code."""
    if workload == "homology":
        from partition_complex.homology import build_chain_complex, reduced_homology

        report = reduced_homology(build_chain_complex(data))
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        return {"stdout": text, "exit": 0, "fvector": list(report.fvector)}
    from partition_complex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(data)
    return {"stdout": out.getvalue(), "exit": code}


def timed_pass(workload: str, data, meter: SpeedMeter,
               tracer: Tracer | None = None) -> dict:
    """One pass under the speed meter, and under the tracer when given.

    wall_s is in reference seconds, raw_wall_s in seconds; a traced pass's
    self times are scaled to reference seconds, so they still add up to wall_s.
    """
    gc.collect()
    with contextlib.ExitStack() as stack:
        reading = stack.enter_context(meter.measure())
        if tracer is not None:
            stack.enter_context(instrumented(tracer))
            stack.enter_context(tracer.span(ROOT))
        result = run_pass(workload, data)
    result["wall_s"], result["raw_wall_s"] = reading["ref_s"], reading["raw_s"]
    if tracer is not None:
        _, _, start, end = tracer.spans[0]
        scale = reading["ref_s"] / (end - start)
        result["self_s"] = {name: seconds * scale
                            for name, seconds in tracer.self_times().items()}
        result["counts"] = tracer.counts
    return result


# -- modes ---------------------------------------------------------------


def mode_setup(args) -> dict:
    begin = time.perf_counter()
    with SpeedMeter().measure() as reading:
        start = time.perf_counter()
        import networkx  # noqa: F401  (the oracle layer's one dependency)
        after_networkx = time.perf_counter()
        import partition_complex.cli  # noqa: F401
        after_cli = time.perf_counter()
        load_input(args.workload, args.seed, args.size)
    # What the meter itself cost: building the probe, and the probes.
    reading["meter_s"] = time.perf_counter() - begin - reading["raw_s"]
    reading.update(networkx_import_s=after_networkx - start,
                   cli_import_s=after_cli - after_networkx)
    return reading


def mode_time(args) -> dict:
    data = load_input(args.workload, args.seed, args.size)
    meter = SpeedMeter()
    passes = []
    start = time.perf_counter()
    rss_mb = None
    while True:
        passes.append(timed_pass(args.workload, data, meter))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break
    return {"passes": passes, "peak_rss_mb": rss_mb}


def mode_trace(args) -> dict:
    data = load_input(args.workload, args.seed, args.size)
    meter = SpeedMeter()
    untraced, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(timed_pass(args.workload, data, meter))
        tracer = Tracer()
        traced.append(timed_pass(args.workload, data, meter, tracer))
        spans.append(tracer.spans)
        if time.perf_counter() - start >= args.seconds:
            break
    # Peaks only: tracemalloc slows the pass several times over.
    tracer = Tracer(memory=True)
    gc.collect()
    tracemalloc.start()
    try:
        with instrumented(tracer), tracer.span(ROOT):
            memory_pass = run_pass(args.workload, data)
    finally:
        tracemalloc.stop()
    memory_pass["peak_alloc_mb"] = tracer.peaks
    return {"untraced": untraced, "traced": traced, "memory": memory_pass,
            "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "time", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=("table", "homology", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    mode = {"setup": mode_setup, "time": mode_time, "trace": mode_trace}[args.mode]
    json.dump(mode(args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

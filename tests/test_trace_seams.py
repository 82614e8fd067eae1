"""The benchmark's trace seams still exist in the package.

perfbench/worker.py times each pipeline layer by wrapping the functions its
LAYER_CALLS names, looked up by module and attribute.  A function renamed or
deleted in the package would only break a traced benchmark run; this test
reads LAYER_CALLS from the worker's source (without importing it) and fails
first.
"""

import ast
import importlib
import importlib.util
import random
from pathlib import Path

from partition_complex import verification
from partition_complex.graph import build_graph
from partition_complex.homology import build_chain_complex
from partition_complex.loops import random_closed_walk

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def layer_calls():
    """The (module, function) pairs at the head of each LAYER_CALLS entry."""
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYER_CALLS"
                for target in node.targets):
            return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError(f"no LAYER_CALLS assignment in {WORKER}")


def test_every_traced_function_resolves():
    pairs = layer_calls()
    assert len(pairs) >= 10
    for module_name, func_name in pairs:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), (
            f"{module_name}.{func_name} is traced by perfbench but not defined")


def test_every_loop_suite_reduction_goes_through_the_traced_name(monkeypatch):
    # The worker replaces reduce_loop in each module that holds it, so its
    # loops.reduce span and loops.steps counter see a reduction only when the
    # suite calls it by the name verification.reduce_loop.  The suite reduces
    # each distinct walk once, so every one of them must pass through it.
    calls = []
    reduce_loop = verification.reduce_loop

    def counting(loop):
        calls.append(loop.ids)
        return reduce_loop(loop)

    monkeypatch.setattr(verification, "reduce_loop", counting)
    [outcome] = verification.verify_single_n(5, {"loops"}, seed=11)
    assert outcome.status == "pass"
    rng = random.Random(11 * 1_000_003 + 5)
    graph = build_graph(5)
    walks = {random_closed_walk(graph, rng).ids for _ in range(verification.WALKS_PER_N)}
    assert sorted(calls) == sorted(walks)


def test_boundary_nnz_counter_counts_the_boundary_entries():
    # The worker's homology.boundary_nnz counter sums len over every entry
    # of cplx.boundaries.  With p + 1 rows of f_p faces per map, that is
    # still sum (p + 1) f_p, the number of nonzeros of the boundary maps.
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    [counter] = [entry[3] for entry in worker.LAYER_CALLS if entry[2] == "homology.chain_complex"]
    cplx = build_chain_complex(worker.read_facets(str(WORKER.parent / "data" / "facets_n12.txt")))
    nonzeros = sum((p + 1) * f for p, f in enumerate(cplx.fvector) if p)
    assert counter(cplx)["homology.boundary_nnz"] == nonzeros

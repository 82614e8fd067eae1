"""The oracles and the demos keep to the package's public surface.

oracles.py recomputes what the fast path builds, so it must not reach into
the modules it checks: it imports no underscore-prefixed name from any
partition_complex module, from .graph nothing but the PartitionGraph type
it reads, from .partitions no transfer routine (it moves cells itself),
and from no other package module but .partitions.  The demos
show the public API, so none of them imports an underscore-prefixed name
from the package.  The per-n stage chain, stages.NContext, sits below the
checking layer: stages.py imports nothing from verification, loops or
reference.  cli.py and verification.py read every per-n stage off
NContext, imported from stages, so neither imports a builder that only
NContext chains.
homology.py reduces any chain complex, not only the partition complexes,
so it imports nothing from the package but TheoremViolationError and the
alternating sum, both from the base module partitions.py.
The triangle rule, cliques._triangle_class, is written once: loop peak
reduction imports it, and neither it nor clique classification compares
corners itself.
These rules are read off the source, without importing anything.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLIQUES = ROOT / "src" / "partition_complex" / "cliques.py"
LOOPS = ROOT / "src" / "partition_complex" / "loops.py"
ORACLES = ROOT / "src" / "partition_complex" / "oracles.py"
CLI = ROOT / "src" / "partition_complex" / "cli.py"
HOMOLOGY = ROOT / "src" / "partition_complex" / "homology.py"
STAGES = ROOT / "src" / "partition_complex" / "stages.py"
VERIFICATION = ROOT / "src" / "partition_complex" / "verification.py"
DEMOS = ROOT / "demos"


def package_imports(path):
    """(module, name) for each name a file imports from partition_complex.

    module is the dotted name inside the package ("graph" for both
    "from .graph import x" and "from partition_complex.graph import x", ""
    for the package itself); a plain "import partition_complex..." gives
    the name "*".
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                inner = module
            elif module == "partition_complex" or module.startswith("partition_complex."):
                inner = module[len("partition_complex."):]
            else:
                continue
            found.extend((inner, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name[len("partition_complex."):], "*") for alias in node.names
                if alias.name.split(".")[0] == "partition_complex")
    return found


def test_oracles_import_no_private_name_and_only_the_graph_type():
    imports = package_imports(ORACLES)
    assert ("graph", "PartitionGraph") in imports
    private = [(module, name) for module, name in imports if name.startswith("_")]
    assert not private, f"oracles.py imports private names {private}"
    from_graph = [name for module, name in imports if module == "graph"]
    assert from_graph == ["PartitionGraph"], (
        f"oracles.py imports {from_graph} from .graph")


def test_oracles_import_from_no_module_but_graph_and_partitions():
    modules = {module for module, _ in package_imports(ORACLES)}
    assert modules <= {"graph", "partitions"}, (
        f"oracles.py imports from {sorted(modules - {'graph', 'partitions'})}")


def test_oracles_import_no_transfer_routine():
    # transfers_by_scan is the independent route to what these compute.
    routines = {"admissible_transfers", "_transfers"}
    imported = {name for module, name in package_imports(ORACLES) if module == "partitions"}
    assert not imported & routines, (
        f"oracles.py imports transfer routines {sorted(imported & routines)}")


def test_demos_import_no_private_name():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        private = [(module, name) for module, name in package_imports(path)
                   if name.startswith("_")]
        assert not private, f"{path.name} imports private names {private}"


def test_cli_imports_no_stage_builder_that_ncontext_owns():
    builders = {"build_graph", "canonical_cover", "maximal_simplices",
                "enumerate_simplices", "build_nerve", "build_poset"}
    imports = package_imports(CLI)
    assert ("stages", "NContext") in imports
    imported = {name for _, name in imports}
    assert not imported & builders, (
        f"cli.py imports stage builders {sorted(imported & builders)}")


def test_stages_sit_below_the_checking_layer():
    modules = {module for module, _ in package_imports(STAGES)}
    assert not modules & {"verification", "loops", "reference"}, (
        f"stages.py imports from {sorted(modules)}")


def test_verification_reads_the_stages_off_ncontext():
    # The builders that only NContext calls; the suites call the rest.
    builders = {"build_graph", "canonical_cover", "maximal_simplices",
                "enumerate_simplices", "build_nerve", "build_poset",
                "nerve_fvector", "all_cliques_reference", "transfers_by_scan"}
    imports = package_imports(VERIFICATION)
    assert ("stages", "NContext") in imports
    imported = {name for _, name in imports}
    assert not imported & builders, (
        f"verification.py imports stage builders {sorted(imported & builders)}")


def test_homology_imports_only_the_theorem_error():
    imports = package_imports(HOMOLOGY)
    assert imports == [("partitions", "TheoremViolationError"),
                       ("partitions", "_alternating_sum")], (
        f"homology.py imports {imports} from the package")


def test_loops_imports_the_triangle_rule_from_cliques():
    assert ("cliques", "_triangle_class") in package_imports(LOOPS)


def function_def(path, name):
    """The top-level function called name in the file at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("path, name", [(LOOPS, "_replace_peak"),
                                        (CLIQUES, "classify_clique")])
def test_triangle_verdicts_come_from_the_one_rule(path, name):
    # A peak's shortcut and a clique's kind are _triangle_class verdicts:
    # the function calls it, tests no two names unpacked from tuples for
    # equality (as in c1 == c2 for (c1, a1), (c2, a2) = arms), and gathers
    # no set out of unpacked corner pairs (as in {c for c, _ in arms}).
    nodes = list(ast.walk(function_def(path, name)))
    called = {node.func.id for node in nodes
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_triangle_class" in called
    unpacked = {sub.id for node in nodes
                if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store)
                for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    equalities = [ast.unparse(node) for node in nodes
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                  and all(isinstance(side, ast.Name) and side.id in unpacked
                          for side in (node.left, *node.comparators))]
    assert not equalities, f"{name} compares {equalities}"
    corner_sets = [ast.unparse(node) for node in nodes
                   if isinstance(node, ast.SetComp)
                   and any(isinstance(gen.target, ast.Tuple) for gen in node.generators)]
    assert not corner_sets, f"{name} gathers {corner_sets}"

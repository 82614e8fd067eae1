"""The package runs on the standard library alone, and loads only what it runs.

The first test reads every module's import statements.  The others start a
fresh interpreter, so that modules loaded by other tests cannot hide a
module-level import, and check which package modules each entry point
loads: the package root none, the command-line module only itself and the
suite names, `table` and `export bfile` only the layers they run,
`homology` and the other `export` targets the stage chain and the builders
they read but no checking layer, and the homology layer only itself and
the base module.  Those interpreters run
with -S, since a site hook may load standard modules such as `random`
before any package code runs.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "partition_complex"


def imported_top_level_modules(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        outside = {
            name for name in imported_top_level_modules(path)
            if name not in sys.stdlib_module_names and name != "partition_complex"
        }
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_table_loads_neither_networkx_nor_the_process_pool():
    script = (
        "import contextlib, io, sys\n"
        "import partition_complex.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', '--max-n', '5']) in (0, None)\n"
        "loaded = [m for m in ('networkx', 'concurrent.futures.process') if m in sys.modules]\n"
        "print(loaded)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def loaded_after(statements):
    """The package modules, without the package prefix ("" for the root),
    loaded once the statements have run in a fresh interpreter, and whether
    `random` was loaded."""
    script = (
        "import json, sys\n" + statements +
        "\nloaded = sorted(m[len('partition_complex'):].lstrip('.') for m in sys.modules"
        " if m.split('.')[0] == 'partition_complex')\n"
        "print(json.dumps([loaded, 'random' in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded, random_loaded = json.loads(result.stdout)
    return loaded, random_loaded


def test_package_import_loads_no_submodule():
    assert loaded_after("import partition_complex") == ([""], False)
    # An exported name loads its own module and what that module imports.
    assert loaded_after("from partition_complex import conjugate") == (
        ["", "partitions"], False)


def test_cli_import_loads_only_the_cli_and_the_suite_names():
    assert loaded_after("import partition_complex.cli") == (
        ["", "cli", "suite_names"], False)


def test_table_and_bfile_load_only_the_layers_they_run():
    statements = (
        "import contextlib, io\n"
        "import partition_complex.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', '--max-n', '5']) == 0\n"
        "    assert cli.main(['export', 'bfile', 'b', '--max-n', '5']) == 0\n"
    )
    assert loaded_after(statements) == (
        ["", "cli", "cliques", "graph", "partitions", "suite_names"], False)


def loaded_by_command(argv):
    """loaded_after for one successful cli.main call, its stdout dropped."""
    return loaded_after(
        "import contextlib, io\n"
        "import partition_complex.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n")


def test_homology_and_export_load_the_stage_chain_but_not_the_checks():
    facets = ["", "cli", "cliques", "graph", "partitions", "stages", "suite_names"]
    assert loaded_by_command(["homology", "--n", "8"]) == (
        sorted(facets + ["homology"]), False)
    assert loaded_by_command(["export", "facets", "--n", "5"]) == (facets, False)
    graph, random_loaded = loaded_by_command(["export", "graph", "--n", "5"])
    assert set(graph) <= set(facets) and not random_loaded
    assert loaded_by_command(["export", "poset", "--n", "5"]) == (
        sorted(facets + ["nerve"]), False)


def test_homology_import_loads_only_the_base_module():
    assert loaded_after("import partition_complex.homology") == (
        ["", "homology", "partitions"], False)


def test_verification_refuses_suites_that_differ_from_the_suite_names():
    # A real raise, so it holds under -O too.
    statements = (
        "import partition_complex.suite_names as names\n"
        "names.SUITE_ORDER = names.SUITE_ORDER[:-1]\n"
        "try:\n"
        "    import partition_complex.verification\n"
        "except RuntimeError as exc:\n"
        "    assert 'SUITE_ORDER' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('verification loaded')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", statements], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# The package's exports, by the module that defines each.
EXPORTS = {
    "cliques": ["CliqueClass", "CoverMember", "FVector", "NotACliqueError",
                "canonical_cover", "classify_clique", "enumerate_simplices",
                "fvector_by_corner_counting",
                "fvector_by_fiber_counting", "fvector_table", "maximal_simplices"],
    "graph": ["PartitionGraph", "UnknownVertexError", "build_graph"],
    "homology": ["ChainComplex", "EmptyComplexError", "HomologyReport",
                 "build_chain_complex", "reduced_homology", "smith_normal_form"],
    "loops": ["EdgeLoop", "InvalidLoopError", "ReductionTrace", "format_loop",
              "parse_loop", "random_closed_walk", "reduce_loop"],
    "nerve": ["IntersectionPoset", "NerveComplex", "OrderComplex", "build_nerve",
              "build_poset", "max_chain_length", "nerve_fvector", "order_complex"],
    "oracles": ["adjacency_by_conjugate", "partition_count"],
    "partitions": ["Corner", "InvalidPartitionError", "Partition",
                   "TheoremViolationError", "addable_corners", "admissible_transfers",
                   "as_partition", "conjugate", "enumerate_partitions",
                   "format_partition", "height", "iter_partitions",
                   "parse_partition", "removable_corners"],
    "suite_names": ["BUDGETS", "SUITE_ORDER"],
    "verification": ["VerificationOutcome", "verify_single_n"],
}


def test_exports_are_pinned_and_resolve_to_their_modules():
    import partition_complex

    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert len(names) == len(set(names)) == 55
    assert sorted(partition_complex.__all__) == sorted(names)
    for module, module_names in EXPORTS.items():
        defining = importlib.import_module(f"partition_complex.{module}")
        for name in module_names:
            assert getattr(partition_complex, name) is getattr(defining, name), name
    assert set(partition_complex.__all__) <= set(dir(partition_complex))
    assert not hasattr(partition_complex, "no_such_name")
    from partition_complex import cliques, fvector_table
    assert fvector_table is cliques.fvector_table

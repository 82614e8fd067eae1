"""No module of the package contains an assert statement, or reads -O.

python -O strips assert statements, and ROADMAP keeps every structural
invariant in force there: each one raises TheoremViolationError (or another
named error) itself.  Beyond asserts, -O only sets __debug__ and
sys.flags.optimize; with neither read in the package, -O changes nothing
it runs.  These rules are read off the syntax trees, without importing
anything.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partition_complex"


def _package_nodes():
    """(file name, node) for every syntax-tree node of every package module."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def _reads_optimize(node):
    """Whether node names __debug__ or reads sys.flags."""
    if isinstance(node, ast.Name) and node.id == "__debug__":
        return True
    if isinstance(node, ast.Attribute):
        return node.attr == "__debug__" or (
            node.attr == "flags" and isinstance(node.value, ast.Name) and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(alias.name in ("flags", "*") for alias in node.names)
    return False


def test_package_has_no_assert_statement():
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_reads_neither_debug_nor_sys_flags():
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if _reads_optimize(node)]
    assert found == []


def test_optimize_reads_are_recognised():
    for source in ("if __debug__: pass", "x = builtins.__debug__", "x = sys.flags.optimize",
                   "from sys import flags", "from sys import *"):
        assert any(map(_reads_optimize, ast.walk(ast.parse(source)))), source
    for source in ("x = flags", "x = re.flags", "from os import flags"):
        assert not any(map(_reads_optimize, ast.walk(ast.parse(source)))), source

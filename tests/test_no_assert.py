"""No module of the package contains an assert statement.

python -O strips assert statements, and ROADMAP keeps every structural
invariant in force there: each one raises TheoremViolationError (or another
named error) itself.  This rule is read off the syntax trees, without
importing anything.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partition_complex"


def test_package_has_no_assert_statement():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""The package runs on the standard library alone, and loads only what it runs.

The first test reads every module's import statements; the second starts a
fresh interpreter, so that modules loaded by other tests cannot hide a
module-level import.
"""

import ast
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

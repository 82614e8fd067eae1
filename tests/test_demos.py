"""The demo scripts run and print exactly what they printed when recorded.

Each script runs in-process; its stdout's sha256 must match the digest
recorded below.  A change that alters any demo's output, such as the order
of rewrites in a loop-reduction trace, shows up here.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_partition_moves.py": "4b0a68260b1d3c96c8c80539fde7b308bf913df54d2855ccd1c202d5d55bf392",
    "02_transfer_graph.py": "0c1865dbb3fa6dcc2b473ee59457421ae9b17b6a74e4ab861b0047dd56d8e5dc",
    "03_clique_structure.py": "bedfc2969b6038829d844e763c071357f5d170d325edde83bc533fca0e9579c0",
    "04_cover_and_nerve.py": "b7f2041be7b37f3a39d8c0de7d0126f1eb7ff42f387c61240fb2743ca96b21c7",
    "05_homology.py": "868d162f68dec7242eef7457441b201670698254eaa2732c0d4638836d7dd479",
    "06_loop_reduction.py": "24ffd047a0979d38cb1c8a7213700e6f926d5709057c3c88dfd29cfe0eb60680",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]

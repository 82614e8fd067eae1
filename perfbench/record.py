"""Record the outputs that run.py checks passes against, from the current source.

Run once from the root of a checkout whose output is known to be right:

    python3 perfbench/record.py

It runs one pass of every workload at both sizes (verify once per seed
residue) and rewrites perfbench/expected.json with the stdout digests, the
homology f-vector and the digest of the homology input.  The package's
stdout must stay byte-identical, so a later change that alters a digest is
a defect in that change, not a reason to record again.
"""

from __future__ import annotations

import json
import os
import sys
import time

import worker
from run import EXPECTED, Worker, sha256_bytes, sha256_file


def one_pass(root: str, size: str, workload: str, seed: int = 0) -> dict:
    runner = Worker(root, seed, size, time.monotonic() + 600)
    reply, _ = runner.run("time", workload)
    (result,) = reply["passes"]
    if result["exit"] != 0:
        raise RuntimeError(f"{workload} exited with {result['exit']}")
    return result


def main() -> int:
    root = os.getcwd()
    expected = {}
    for size, sizes in worker.SIZES.items():
        homology = one_pass(root, size, "homology")
        expected[size] = {
            "table": {"stdout_sha256": sha256_bytes(
                one_pass(root, size, "table")["stdout"].encode())},
            "homology": {
                "input_sha256": sha256_file(os.path.join(worker.DATA, sizes["facets"])),
                "fvector": homology["fvector"],
                "stdout_sha256": sha256_bytes(homology["stdout"].encode()),
            },
            "verify": {"stdout_sha256": {
                str(seed): sha256_bytes(
                    one_pass(root, size, "verify", seed)["stdout"].encode())
                for seed in range(worker.VERIFY_SEEDS)}},
        }
        print(f"recorded {size}", file=sys.stderr)
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

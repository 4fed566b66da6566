"""Bit-identity digest of one benchmark workload.

    PYTHONPATH=src python3 tools/solve_digest.py --workload NAME --seed N

Runs every operation of the workload defined in ``perfbench/ops.py`` once, in
order, and prints one sha256 per interior-point solve, one per CLI operation
and one total over all of them. A solve's hash covers its iterate log, X, Z,
y, status, stop_reason and iteration count; a CLI operation's hash covers its
exit code and the ``outputs`` block of its report. Two checkouts whose totals
agree on the same workload, seed and BLAS thread count (set
``OPENBLAS_NUM_THREADS``) computed the same floating-point results to the
bit, so a refactor can be checked by comparing the totals before and after.

``perfbench/`` is only imported, never modified: ``conesolve.solve_sdp`` is
wrapped for the run and restored afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import ops  # noqa: E402
from sepdisc import conesolve  # noqa: E402


def _update_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def solve_hash(sol) -> str:
    h = hashlib.sha256()
    h.update(conesolve.format_iterate_log(sol.log).encode())
    for blocks in (sol.x_blocks, sol.z_blocks):
        h.update(str(len(blocks)).encode())
        for b in blocks:
            _update_array(h, b)
    _update_array(h, sol.y)
    h.update(f"{sol.status}|{sol.stop_reason}|{sol.iterations}".encode())
    return h.hexdigest()


def cli_hash(code: int, stdout: str) -> str:
    outputs = json.loads(stdout)["outputs"] if stdout.strip() else None
    return hashlib.sha256(json.dumps([code, outputs]).encode()).hexdigest()


def digest(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, sha256) per solve and per CLI operation, in the order they ran."""
    lines: list[tuple[str, str]] = []
    original = conesolve.solve_sdp
    current = [""]

    def recording(problem):
        sol = original(problem)
        lines.append((f"solve  {current[0]}", solve_hash(sol)))
        return sol

    conesolve.solve_sdp = recording
    try:
        for op in ops.build(workload, seed).ops:
            current[0] = op.name
            out = op.run()
            if isinstance(out, tuple):  # a CLI operation: (exit code, stdout)
                lines.append((f"cli    {op.name}", cli_hash(*out)))
    finally:
        conesolve.solve_sdp = original
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    lines = digest(args.workload, args.seed)
    total = hashlib.sha256()
    for label, sha in lines:
        print(f"{sha}  {label}")
        total.update(sha.encode())
    print(f"{total.hexdigest()}  total ({len(lines)} hashes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

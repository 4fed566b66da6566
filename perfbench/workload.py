"""One workload process: set up, warm up, then run a fixed number of
closed-loop passes and print a JSON summary as the last line of stdout.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It expects ``sepdisc`` importable from the checkout's ``src`` (perfbench/run.py
sets PYTHONPATH and the BLAS thread caps). The number of passes is
``--seconds`` divided by the workload's nominal pass time, rounded down, and at
least MIN_PASSES; it does not depend on how fast the host runs, so every run
of a workload has the same sample count. With ``--trace 1`` the passes
alternate between untraced and traced, so the tracing overhead is measured in
the same process.
"""

import time

_STARTED = time.perf_counter()  # before numpy and sepdisc are imported

import argparse
import json
import resource
import sys
from pathlib import Path

MIN_PASSES = 2


def _summary_line(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _check(op, out) -> dict:
    if isinstance(out, Exception):
        return {"ok": False, "reason": f"raised {type(out).__name__}: {out}"}
    try:
        return op.check(out)
    except Exception as exc:  # malformed output fails its check
        return {"ok": False, "reason": f"check raised {type(exc).__name__}: {exc}"}


def _run_pass(workload, tracer) -> dict:
    """Runs every operation once, back to back; the checks run after the
    timed region and with tracing removed."""
    outputs, durations = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            durations.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    records = [
        {"op": op.name, "seconds": dt, **_check(op, out)}
        for op, out, dt in zip(workload.ops, outputs, durations)
    ]
    result = {"traced": tracer is not None, "wall_s": wall, "records": records}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["covered_s"] = tracer.covered_s()
    return result


def _blas_context(np) -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = None
    import ctypes
    import glob

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import sepdisc

    import ops

    expected_src = Path(__file__).resolve().parent.parent / "src"
    if expected_src not in Path(sepdisc.__file__).resolve().parents:
        print(f"error: sepdisc imported from {sepdisc.__file__}, not {expected_src}", file=sys.stderr)
        return 2
    if args.workload not in ops.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = ops.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        _summary_line({"setup_s": setup_s})
        return 0

    # Warm-up: the pass's last operation, run once, pays the cold first-call
    # costs (BLAS threads, first QR, first-touch allocation) and leaves the
    # first timed operation behind the same operation as in every later pass.
    # Its time is context only, because it is not steady.
    warm_op = workload.ops[-1]
    t0 = time.perf_counter()
    try:
        cold_out = warm_op.run()
    except Exception as exc:  # counted as a failed operation
        cold_out = exc
    cold_s = time.perf_counter() - t0
    cold_rec = _check(warm_op, cold_out)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    pass_count = max(MIN_PASSES, int(args.seconds // workload.nominal_pass_s))
    start = time.perf_counter()
    passes = [
        _run_pass(workload, tracer if tracer is not None and i % 2 == 1 else None)
        for i in range(pass_count)
    ]

    _summary_line({
        "setup_s": setup_s,
        "cold_first_op_s": cold_s,
        "cold_first_op": {"op": warm_op.name, **cold_rec},
        "measured_s": time.perf_counter() - start,
        "passes": passes,
        "params": workload.params,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_context(np),
            "sepdisc": sepdisc.__version__,
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

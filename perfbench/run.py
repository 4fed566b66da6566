"""sepdisc benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads and metrics are the ones named
in BENCHMARK.json. The workload runs in one fresh process with the BLAS
threads capped at the number of usable cores, for a number of passes fixed by
--seconds and the workload's nominal pass time; set-up is also timed in fresh
processes before and after it, and ``setup_s`` is the median. With ``--trace 0`` the
last line of stdout carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced passes. The full results, with the machine
context and every operation's checked output, go to
perfbench/results/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is sampled in fresh processes on both sides of the workload process,
# so that its median spans the same stretch of time as the workload.
SETUP_PROCESSES_EACH_SIDE = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            env[var] = str(nproc)
    return env


def _run_child(argv: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the workload process started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(passes: list[dict]) -> tuple[float, str, float, int]:
    """(value, rule, percentile, n). With more than 2 * TAIL_BEYOND operation
    samples, the highest percentile with at least TAIL_BEYOND samples beyond
    it. With fewer, that percentile would be at or below the median, so the
    tail is the median over passes of each pass's slowest operation."""
    d = sorted(r["seconds"] for p in passes for r in p["records"])
    n = len(d)
    if n > 2 * TAIL_BEYOND:
        return d[n - TAIL_BEYOND - 1], "percentile", 100.0 * (n - TAIL_BEYOND) / n, n
    slowest = statistics.median(max(r["seconds"] for r in p["records"]) for p in passes)
    return slowest, "median of per-pass slowest", 100.0, n


def end_to_end(child: dict, setup_samples: list[float], ok_rate: float) -> tuple[dict, dict]:
    untraced = [p for p in child["passes"] if not p["traced"]]
    durations = [r["seconds"] for p in untraced for r in p["records"]]
    tail_s, tail_rule, tail_pct, n = tail(untraced)
    gaps = [max(r["gap"] for r in p["records"] if "gap" in r) for p in untraced]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(p["wall_s"] for p in untraced),
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_s,
        "ok_rate": ok_rate,
        "max_gap": statistics.median(gaps),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    details = {
        "op_s.tail_rule": tail_rule,
        "op_s.tail_percentile": tail_pct,
        "op_s.samples": n,
        "untraced_pass_walls_s": [p["wall_s"] for p in untraced],
    }
    return metrics, details


def per_layer(child: dict, count_names: set[str]) -> tuple[dict, dict]:
    untraced = [p for p in child["passes"] if not p["traced"]]
    traced = [p for p in child["passes"] if p["traced"]]
    names = traced[0]["layers"].keys()
    metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
    repeats = {n: len({p["layers"][n] for p in traced}) == 1 for n in names if n in count_names}
    metrics.update({n: int(metrics[n]) for n, same in repeats.items() if same})
    untraced_s = statistics.median(p["wall_s"] for p in untraced)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    details = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "trace_overhead": traced_s / untraced_s - 1.0,
        "layer_coverage": statistics.median(p["covered_s"] / p["wall_s"] for p in traced),
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "counts_repeat": all(repeats.values()),
        "counts_not_repeating": sorted(n for n, ok in repeats.items() if not ok),
        "notes": {"ups.subsets_visited": "computed as N * 2^(N-1) per replacement_projections call"},
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sepdisc" / "__init__.py").is_file():
        return _fail(f"no sepdisc sources under {ROOT / 'src'}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_argv = base + ["--seconds", "0", "--setup-only"]
    try:
        setup_samples = [
            _run_child(setup_argv, env, deadline)["setup_s"] for _ in range(SETUP_PROCESSES_EACH_SIDE)
        ]
        child = _run_child(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        setup_samples += [child["setup_s"]] + [
            _run_child(setup_argv, env, deadline)["setup_s"] for _ in range(SETUP_PROCESSES_EACH_SIDE)
        ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    records = [r for p in child["passes"] for r in p["records"]] + [child["cold_first_op"]]
    failed = sum(not r["ok"] for r in records)
    details = {
        "attempted": len(records),
        "failed": failed,
        "fail_rate": failed / len(records),
        "setup_samples_s": setup_samples,
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        counts = {m["name"] for m in declared if m["unit"] == "count"}
        measured, more = per_layer(child, counts)
    else:
        measured, more = end_to_end(child, setup_samples, 1.0 - details["fail_rate"])
    details.update(more)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        return _fail(f"metrics named in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    first = next(p for p in child["passes"] if not p["traced"])
    values_repeat = all(
        [{k: v for k, v in r.items() if k != "seconds"} for r in p["records"]]
        == [{k: v for k, v in r.items() if k != "seconds"} for r in first["records"]]
        for p in child["passes"]
    )
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "params": child["params"],
        "context": {
            "nproc": nproc,
            **child["context"],
            "thread_env": {v: env[v] for v in THREAD_VARS},
            "git_commit": _git_commit(),
            "seed": args.seed,
            "cold_first_op_s": child["cold_first_op_s"],
            "cold_first_op": child["cold_first_op"]["op"],
        },
        "metrics": metrics,
        "details": {**details, "values_repeat": values_repeat},
        "ops": [
            {**{k: v for k, v in r.items() if k != "seconds"},
             "seconds": [p["records"][i]["seconds"] for p in child["passes"] if not p["traced"]]}
            for i, r in enumerate(first["records"])
        ],
        "failures": [r for r in records if not r["ok"]],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"trace overhead {details['trace_overhead']:+.1%}, "
              f"layer coverage {details['layer_coverage']:.1%}")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

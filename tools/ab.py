"""A/B comparison of two checkouts on one benchmark workload.

    python3 tools/ab.py PARENT CHANGE --workload NAME --seed N --pairs P

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``perfbench/run.py --trace 0`` once in each checkout, for the ``run_seconds``
that ``BENCHMARK.json`` sets, in fresh processes, one after the other; a coin
drawn from a generator seeded with ``--seed`` decides which side runs first,
so host drift does not favour either side. Each run's last stdout line is
printed as it arrives. At the end, for every end-to-end
metric that ``BENCHMARK.json`` declares, one row gives each side's median and
quartiles, the change/parent ratio of the medians, a verdict against the
metric's ``bound`` (see ``verdict``), and the pairs in which the change was
better in the metric's declared direction. A run that reports ``correct``
other than true is counted and named at the end.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def result_of(stdout: str) -> dict:
    """The result that ``perfbench/run.py`` prints as its last stdout line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result of one ``perfbench/run.py --trace 0`` run in ``tree``, and
    each operation's pass times from the results file it writes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return result_of(proc.stdout), op_seconds(json.loads(path.read_text()))


def op_seconds(results: dict) -> dict[str, list[float]]:
    """Operation name -> its untraced pass times, from a results file."""
    return {op["op"]: op["seconds"] for op in results["ops"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression reading of one metric; ``sign`` is 1 when lower is
    better and -1 when higher is. "better" when every change run beats every
    parent run; else "unresolved" when the parent's quartile spread exceeds
    ``bound`` times its median; else "worse" when the change's median is
    worse than the parent's by more than ``bound`` times the parent's
    median; else "ok"."""
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "better"
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per declared metric present in every run. ``pairs`` holds
    (parent result, change result); ``metrics`` the BENCHMARK.json entries,
    each with a name, ``better`` of "lower" or "higher", and ``bound``."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        rows.append({
            "metric": name,
            "parent": pq,
            "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "verdict": verdict(parent, change, sign, metric["bound"]),
            "wins": wins,
            "pairs": len(pairs),
        })
    return rows


def summarize_ops(runs: dict[str, list[dict]]) -> list[dict]:
    """One row per operation that every run has, in the parent's order.
    ``runs`` maps each side to its runs' ``op_seconds``; each side's median is
    taken over the pass times of all its runs together."""
    names = [n for n in runs["parent"][0] if all(n in r for side in SIDES for r in runs[side])]
    rows = []
    for name in names:
        med = {side: statistics.median(t for r in runs[side] for t in r[name]) for side in SIDES}
        rows.append({"op": name, **med,
                     "ratio": med["change"] / med["parent"] if med["parent"] else float("nan")})
    return rows


def format_op_rows(rows: list[dict]) -> str:
    width = max([len("operation")] + [len(r["op"]) for r in rows])
    lines = [f"{'operation':<{width}} {'parent s':>10} {'change s':>10} {'ratio':>7}"]
    for r in rows:
        lines.append(f"{r['op']:<{width}} {r['parent']:>10.4g} {r['change']:>10.4g} "
                     f"{r['ratio']:>7.3f}")
    return "\n".join(lines)


def format_rows(rows: list[dict]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<12} {'parent median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} {'ratio':>7}  {'verdict':<10}  wins"]
    for r in rows:
        lines.append(f"{r['metric']:<12} {side(r['parent']):<32} {side(r['change']):<32} "
                     f"{r['ratio']:>7.3f}  {r['verdict']:<10}  {r['wins']}/{r['pairs']}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    coin = random.Random(args.seed)
    pairs, incorrect = [], []
    ops = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        order = SIDES if coin.random() < 0.5 else SIDES[::-1]
        result = {}
        for side in order:
            result[side], times = run_once(getattr(args, side), args.workload, args.seed,
                                           seconds)
            ops[side].append(times)
            if result[side].get("correct") is not True:
                incorrect.append(f"pair {i} {side}")
            print(f"pair {i} {side}: {json.dumps(result[side])}", flush=True)
        pairs.append((result["parent"], result["change"]))

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(format_rows(summarize(pairs, spec["end_to_end"])))
    print()
    print(format_op_rows(summarize_ops(ops)))
    if incorrect:
        print(f"not correct: {', '.join(incorrect)}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())

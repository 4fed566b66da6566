"""Summaries and comparisons of perfbench results files.

    python3 perfbench/report.py summarize --out FILE SET_DIR [SET_DIR ...]
    python3 perfbench/report.py diff A.json B.json

``summarize`` reads the results files (perfbench/results/*.json, copied into
one directory per independent set of runs) and writes, per workload and
metric, each set's median and quartile spread (the distance between the first
and third quartile as a share of the median), whether each later set's median
stays within the metric's bound of the first set's, and the medians of the
traced runs' per-layer metrics, tracing overhead and layer coverage.

``diff`` compares two results files of the same workload and seed operation by
operation (values, gaps, iteration counts, statuses and exit codes, floats to
within DIFF_TOL), so that two commits can be checked for identical outputs;
it exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIFF_TOL = 1e-7


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def _load_set(directory: Path) -> list[dict]:
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"no results files in {directory}")
    return [json.loads(f.read_text()) for f in files]


def summarize(dirs: list[Path]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = [_load_set(d) for d in dirs]
    out: dict = {"sets": [d.name for d in dirs], "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        entry: dict = {"end_to_end": [], "per_layer": {}, "trace": {}}
        for runs in sets:
            untraced = [r for r in runs if r["workload"] == w and r["trace"] == 0]
            if not untraced:
                continue
            entry["end_to_end"].append({
                "seeds": [r["seed"] for r in untraced],
                "metrics": {
                    m: _spread([r["metrics"][m]["value"] for r in untraced]) for m in bounds
                },
                "cold_first_op_s": _spread([r["context"]["cold_first_op_s"] for r in untraced]),
                "failed": sum(r["details"]["failed"] for r in untraced),
            })
        if len(entry["end_to_end"]) > 1:
            first = entry["end_to_end"][0]["metrics"]
            entry["agreement"] = {}
            for later in entry["end_to_end"][1:]:
                for m, (bound, better) in bounds.items():
                    a, b = first[m]["median"], later["metrics"][m]["median"]
                    worse = (b - a) / a if better == "lower" else (a - b) / a
                    entry["agreement"][m] = {"first": a, "later": b, "worse_by": worse,
                                             "bound": bound, "ok": worse <= bound}
        traced = [r for runs in sets for r in runs if r["workload"] == w and r["trace"] == 1]
        if traced:
            for m in traced[0]["metrics"]:
                values = [r["metrics"][m]["value"] for r in traced]
                entry["per_layer"][m] = {"median": statistics.median(values),
                                         "unit": traced[0]["metrics"][m]["unit"],
                                         "min": min(values), "max": max(values)}
            for k in ("trace_overhead", "layer_coverage"):
                entry["trace"][k] = _spread([r["details"][k] for r in traced])
            entry["trace"]["counts_repeat_within_runs"] = all(
                r["details"]["counts_repeat"] for r in traced)
            entry["trace"]["seeds"] = [r["seed"] for r in traced]
        canonical = [r for runs in sets for r in runs
                     if r["workload"] == w and r["seed"] == 0 and r["trace"] == 0]
        if canonical:
            entry["canonical_ops"] = [
                {k: v for k, v in op.items() if k != "seconds"} for op in canonical[0]["ops"]
            ]
        out["workloads"][w] = entry
    any_run = next(r for runs in sets for r in runs)
    out["context"] = {k: v for k, v in any_run["context"].items()
                      if k not in ("seed", "cold_first_op_s")}
    out["run_seconds"] = any_run["seconds"]
    return out


def diff(a: dict, b: dict) -> list[str]:
    problems = []
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"different runs: {a['workload']}/{a['seed']} vs {b['workload']}/{b['seed']}"]
    for op_a, op_b in zip(a["ops"], b["ops"]):
        for key in sorted((set(op_a) | set(op_b)) - {"seconds", "reason"}):
            va, vb = op_a.get(key), op_b.get(key)
            if isinstance(va, float) and isinstance(vb, float):
                same = math.isclose(va, vb, rel_tol=0.0, abs_tol=DIFF_TOL)
            else:
                same = va == vb
            if not same:
                problems.append(f"{op_a['op']}: {key} {va!r} != {vb!r}")
    if len(a["ops"]) != len(b["ops"]):
        problems.append(f"operation count {len(a['ops'])} != {len(b['ops'])}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Summarize or compare perfbench results.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("summarize")
    p.add_argument("--out", required=True)
    p.add_argument("dirs", nargs="+", type=Path)
    p = sub.add_parser("diff")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.cmd == "summarize":
        Path(args.out).write_text(json.dumps(summarize(args.dirs), indent=1) + "\n")
        return 0
    problems = diff(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print("\n".join(problems) if problems else "identical within tolerance")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

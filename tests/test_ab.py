"""tools/ab.py's summary of alternated benchmark runs, on canned result lines."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab.py"
METRICS = [
    {"name": "pass_s", "better": "lower", "bound": 0.25},
    {"name": "ok_rate", "better": "higher", "bound": 0.01},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(pass_s, ok_rate):
    # What perfbench/run.py --trace 0 prints, without peak_rss_mb: the result
    # is the last line.
    metrics = {"pass_s": {"value": pass_s, "unit": "s"},
               "ok_rate": {"value": ok_rate, "unit": "ratio"}}
    result = {"correct": True, "attempted": 18, "failed": 0, "metrics": metrics}
    return f"pass_s {pass_s} s\nok_rate {ok_rate} ratio\n{json.dumps(result)}\n"


def test_summary_of_canned_runs():
    ab = _load_tool()
    parent = [_stdout(p, 1.0) for p in (0.50, 0.40, 0.60, 0.45, 0.55)]
    change = [_stdout(c, r) for c, r in ((0.30, 1.0), (0.45, 1.0), (0.20, 0.9),
                                         (0.25, 1.0), (0.35, 1.0))]
    pairs = [(ab.result_of(p), ab.result_of(c)) for p, c in zip(parent, change)]
    rows = ab.summarize(pairs, METRICS)
    # A metric missing from a run gets no row.
    assert [r["metric"] for r in rows] == ["pass_s", "ok_rate"]
    pass_s, ok_rate = rows
    assert pass_s["parent"] == (0.45, 0.5, 0.55)
    assert pass_s["change"] == (0.25, 0.3, 0.35)
    assert abs(pass_s["ratio"] - 0.6) <= 1e-12
    # Lower is better: the change wins every pair but the second.
    assert (pass_s["wins"], pass_s["pairs"]) == (4, 5)
    # Higher is better, and a tie is not a win.
    assert ok_rate["wins"] == 0 and ok_rate["ratio"] == 1.0
    table = ab.format_rows(rows).splitlines()
    assert table[0].split()[0] == "metric"
    assert table[1].split()[0] == "pass_s" and table[1].endswith("4/5")
    assert table[2].endswith("0/5")


def _result(**values):
    return {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}


def test_verdict_per_metric_of_canned_runs():
    ab = _load_tool()
    metrics = [{"name": "pass_s", "better": "lower", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
               {"name": "ok_rate", "better": "higher", "bound": 0.01}]
    # pass_s: every change run below every parent run. setup_s: the parent's
    # quartiles 0.105 and 0.134 lie 0.029 apart, more than 0.25 x 0.11, so a
    # +27% median reads unresolved. peak_rss_mb: +25% against a 0.2 bound.
    parent = dict(pass_s=[0.50, 0.40, 0.60, 0.45, 0.55], setup_s=[0.105, 0.11, 0.134, 0.10, 0.14],
                  peak_rss_mb=[40.0, 40.5, 39.5, 40.0, 40.0], ok_rate=[1.0] * 5)
    change = dict(pass_s=[0.30, 0.35, 0.20, 0.25, 0.39], setup_s=[0.14, 0.13, 0.15, 0.14, 0.12],
                  peak_rss_mb=[50.0] * 5, ok_rate=[1.0] * 5)
    pairs = [(_result(**{k: v[i] for k, v in parent.items()}),
              _result(**{k: v[i] for k, v in change.items()})) for i in range(5)]
    rows = ab.summarize(pairs, metrics)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("pass_s", "better"), ("setup_s", "unresolved"), ("peak_rss_mb", "worse"),
        ("ok_rate", "ok")]
    table = ab.format_rows(rows).splitlines()
    assert table[0].split()[-2:] == ["verdict", "wins"]
    assert [line.split()[-2] for line in table[1:]] == ["better", "unresolved", "worse", "ok"]


def test_quartiles_of_one_run():
    assert _load_tool().quartiles([0.3]) == (0.3, 0.3, 0.3)


def _results(**seconds):
    # The "ops" part of a perfbench results file: each operation's pass times.
    return {"ops": [{"op": name.replace("_", " "), "ok": True, "seconds": times}
                    for name, times in seconds.items()]}


def test_per_operation_medians_of_canned_results():
    ab = _load_tool()
    parent = [_results(certify_ydy=[0.010, 0.012], ups_bound=[0.060, 0.050]),
              _results(certify_ydy=[0.011], ups_bound=[0.070], parent_only=[1.0])]
    change = [_results(certify_ydy=[0.011, 0.013], ups_bound=[0.003, 0.004]),
              _results(certify_ydy=[0.012], ups_bound=[0.002])]
    runs = {"parent": [ab.op_seconds(r) for r in parent],
            "change": [ab.op_seconds(r) for r in change]}
    rows = ab.summarize_ops(runs)
    # An operation missing from a run gets no row; medians pool every pass of a side.
    assert [r["op"] for r in rows] == ["certify ydy", "ups bound"]
    ydy, bound = rows
    assert (ydy["parent"], ydy["change"]) == (0.011, 0.012)
    assert abs(ydy["ratio"] - 0.012 / 0.011) <= 1e-12
    assert (bound["parent"], bound["change"]) == (0.060, 0.003)
    assert abs(bound["ratio"] - 0.05) <= 1e-12
    table = ab.format_op_rows(rows).splitlines()
    assert table[0].split() == ["operation", "parent", "s", "change", "s", "ratio"]
    assert table[2].startswith("ups bound") and table[2].split()[-1] == "0.050"

"""The benchmark's workloads: their inputs, drawn from the workload seed, and
the reference every operation's output is checked against.

Each workload is a fixed, ordered list of operations that one caller runs back
to back (a closed loop). Seed ``CANONICAL_SEED`` reproduces the parameter
grids of the acceptance suite and the README; any other seed redraws the
epsilon points (same count, same ranges, one point per equal-width stratum,
bell3 points on both sides of 1/3) and the see-saw seed. Every reference holds
for any epsilon, so a claim can be re-checked on a seed it was not tuned on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sepdisc import cli, conesolve, discrimination, ups
from sepdisc.certificates import DEFAULT_SEED
from sepdisc.states import catalog, extend_ensemble

CANONICAL_SEED = 0
BELL3_THRESHOLD = 1.0 / 3.0

# Reference tolerances, as in tests/test_acceptance.py.
BELL4_TOL = 1e-5
VALUE_TOL = 1e-6
GLOBAL_SLACK = 1e-7
TRACE_TOL = 1e-12
TILES_BOUND_CEILING = 1.0 - 1.647e-4


@dataclass
class Op:
    """One operation: ``run`` does the work being timed, ``check`` turns its
    output into a record with ``ok`` and ``reason`` set against the reference."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass
class Workload:
    """``nominal_pass_s`` is the time of one pass on the 2-vCPU host the
    benchmark was defined on. It fixes the number of passes that a run of a
    given length makes, so that the count, and with it the sample count
    behind each percentile, does not depend on how fast the host runs."""

    name: str
    params: dict
    ops: list[Op]
    nominal_pass_s: float


def _strata(rng: random.Random, low: float, high: float, count: int) -> list[float]:
    width = (high - low) / count
    return [round(low + width * (i + rng.random()), 6) for i in range(count)]


def _bell3_points(rng: random.Random, below: int, above: int) -> list[float]:
    return _strata(rng, 0.1, BELL3_THRESHOLD, below) + _strata(rng, BELL3_THRESHOLD, 0.8, above)


def _record(ok: bool, reason: str = "", **fields) -> dict:
    return {"ok": bool(ok), "reason": reason, **fields}


def three_bell(eps: float) -> float:
    """Closed-form separable value for three Bell states with tau(eps)."""
    return (2.0 + math.sqrt(1.0 - eps * eps)) / 3.0


def four_bell(eps: float) -> float:
    """Closed-form PPT value for four Bell states with tau(eps)."""
    return (1.0 + math.sqrt(1.0 - eps * eps)) / 2.0


def relative_gap(primal: float, dual: float) -> float:
    return abs(primal - dual) / (1.0 + abs(dual))


# ---------------------------------------------------------------------------
# Solve operations (ppt-acceptance, global-solve)
# ---------------------------------------------------------------------------


def _solve_op(label: str, ensemble, measurement_class: str, reference) -> Op:
    """``reference(value) -> reason`` returns "" when the value is acceptable."""

    def run():
        # Looked up at call time, so the traced run sees its wrappers.
        if measurement_class == "ppt":
            return discrimination.optimal_ppt(ensemble)
        return discrimination.optimal_global(ensemble)

    def check(result) -> dict:
        sol = result.solution
        fields = dict(
            value=float(result.value),
            dual=float(sol.dual_value),
            gap=relative_gap(sol.primal_value, sol.dual_value),
            iterations=int(sol.iterations),
            status=sol.status,
        )
        if sol.status != conesolve.STATUS_OPTIMAL:
            return _record(False, f"status {sol.status}", **fields)
        reason = reference(fields["value"])
        return _record(not reason, reason, **fields)

    return Op(f"{measurement_class} {label}", run, check)


def _near(target: float, tol: float):
    def ref(v: float) -> str:
        return "" if abs(v - target) <= tol else f"value {v!r} not within {tol} of {target!r}"

    return ref


def _bell3_ppt_reference(eps: float):
    if eps <= BELL3_THRESHOLD:
        return _near(1.0, VALUE_TOL)
    floor = three_bell(eps)

    def ref(v: float) -> str:
        if v < floor - VALUE_TOL or v > 1.0 + VALUE_TOL:
            return f"value {v!r} outside [{floor!r}, 1]"
        return ""

    return ref


def _at_most(ceiling: float):
    def ref(v: float) -> str:
        return "" if v <= ceiling else f"value {v!r} above {ceiling!r}"

    return ref


def ppt_acceptance(seed: int) -> Workload:
    """The acceptance suite's PPT solves, thinned so that two passes fit in
    one run: both Bell families with the resource (16-dimensional blocks,
    1280 and 1024 rows), bell3 on both sides of 1/3, ydy, and the
    9-dimensional domino and tiles_psi programs. tiles_psi is the one solve
    that runs to the iteration limit."""
    if seed == CANONICAL_SEED:
        bell4_eps, bell3_eps = [0.6], [0.2, 0.5]
    else:
        rng = random.Random(seed)
        bell4_eps, bell3_eps = _strata(rng, 0.0, 1.0, 1), _bell3_points(rng, 1, 1)
    ops = [_solve_op("domino", catalog("domino"), "ppt", _near(1.0, VALUE_TOL))]
    for eps in bell4_eps:
        ens = extend_ensemble(catalog("bell4"), eps)
        ref = _near(four_bell(eps), BELL4_TOL)
        ops.append(_solve_op(f"bell4 eps={eps}", ens, "ppt", ref))
    for eps in bell3_eps:
        ens = extend_ensemble(catalog("bell3"), eps)
        ops.append(_solve_op(f"bell3 eps={eps}", ens, "ppt", _bell3_ppt_reference(eps)))
    ops.append(_solve_op("ydy", catalog("ydy"), "ppt", _near(7.0 / 8.0, VALUE_TOL)))
    # tiles_psi is an orthogonal ensemble, so its global value is exactly 1.
    ops.append(_solve_op("tiles_psi", catalog("tiles_psi"), "ppt", _at_most(1.0 + GLOBAL_SLACK)))
    params = {"bell4_eps": bell4_eps, "bell3_eps": bell3_eps}
    return Workload("ppt-acceptance", params, ops, nominal_pass_s=13.0)


def global_solve(seed: int) -> Workload:
    """Global-class solves of the acceptance ensembles over the full epsilon
    grids. Every ensemble is orthogonal, so every value is 1."""
    if seed == CANONICAL_SEED:
        bell4_eps = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        bell3_eps = [0.1, 0.2, 0.33, 0.5, 0.8]
    else:
        rng = random.Random(seed)
        bell4_eps, bell3_eps = _strata(rng, 0.0, 1.0, 6), _bell3_points(rng, 3, 2)
    one = _near(1.0, VALUE_TOL)
    ops = [_solve_op("domino", catalog("domino"), "global", one)]
    ops += [
        _solve_op(f"bell4 eps={eps}", extend_ensemble(catalog("bell4"), eps), "global", one)
        for eps in bell4_eps
    ]
    ops += [
        _solve_op(f"bell3 eps={eps}", extend_ensemble(catalog("bell3"), eps), "global", one)
        for eps in bell3_eps
    ]
    ops += [_solve_op(name, catalog(name), "global", one) for name in ("ydy", "tiles_psi")]
    params = {"bell4_eps": bell4_eps, "bell3_eps": bell3_eps}
    return Workload("global-solve", params, ops, nominal_pass_s=5.5)


# ---------------------------------------------------------------------------
# CLI pipelines (certify-ups)
# ---------------------------------------------------------------------------


def _cli_op(argv: list[str], check_outputs: Callable[[dict], tuple[str, dict]]) -> Op:
    """Runs ``sepdisc <argv>`` in process with stdout captured. The check
    requires exit code 0 and then applies ``check_outputs`` to the report's
    outputs, which returns (reason, recorded fields)."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out) -> dict:
        code, text = out
        if code != cli.EXIT_OK:
            return _record(False, f"exit code {code}", exit_code=code)
        outputs = json.loads(text)["outputs"]
        reason, fields = check_outputs(outputs)
        return _record(not reason, reason, exit_code=code, **fields)

    return Op(" ".join(argv), run, check)


def _certify_check(claimed: float):
    def check(out: dict) -> tuple[str, dict]:
        fields = {"value": out["claimed_trace"], "outcome": out["outcome"]}
        if out["outcome"] != "unrefuted":
            return f"outcome {out['outcome']}", fields
        if abs(out["claimed_trace"] - claimed) > TRACE_TOL:
            return f"claimed trace {out['claimed_trace']!r} != {claimed!r}", fields
        return "", fields

    return check


def _field_check(key: str, expected):
    def check(out: dict) -> tuple[str, dict]:
        got = out[key]
        return ("" if got == expected else f"{key} {got!r} != {expected!r}"), {key: got}

    return check


def _enumerate_check(count_list):
    def check(out: dict) -> tuple[str, dict]:
        counts = out["counts"]
        return ("" if count_list(counts) else f"counts {counts}"), {"counts": counts}

    return check


def _feng_separable_check():
    """Feng is not separably discriminable: the report must carry a Farkas
    witness that passes ``verify_farkas`` against the replacement columns,
    which are enumerated once, on the first check."""
    columns: list[np.ndarray] = []

    def check(out: dict) -> tuple[str, dict]:
        fields = {"feasible": out["feasible"], "value": out["phase1_value"]}
        if out["feasible"]:
            return "feng reported separably discriminable", fields
        if not columns:
            reps = ups.replacement_projections(catalog("feng"))
            columns.extend(pv.projection for pv in reps.all_vectors())
        w = cli.decode_matrix(out["farkas"])
        if not conesolve.verify_farkas(columns, np.eye(16, dtype=complex), w):
            return "Farkas witness fails verify_farkas", fields
        return "", fields

    return check


def _tiles_bound_check(out: dict) -> tuple[str, dict]:
    fields = {"value": out["bound"], "outcome": out["outcome"]}
    if out["outcome"] != "unrefuted":
        return f"outcome {out['outcome']}", fields
    if not out["bound"] < TILES_BOUND_CEILING:
        return f"bound {out['bound']!r} not below {TILES_BOUND_CEILING!r}", fields
    return "", fields


def _discriminate_check(out: dict) -> tuple[str, dict]:
    fields = {
        "value": out["value"],
        "dual": out["dual_value"],
        "gap": relative_gap(out["value"], out["dual_value"]),
        "iterations": out["iterations"],
        "status": out["status"],
    }
    if out["status"] != conesolve.STATUS_OPTIMAL:
        return f"status {out['status']}", fields
    if abs(out["value"] - 0.5) > VALUE_TOL:
        return f"value {out['value']!r} != 0.5", fields
    return "", fields


def certify_ups(seed: int) -> Workload:
    """The README certify and ups pipelines plus one small PPT solve, run
    through ``cli.main``: see-saw searches, replacement enumeration, LP
    phase 1 on 1x1 blocks and report encoding, with no large SDP."""
    if seed == CANONICAL_SEED:
        bell3_eps = bell4_eps = [0.2, 0.6, 0.9]
        seesaw_seed = DEFAULT_SEED
    else:
        rng = random.Random(seed)
        bell3_eps, bell4_eps = _strata(rng, 0.2, 0.9, 3), _strata(rng, 0.2, 0.9, 3)
        seesaw_seed = rng.randrange(2**31)
    s = ["--seed", str(seesaw_seed)]
    ops = [_cli_op(["discriminate", "bell4", "--class", "ppt"], _discriminate_check)]
    ops += [
        _cli_op(["certify", "bell3", "--epsilon", str(e)] + s,
                _certify_check(three_bell(e)))
        for e in bell3_eps
    ]
    ops += [
        _cli_op(["certify", "bell4", "--epsilon", str(e)] + s,
                _certify_check(four_bell(e)))
        for e in bell4_eps
    ]
    ops.append(_cli_op(["certify", "ydy"] + s, _certify_check(0.75)))
    for fam in ("tiles", "feng"):
        ops.append(_cli_op(["ups", fam, "--action", "check"], _field_check("unextendable", True)))
    ops.append(_cli_op(["ups", "tiles", "--action", "enumerate"],
                       _enumerate_check(lambda c: len(c) == 5 and min(c) >= 1)))
    ops.append(_cli_op(["ups", "feng", "--action", "enumerate"],
                       _enumerate_check(lambda c: c == [6] * 8)))
    ops.append(_cli_op(["ups", "tiles", "--action", "separable"], _field_check("feasible", True)))
    ops.append(_cli_op(["ups", "feng", "--action", "separable"], _feng_separable_check()))
    ops.append(_cli_op(["ups", "tiles", "--action", "bound", "--lambda", "analytic"] + s,
                       _tiles_bound_check))
    params = {"bell3_eps": bell3_eps, "bell4_eps": bell4_eps, "seesaw_seed": seesaw_seed}
    return Workload("certify-ups", params, ops, nominal_pass_s=1.0)


WORKLOADS = {
    "ppt-acceptance": ppt_acceptance,
    "global-solve": global_solve,
    "certify-ups": certify_ups,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


"""Command-line front end.

Each subcommand runs one pipeline and emits a machine-readable JSON report
(complex entries as [re, im] pairs). Reports are deterministic under fixed
seeds; the timing field is the only part that varies between runs.

Exit codes: 0 success, 2 input validation (including an input or output
path that cannot be read or written), 3 solver non-convergence, 4 refuted
certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import sys
import time

import numpy as np

from . import __version__
from .certificates import (
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    PSD_MARGIN_TOL,
    block_positivity_search,
    breuer_hall_witness,
    check_search_args,
    four_bell_certificate_psd_margins,
    four_bell_resource_certificate,
    three_bell_resource_certificate,
    three_bell_slack_conjugations,
    three_bell_slack_map_residual,
    ydy_certificate,
    ydy_witness_unitary,
)
from .conesolve import ConvergenceError, format_iterate_log, span_residual
from .discrimination import (
    four_bell_value,
    local_guess_measurement,
    measurement_value,
    optimal_global,
    optimal_ppt,
    sep_bound_from_certificate,
    three_bell_value,
)
from .linalg import BipartiteSpace
from .states import (
    CATALOG_NAMES,
    Ensemble,
    ProductVector,
    UPSet,
    bell,
    catalog,
    extend_ensemble,
    projector,
    tiles_orthogonal_state,
    ydy_unitaries,
)
from .ups import (
    ExtraStateError,
    ProductSetError,
    is_unextendable,
    replacement_projections,
    separable_perfect_discrimination,
    tiles_overlap_constant,
    ups_plus_state_bound,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_REFUTED = 4


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Shared file format: nested arrays of [re, im] pairs, row-major
# ---------------------------------------------------------------------------


def encode_vector(v) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=complex)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def decode_vector(data) -> np.ndarray:
    """Complex vector from a list of [re, im] pairs of finite numbers;
    InputError otherwise."""
    if not isinstance(data, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in data
    ):
        raise InputError("expected a list of [re, im] number pairs")
    try:
        v = np.array([complex(re, im) for re, im in data], dtype=complex)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"entry out of range: {exc}") from exc
    if not np.isfinite(v).all():
        raise InputError("entries must be finite")
    return v


def encode_matrix(m) -> list:
    return [encode_vector(row) for row in np.asarray(m, dtype=complex)]


def decode_matrix(data) -> np.ndarray:
    """Complex matrix from a list of rows of [re, im] number pairs."""
    if not isinstance(data, list):
        raise InputError("expected a list of rows of [re, im] number pairs")
    return np.array([decode_vector(row) for row in data], dtype=complex)


def _dim(x) -> int:
    """A dimension read from JSON: an integer, and JSON true is not one."""
    if isinstance(x, bool):
        raise TypeError(f"dims must be integers, not {x!r}")
    return operator.index(x)


def _decode_space(data) -> BipartiteSpace:
    try:
        space = BipartiteSpace(_dim(data["dim_x"]), _dim(data["dim_y"]))
        # Older files carry nested factors of each side; check them, then drop them.
        for key, dim in (("factors_x", space.dim_x), ("factors_y", space.dim_y)):
            factors = [_dim(f) for f in data.get(key) or ()]
            if factors and math.prod(factors) != dim:
                raise ValueError("nested factor dims must multiply to the side dim")
        return space
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad space header: {exc}") from exc


def _load_json(path: str, kind: str | None = None):
    """The JSON value in ``path``; with ``kind``, it must be an object whose
    "kind" field is ``kind``. A file that is not UTF-8 JSON, or nests too
    deeply to parse, is an InputError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if kind is not None and (not isinstance(data, dict) or data.get("kind") != kind):
        raise InputError(f"{path}: expected a JSON object of kind {kind!r}")
    return data


def load_ensemble(path: str) -> Ensemble:
    data = _load_json(path, "ensemble")
    try:
        space = _decode_space(data["space"])
        states = tuple(decode_matrix(s) for s in data["states"])
        if not isinstance(data["probs"], list) or not all(map(_is_number, data["probs"])):
            raise InputError("probs must be a list of numbers")
        return Ensemble(space, states, np.asarray(data["probs"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_product_set(path: str) -> UPSet:
    data = _load_json(path, "product_set")
    try:
        space = _decode_space(data["space"])
        members = tuple(
            ProductVector(decode_vector(m["x"]), decode_vector(m["y"]))
            for m in data["members"]
        )
        return UPSet(space, members)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_vector(path: str) -> np.ndarray:
    data = _load_json(path)
    try:
        return decode_vector(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _resolve_ensemble(args) -> Ensemble:
    name = args.family
    if name in CATALOG_NAMES:
        fam = catalog(name)
        if isinstance(fam, UPSet):
            raise InputError(f"{name!r} is a product set; use the 'ups' command")
        ens = fam
    else:
        ens = load_ensemble(name)
    if args.prior is not None:
        try:
            probs = np.asarray([float(t) for t in args.prior.split(",")], dtype=float)
        except ValueError as exc:
            raise InputError(f"bad --prior value {args.prior!r}") from exc
        if probs.size != len(ens):
            raise InputError(f"prior needs {len(ens)} entries, got {probs.size}")
        try:  # the symmetry fixes each state, so it holds for any prior
            ens = dataclasses.replace(ens, probs=probs)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.epsilon is not None:
        if name not in ("bell3", "bell4"):
            raise InputError("--epsilon only applies to the bell3/bell4 families")
        try:
            ens = extend_ensemble(ens, args.epsilon)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return ens


def cmd_discriminate(args) -> tuple[dict, int]:
    ens = _resolve_ensemble(args)
    result = optimal_ppt(ens) if args.measurement_class == "ppt" else optimal_global(ens)
    if args.log_iterates:
        with open(args.log_iterates, "w") as fh:
            fh.write(format_iterate_log(result.solution.log))
    outputs = {
        "value": result.value,
        "dual_value": result.solution.dual_value,
        "gap": result.gap,
        "status": result.solution.status,
        "iterations": result.solution.iterations,
        "certificate": {
            "cone": result.certificate.cone_tag,
            "claimed_value": result.certificate.claimed_value,
            "matrix": encode_matrix(result.certificate.matrix),
        },
        "measurement": [encode_matrix(p) for p in result.measurement.operators],
    }
    return outputs, EXIT_OK


def _search_payload(report) -> dict:
    return {
        "min_overlap": report.min_overlap,
        "iterations": report.iterations_per_restart,
        "witness_x": encode_vector(report.witness.x),
        "witness_y": encode_vector(report.witness.y),
        "refuted": report.refuted,
    }


def _search(h, space, args):
    """The see-saw search under the --restarts and --seed flags."""
    try:
        return block_positivity_search(h, space, args.restarts, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _bell3_certificate(eps: float):
    cert, slacks = three_bell_resource_certificate(eps)
    return extend_ensemble(catalog("bell3"), eps), cert, {
        "trace_formula_residual": abs(cert.claimed_value - three_bell_value(eps)),
        "conjugation_residuals": list(three_bell_slack_conjugations(slacks)),
        "map_link_residual": three_bell_slack_map_residual(slacks[0], eps),
    }


def _bell4_certificate(eps: float):
    cert = four_bell_resource_certificate(eps)
    return extend_ensemble(catalog("bell4"), eps), cert, {
        "trace_formula_residual": abs(cert.claimed_value - four_bell_value(eps)),
        "transposed_slack_min_eigenvalues": four_bell_certificate_psd_margins(cert, eps),
    }


def _ydy_certificate(_):
    cert, ens, us, v = ydy_certificate(), catalog("ydy"), ydy_unitaries(), ydy_witness_unitary()
    skews = [v.T @ u for u in us]
    diffs = [
        cert.matrix - p * rho - breuer_hall_witness(u, v) / 16.0
        for u, p, rho in zip(us, ens.probs, ens.states)
    ]
    return ens, cert, {
        "skew_symmetry_residuals": [float(np.abs(w.T + w).max()) for w in skews],
        "witness_identity_residuals": [float(np.abs(w).max()) for w in diffs],
    }


# name -> (takes --epsilon, each party's local basis for the protocol side,
# builder of (ensemble, certificate, exact-identity checks on that one
# certificate)). bell4's outcome is decided by the PPT margins of its
# transposed slacks; the others' by the see-saw searches of
# sep_bound_from_certificate.
BELL_BASIS = np.column_stack([bell(k) for k in range(1, 5)])
CERTIFICATES = {
    "bell3": (True, BELL_BASIS, _bell3_certificate),
    "bell4": (True, BELL_BASIS, _bell4_certificate),
    "ydy": (False, np.eye(4), _ydy_certificate),
}


def cmd_certify(args) -> tuple[dict, int]:
    name = args.name
    takes_epsilon, basis, build = CERTIFICATES[name]
    if takes_epsilon and args.epsilon is None:
        raise InputError(f"certify {name} requires --epsilon")
    if not takes_epsilon and args.epsilon is not None:
        raise InputError(f"certify {name} takes no --epsilon")
    try:  # the see-saw flags are checked for every name, searched or not
        check_search_args(args.restarts, args.seed)
        ens, cert, checks = build(args.epsilon)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    # The bracket [protocol_value, claimed_trace] on the separable (and LOCC) optimum.
    outputs = {
        "claimed_trace": cert.claimed_value,
        "protocol_value": measurement_value(ens, local_guess_measurement(ens, basis, basis)),
        **checks,
    }
    if name == "bell4":
        refuted = min(checks["transposed_slack_min_eigenvalues"]) < -PSD_MARGIN_TOL
    else:
        try:
            score = sep_bound_from_certificate(ens, cert, args.restarts, args.seed)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        outputs["searches"] = [_search_payload(r) for r in score.reports]
        refuted = not score.unrefuted
    outputs["certificate"] = {"cone": cert.cone_tag, "matrix": encode_matrix(cert.matrix)}
    outputs["outcome"] = "refuted" if refuted else "unrefuted"
    return outputs, EXIT_REFUTED if refuted else EXIT_OK


def _resolve_product_set(name: str) -> UPSet:
    if name in CATALOG_NAMES:
        fam = catalog(name)
        if not isinstance(fam, UPSet):
            raise InputError(f"{name!r} is an ensemble; use the 'discriminate' command")
        return fam
    return load_product_set(name)


def _enumerating(algorithm, name: str, ups_set: UPSet):
    """algorithm(ups_set) for an algorithm that enumerates member subsets. A
    set it cannot take (too many members, or extendable where it must not
    be) is bad input."""
    try:
        return algorithm(ups_set)
    except ProductSetError as exc:
        raise InputError(f"{name}: {exc}") from exc


def cmd_ups(args) -> tuple[dict, int]:
    if args.action != "bound":
        for flag, value in (("--lambda", args.lam), ("--z", args.z),
                            ("--restarts", args.restarts), ("--seed", args.seed)):
            if value is not None:
                raise InputError(f"ups --action {args.action} takes no {flag}")
    name = args.family
    ups_set = _resolve_product_set(name)

    if args.action == "check":
        report = _enumerating(is_unextendable, name, ups_set)
        outputs = {"unextendable": report.unextendable}
        if report.witness is not None:
            outputs["witness_x"] = encode_vector(report.witness.x)
            outputs["witness_y"] = encode_vector(report.witness.y)
        return outputs, EXIT_OK

    if args.action == "enumerate":
        reps = _enumerating(replacement_projections, name, ups_set)
        outputs = {
            "counts": reps.counts,
            "per_index": [
                [{"x": encode_vector(pv.x), "y": encode_vector(pv.y)} for pv in lst]
                for lst in reps.per_index
            ],
        }
        return outputs, EXIT_OK

    if args.action == "separable":
        report = _enumerating(separable_perfect_discrimination, name, ups_set)
        columns = [pv.projection for pv in report.replacements.all_vectors()]
        eye = np.eye(ups_set.space.total_dim, dtype=complex)
        outputs = {
            "feasible": report.feasible,
            "phase1_value": report.lp.phase1_value,
            "identity_span_residual": span_residual(columns, eye),
        }
        if report.feasible:
            outputs["weights"] = [float(w) for w in report.lp.weights]
            outputs["measurement"] = [encode_matrix(p) for p in report.measurement.operators]
        else:
            outputs["farkas"] = encode_matrix(report.farkas)
        return outputs, EXIT_OK

    # Only "bound" is left, the one action that runs a see-saw: record its defaults.
    args.restarts = DEFAULT_RESTARTS if args.restarts is None else args.restarts
    args.seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.lam is None:
        raise InputError("the bound action requires --lambda")
    if args.lam == "analytic":
        if name != "tiles":
            raise InputError("--lambda analytic is only defined for the tiles set")
        lam = tiles_overlap_constant()
    else:
        try:
            lam = float(args.lam)
        except ValueError as exc:
            raise InputError(f"bad --lambda value {args.lam!r}") from exc
    if args.z is not None:
        z = load_vector(args.z)
    elif name == "tiles":
        z = tiles_orthogonal_state()
    else:
        raise InputError("the bound action requires --z for this input")
    try:
        report = ups_plus_state_bound(ups_set, z, lam)
    except ExtraStateError as exc:  # only a --z file can fail these checks
        raise InputError(f"{args.z}: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    n = len(ups_set)
    slack = report.certificate.matrix - projector(z) / (n + 1)
    search = _search(slack * (n + 1), ups_set.space, args)
    outputs = {
        "lambda": lam,
        "delta": report.delta,
        "bound": report.bound,
        "claimed_trace": report.certificate.claimed_value,
        "member_slack_min_eigenvalue": report.psd_margin,
        "extra_state_search": _search_payload(search),
    }
    refuted = search.refuted or report.psd_margin < -PSD_MARGIN_TOL
    outputs["outcome"] = "refuted" if refuted else "unrefuted"
    return outputs, EXIT_REFUTED if refuted else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdisc",
        description="State discrimination values, dual certificates and "
        "unextendable-product-set criteria.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, see_saw: bool):
        if see_saw:
            p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("discriminate", help="solve a discrimination program")
    p.add_argument("family", help="family name or ensemble file")
    p.add_argument("--class", dest="measurement_class", choices=("global", "ppt"), default="ppt")
    p.add_argument("--epsilon", type=float, help="resource entanglement parameter")
    p.add_argument("--prior", help="comma-separated prior probabilities")
    p.add_argument("--log-iterates", help="write the solver iterate log here")
    common(p, see_saw=False)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("certify", help="build and score a dual certificate")
    p.add_argument("name", choices=tuple(CERTIFICATES))
    p.add_argument("--epsilon", type=float)
    common(p, see_saw=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ups", help="unextendable-product-set pipelines")
    p.add_argument("family", help="tiles, feng, or a product-set file")
    p.add_argument("--action", choices=("check", "enumerate", "separable", "bound"),
                   default="check")
    p.add_argument("--lambda", dest="lam",
                   help="certified overlap constant (a float, or 'analytic' for tiles)")
    p.add_argument("--z", help="file holding the extra orthogonal state for 'bound'")
    common(p, see_saw=True)
    # None unless given: only --action bound reads them, the others reject them.
    p.set_defaults(func=cmd_ups, restarts=None, seed=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        outputs, code = args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.solution is not None:
            sys.stderr.write(format_iterate_log(exc.solution.log))
        return EXIT_SOLVER

    report = {
        "tool": {"name": "sepdisc", "version": __version__},
        "command": args.command,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "command", "out") and v is not None
        },
        "outputs": outputs,
        "timing_seconds": time.perf_counter() - started,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Each subcommand runs one pipeline and emits a machine-readable JSON report
(complex entries as [re, im] pairs). Reports are deterministic; the timing
field is the only part that varies between runs.

Exit codes: 0 success, 2 input validation (including an input or output
path that cannot be read or written), 3 solver non-convergence, 4 refuted
certificate: for ``certify``, a lower bound on some slack's block-positivity
margin below -PSD_MARGIN_TOL; for ``ups --action bound``, a member slack
eigenvalue below it, or the extra-state slack's margin bound. Each outcome
comes from the certificate's own identities (for the bound, with the cited
tiles constant); no command runs a see-saw search.
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
    PSD_MARGIN_TOL,
    breuer_hall_witness,
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


def _check_seed(args) -> None:
    """--seed is read by nothing. It stays, checked, only because the
    benchmark passes it to ``certify`` and ``ups --action bound``; it goes
    once the benchmark stops (ROADMAP item 16)."""
    if args.seed is not None and args.seed < 0:
        raise InputError(f"seed must be nonnegative, got {args.seed}")


# Rounding budget of a float identity residual, in ulps of the largest slack
# entry: it covers the entries' own rounding and the four-term sums of the
# local conjugations.
IDENTITY_ULPS = 64


def _margin_bounds(residuals, slacks) -> list[float]:
    """Lower bounds on min <v|S|v> over unit product vectors v, one per slack
    S, given residuals[k] >= max|S_k - B_k| up to roundoff for a block-positive
    B_k. For an n x n error E, ||E||_2 <= n max|E|, so
    <v|S_k|v> >= -n (residuals[k] + beta), beta the rounding budget."""
    n = slacks[0].shape[0]
    beta = IDENTITY_ULPS * float(np.spacing(max(np.abs(s).max() for s in slacks)))
    return [-n * (r + beta) for r in residuals]


def _bell3_certificate(eps: float):
    cert = three_bell_resource_certificate(eps)
    ens = extend_ensemble(catalog("bell3"), eps)
    slacks = [cert.matrix - p * rho for p, rho in zip(ens.probs, ens.states)]
    link = three_bell_slack_map_residual(slacks[0], eps)
    conjugations = list(three_bell_slack_conjugations(slacks))
    # The slacks are those of the reported certificate and ensemble. Slack 1
    # is (r/12) times the Choi matrix of a positive map, and slacks 2 and 3
    # are its conjugations by local unitaries.
    bounds = _margin_bounds([link] + [link + c for c in conjugations], slacks)
    return ens, cert, {
        "trace_formula_residual": abs(cert.claimed_value - three_bell_value(eps)),
        "conjugation_residuals": conjugations,
        "map_link_residual": link,
        "slack_margin_bounds": bounds,
    }, bounds


def _bell4_certificate(eps: float):
    cert = four_bell_resource_certificate(eps)
    # <x (x) y|S|x (x) y> = <conj(x) (x) y|T_X(S)|conj(x) (x) y>.
    margins = four_bell_certificate_psd_margins(cert, eps)
    return extend_ensemble(catalog("bell4"), eps), cert, {
        "trace_formula_residual": abs(cert.claimed_value - four_bell_value(eps)),
        "transposed_slack_min_eigenvalues": margins,
    }, margins


def _ydy_certificate(_):
    cert, ens, us, v = ydy_certificate(), catalog("ydy"), ydy_unitaries(), ydy_witness_unitary()
    slacks = [cert.matrix - p * rho for p, rho in zip(ens.probs, ens.states)]
    skew_residuals = [float(np.abs(w.T + w).max()) for w in (v.T @ u for u in us)]
    witness_residuals = [
        float(np.abs(s - breuer_hall_witness(u, v) / 16.0).max()) for s, u in zip(slacks, us)
    ]
    # Each slack is a Breuer-Hall witness over 16, block positive when V^T U
    # is skew-symmetric. A symmetric part D of V^T U lowers the witness's
    # margin by at most 4 max|D| = 2 skew, so the slack's by less than 16 skew.
    bounds = _margin_bounds([w + s for w, s in zip(witness_residuals, skew_residuals)], slacks)
    return ens, cert, {
        "skew_symmetry_residuals": skew_residuals,
        "witness_identity_residuals": witness_residuals,
        "slack_margin_bounds": bounds,
    }, bounds


# name -> (takes --epsilon, each party's local basis for the protocol side,
# builder of (ensemble, certificate, checks on that one certificate, a lower
# bound on each slack's block-positivity margin)). bell3 and ydy bound their
# margins from their float identity residuals, bell4 by the least eigenvalue
# of each transposed slack; no name runs a see-saw search.
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
    _check_seed(args)
    try:
        ens, cert, checks, margin_bounds = build(args.epsilon)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    # The bracket [protocol_value, claimed_trace] on the separable (and LOCC) optimum.
    outputs = {
        "claimed_trace": cert.claimed_value,
        "protocol_value": measurement_value(ens, local_guess_measurement(ens, basis, basis)),
        **checks,
        "certificate": {"cone": cert.cone_tag, "matrix": encode_matrix(cert.matrix)},
    }
    refuted = min(margin_bounds) < -PSD_MARGIN_TOL
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
        for flag, value in (("--lambda", args.lam), ("--z", args.z), ("--seed", args.seed)):
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
        eye = np.eye(ups_set.space.total_dim, dtype=complex)
        outputs = {
            "feasible": report.feasible,
            "phase1_value": report.lp.phase1_value,
            "identity_span_residual": span_residual(list(report.columns), eye),
        }
        if report.feasible:
            outputs["weights"] = [float(w) for w in report.lp.weights]
            outputs["measurement"] = [encode_matrix(p) for p in report.measurement.operators]
        else:
            outputs["farkas"] = encode_matrix(report.farkas)
        return outputs, EXIT_OK

    if args.lam is None:
        raise InputError("the bound action requires --lambda")
    if name != "tiles":
        raise InputError("--lambda analytic is only defined for the tiles set")
    _check_seed(args)
    lam = tiles_overlap_constant()
    z = tiles_orthogonal_state() if args.z is None else load_vector(args.z)
    try:
        report = ups_plus_state_bound(ups_set, z, lam)
    except ExtraStateError as exc:  # only a --z file can fail these checks
        raise InputError(f"{args.z}: {exc}") from exc
    n = len(ups_set)
    zz = projector(z)
    slack = report.certificate.matrix - zz / (n + 1)
    # For unit product v, <v|Pi|v> >= lam (the cited constant) and
    # |<v|z>|^2 <= delta, so (Pi - (lam/delta) zz*) / (n+1) is block
    # positive. lam/delta <= dim_y lam, so the few-ulp errors of lam and
    # delta move its entries by far less than the rounding budget.
    exact = (ups_set.projector_sum() - (lam / report.delta) * zz) / (n + 1)
    [margin] = _margin_bounds([float(np.abs(slack - exact).max())], [slack])
    outputs = {
        "lambda": lam,
        "delta": report.delta,
        "bound": report.bound,
        "claimed_trace": report.certificate.claimed_value,
        "member_slack_min_eigenvalue": report.psd_margin,
        "extra_state_margin_bound": margin,
    }
    refuted = margin < -PSD_MARGIN_TOL or report.psd_margin < -PSD_MARGIN_TOL
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

    def common(p, seed: bool):
        # --seed is None unless given, and then left out of the report (see
        # _check_seed); the ups actions other than bound reject it.
        if seed:
            p.add_argument("--seed", type=int)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("discriminate", help="solve a discrimination program")
    p.add_argument("family", help="family name or ensemble file")
    p.add_argument("--class", dest="measurement_class", choices=("global", "ppt"), default="ppt")
    p.add_argument("--epsilon", type=float, help="resource entanglement parameter")
    p.add_argument("--prior", help="comma-separated prior probabilities")
    p.add_argument("--log-iterates", help="write the solver iterate log here")
    common(p, seed=False)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("certify", help="build and score a dual certificate")
    p.add_argument("name", choices=tuple(CERTIFICATES))
    p.add_argument("--epsilon", type=float)
    common(p, seed=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ups", help="unextendable-product-set pipelines")
    p.add_argument("family", help="tiles, feng, or a product-set file")
    p.add_argument("--action", choices=("check", "enumerate", "separable", "bound"),
                   default="check")
    p.add_argument("--lambda", dest="lam", choices=("analytic",),
                   help="certified overlap constant: the cited one for tiles")
    p.add_argument("--z", help="file holding the extra orthogonal state for 'bound'")
    common(p, seed=True)
    p.set_defaults(func=cmd_ups)

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

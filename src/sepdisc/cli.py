"""Command-line front end.

Each subcommand runs one pipeline and emits a machine-readable JSON report
(complex entries as [re, im] pairs). Reports are deterministic; the timing
field is the only part that varies between runs.

Exit codes: 0 success, 2 input validation (including an input or output
path that cannot be read or written), 3 solver non-convergence, 4 refuted
certificate: the least of the margins that ``certificates.certify`` or
``ups.ups_plus_state_bound`` returns is below -PSD_MARGIN_TOL. Those
functions decide what a certificate proves, from its own identities (for
the bound, with the cited tiles constant); no command runs a see-saw search.
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
from .certificates import PSD_MARGIN_TOL, certify
from .conesolve import ConvergenceError, format_iterate_log, span_residual
from .discrimination import local_guess_measurement, measurement_value, optimal_global, optimal_ppt
from .linalg import BipartiteSpace
from .states import (
    CATALOG_NAMES,
    Ensemble,
    ProductVector,
    UPSet,
    bell,
    catalog,
    extend_ensemble,
    tiles_orthogonal_state,
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


def encode(a) -> list:
    """An array of any shape as nested lists ending in [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


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
        "gap": result.value - result.solution.dual_value,
        "status": result.solution.status,
        "iterations": result.solution.iterations,
        "certificate": {
            "cone": result.certificate.cone_tag,
            "claimed_value": result.certificate.claimed_value,
            "matrix": encode(result.certificate.matrix),
        },
        "measurement": encode(result.measurement.operators),
    }
    return outputs, EXIT_OK


def _check_seed(args) -> None:
    """--seed is read by nothing. It stays, checked, only because the
    benchmark passes it to ``certify`` and ``ups --action bound``; it goes
    once the benchmark stops (ROADMAP item 16)."""
    if args.seed is not None and args.seed < 0:
        raise InputError(f"seed must be nonnegative, got {args.seed}")


def _judged(outputs: dict, margins) -> tuple[dict, int]:
    """outputs with its outcome: refuted if its least margin is below -PSD_MARGIN_TOL."""
    refuted = min(margins) < -PSD_MARGIN_TOL
    outputs["outcome"] = "refuted" if refuted else "unrefuted"
    return outputs, EXIT_REFUTED if refuted else EXIT_OK


# name -> (takes --epsilon, each party's local basis for the protocol side).
BELL_BASIS = np.column_stack([bell(k) for k in range(1, 5)])
CERTIFICATES = {"bell3": (True, BELL_BASIS), "bell4": (True, BELL_BASIS), "ydy": (False, np.eye(4))}


def cmd_certify(args) -> tuple[dict, int]:
    name = args.name
    takes_epsilon, basis = CERTIFICATES[name]
    if takes_epsilon and args.epsilon is None:
        raise InputError(f"certify {name} requires --epsilon")
    if not takes_epsilon and args.epsilon is not None:
        raise InputError(f"certify {name} takes no --epsilon")
    _check_seed(args)
    try:
        ens, cert, checks, margins = certify(name, args.epsilon)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    # The bracket [protocol_value, claimed_trace] on the separable (and LOCC) optimum.
    outputs = {
        "claimed_trace": cert.claimed_value,
        "protocol_value": measurement_value(ens, local_guess_measurement(ens, basis, basis)),
        **checks,
        "certificate": {"cone": cert.cone_tag, "matrix": encode(cert.matrix)},
    }
    return _judged(outputs, margins)


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
            outputs["witness_x"] = encode(report.witness.x)
            outputs["witness_y"] = encode(report.witness.y)
        return outputs, EXIT_OK

    if args.action == "enumerate":
        reps = _enumerating(replacement_projections, name, ups_set)
        outputs = {
            "counts": reps.counts,
            "per_index": [
                [{"x": encode(pv.x), "y": encode(pv.y)} for pv in lst]
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
            outputs["measurement"] = encode(report.measurement.operators)
        else:
            outputs["farkas"] = encode(report.farkas)
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
    outputs = {
        "lambda": lam,
        "delta": report.delta,
        "bound": report.bound,
        "claimed_trace": report.certificate.claimed_value,
        "member_slack_min_eigenvalue": report.psd_margin,
        "extra_state_margin_bound": report.extra_state_margin_bound,
    }
    return _judged(outputs, (report.psd_margin, report.extra_state_margin_bound))


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

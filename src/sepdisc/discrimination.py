"""State-discrimination cone programs for global and PPT measurement classes,
closed-form values for the resource-assisted Bell families, and scoring of
separable-measurement dual certificates.

The separable optimum itself is never computed (there is no tractable cone
for it); the package brackets it between hand-coded local measurements and
dual certificates, which is the whole method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conesolve
from .certificates import (
    ConeSearchReport,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    block_positivity_search,
)
from .conesolve import ConvergenceError, DualCertificate, SDPProblem, SDPSolution
from .linalg import coords_to_herm, herm_to_coords, partial_transpose, real_map_matrix
from .states import Ensemble

MEASUREMENT_PSD_TOL = 1e-9
MEASUREMENT_SUM_TOL = 1e-8


@dataclass(frozen=True)
class Measurement:
    """POVM: positive operators summing to the identity."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(p, dtype=complex) for p in self.operators)
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for p in ops:
            if np.linalg.eigvalsh((p + p.conj().T) / 2.0).min() < -MEASUREMENT_PSD_TOL:
                raise ValueError("measurement operators must be positive semidefinite")
            total += p
        if np.abs(total - np.eye(d)).max() > MEASUREMENT_SUM_TOL:
            raise ValueError("measurement operators must sum to the identity")
        object.__setattr__(self, "operators", ops)


@dataclass
class DiscriminationResult:
    value: float
    measurement: Measurement
    certificate: DualCertificate
    gap: float
    solution: SDPSolution
    # For the PPT class: per-state decomposition (S_k, S'_k), both PSD, with
    # H - p_k rho_k = S_k + T_X(S'_k), read off the solver dual slacks.
    certificate_parts: list[tuple[np.ndarray, np.ndarray]] | None = None


def measurement_value(e: Ensemble, m: Measurement) -> float:
    """Success probability sum_k p_k <rho_k, P_k> of a given measurement."""
    return float(
        sum(
            p * np.sum(rho.conj() * op).real
            for p, rho, op in zip(e.probs, e.states, m.operators)
        )
    )


def _identity_rows(d: int, n_blocks: int, block_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows encoding P_1 + ... + P_N = identity against the Hermitian basis."""
    dd = d * d
    rows = np.zeros((dd, n_blocks * block_cols))
    for k in range(n_blocks):
        rows[:, k * block_cols : k * block_cols + dd] = np.eye(dd)
    rhs = herm_to_coords(np.eye(d, dtype=complex))
    return rows, rhs


def _global_problem(e: Ensemble) -> SDPProblem:
    n = len(e)
    d = e.space.total_dim
    dd = d * d
    rows, rhs = _identity_rows(d, n, dd)
    eye = np.eye(d, dtype=complex)
    c = 2.0 + float(np.max(e.probs))
    return SDPProblem(
        block_dims=(d,) * n,
        objective=tuple(p * rho for p, rho in zip(e.probs, e.states)),
        rows=rows,
        rhs=rhs,
        primal_start=tuple(eye / n for _ in range(n)),
        dual_start=herm_to_coords(c * eye),
    )


def _ppt_problem(e: Ensemble) -> SDPProblem:
    n = len(e)
    d = e.space.total_dim
    dd = d * d
    dx, dy = e.space.dim_x, e.space.dim_y
    pt_real = real_map_matrix(lambda b: partial_transpose(b, dx, dy), d)

    n_cols = 2 * n * dd
    id_rows, id_rhs = _identity_rows(d, n, dd)
    id_rows = np.hstack([id_rows, np.zeros((dd, n * dd))])
    link_rows = np.zeros((n * dd, n_cols))
    for k in range(n):
        block = link_rows[k * dd : (k + 1) * dd]
        block[:, k * dd : (k + 1) * dd] = pt_real.T  # coords of T_X(basis_r) in P_k
        block[:, (n + k) * dd : (n + k + 1) * dd] = -np.eye(dd)
    rows = np.vstack([id_rows, link_rows])
    rhs = np.concatenate([id_rhs, np.zeros(n * dd)])

    eye = np.eye(d, dtype=complex)
    objective = tuple(p * rho for p, rho in zip(e.probs, e.states)) + tuple(
        np.zeros((d, d), dtype=complex) for _ in range(n)
    )
    c = 3.0 + float(np.max(e.probs))
    dual_start = herm_to_coords(np.stack([c * eye] + [-eye] * n)).reshape(-1)
    return SDPProblem(
        block_dims=(d,) * (2 * n),
        objective=objective,
        rows=rows,
        rhs=rhs,
        primal_start=tuple(eye / n for _ in range(2 * n)),
        dual_start=dual_start,
    )


def _solve(e: Ensemble, problem: SDPProblem, label: str, cone_tag: str) -> DiscriminationResult:
    """Solve a program whose first len(e) X blocks are the measurement and whose
    first d^2 multipliers are H. A solve that is not optimal, or whose blocks
    fail the Measurement checks, raises ConvergenceError carrying the solution."""
    sol = conesolve.solve_sdp(problem)
    if sol.status != conesolve.STATUS_OPTIMAL:
        raise ConvergenceError(f"{label} solve ended with status {sol.status}", sol)
    try:
        measurement = Measurement(tuple(sol.x_blocks[: len(e)]))
    except ValueError as exc:
        raise ConvergenceError(f"{label} solve was accepted, but {exc}", sol) from exc
    d = e.space.total_dim
    return DiscriminationResult(
        value=sol.primal_value,
        measurement=measurement,
        certificate=DualCertificate(coords_to_herm(sol.y[: d * d], d), cone_tag),
        gap=sol.gap,
        solution=sol,
    )


def optimal_global(e: Ensemble) -> DiscriminationResult:
    """Optimal discrimination value over unrestricted (global) measurements.

    The dual certificate H satisfies H - p_k rho_k >= 0 for every k, hence is
    also feasible for the PPT and separable dual cones.
    """
    return _solve(e, _global_problem(e), "global discrimination", "psd-dual")


def optimal_ppt(e: Ensemble) -> DiscriminationResult:
    """Optimal discrimination value over PPT measurements.

    Encoded with explicit slack blocks Q_k = T_X(P_k), Q_k >= 0, linked by
    Hermitian-basis equality rows, so the solver cone stays PSD-block
    diagonal. The dual certificate H comes with the decomposition
    H - p_k rho_k = S_k + T_X(S'_k) with S_k, S'_k PSD from the dual slacks.
    """
    res = _solve(e, _ppt_problem(e), "ppt discrimination", "ppt-dual")
    z, n = res.solution.z_blocks, len(e)
    res.certificate_parts = [(z[k], z[n + k]) for k in range(n)]
    return res


def three_bell_value(epsilon: float) -> float:
    """Optimal separable (and LOCC) success probability for three uniform
    Bell states with resource tau(eps): (2 + sqrt(1 - eps^2)) / 3."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return (2.0 + math.sqrt(1.0 - epsilon * epsilon)) / 3.0


def four_bell_value(epsilon: float) -> float:
    """Optimal PPT/separable/LOCC success probability for four uniform Bell
    states with resource tau(eps): (1 + sqrt(1 - eps^2)) / 2."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return (1.0 + math.sqrt(1.0 - epsilon * epsilon)) / 2.0


@dataclass
class SepBoundReport:
    """Certificate score: the bound Tr(H) plus, per state, the see-saw search
    outcome on H - p_k rho_k. Unrefuted iff no search found an overlap below
    the refutation tolerance."""

    bound: float
    reports: list[ConeSearchReport]
    unrefuted: bool


def sep_bound_from_certificate(
    e: Ensemble,
    cert: DualCertificate,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> SepBoundReport:
    """Score a separable-measurement dual certificate against an ensemble."""
    h = e.space.check_operator(cert.matrix)
    reports = []
    for p, rho in zip(e.probs, e.states):
        reports.append(block_positivity_search(h - p * rho, e.space, restarts, seed))
    unrefuted = all(not r.refuted for r in reports)
    return SepBoundReport(bound=cert.claimed_value, reports=reports, unrefuted=unrefuted)


# ---------------------------------------------------------------------------
# Hand-coded LOCC baselines (the achievable side of each bracket)
# ---------------------------------------------------------------------------


def ydy_local_measurement() -> Measurement:
    """Standard-basis local measurement for the Yu-Duan-Ying ensemble.

    Both parties measure in the computational basis; matching outcomes vote
    for the first state, mirrored outcomes for the second, the four
    one-bit-flip pairs for the fourth. Succeeds with probability exactly 3/4
    (it can never identify the third state).
    """
    def diag_proj(pairs):
        p = np.zeros((16, 16), dtype=complex)
        for a, b in pairs:
            p[4 * a + b, 4 * a + b] = 1.0
        return p

    p1 = diag_proj([(j, j) for j in range(4)])
    p2 = diag_proj([(j, 3 - j) for j in range(4)])
    p4 = diag_proj([(0, 1), (1, 0), (2, 3), (3, 2)])
    p3 = np.eye(16, dtype=complex) - p1 - p2 - p4
    return Measurement((p1, p2, p3, p4))


def bell_compare_measurement(n_states: int) -> Measurement:
    """Measure-and-compare protocol for n_states uniform Bell states (3 or 4):
    both parties measure the standard basis, answer the first state when the
    bits agree and the third when they disagree. Succeeds with probability
    exactly 2/3 (three states) or 1/2 (four)."""
    if n_states not in (3, 4):
        raise ValueError("the compare baseline covers 3 or 4 Bell states")
    agree = np.zeros((4, 4), dtype=complex)
    agree[0, 0] = agree[3, 3] = 1.0
    disagree = np.eye(4, dtype=complex) - agree
    zero = np.zeros((4, 4), dtype=complex)
    ops = (agree, zero, disagree) if n_states == 3 else (agree, zero, disagree, zero)
    return Measurement(ops)

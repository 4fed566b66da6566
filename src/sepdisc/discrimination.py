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
from .linalg import coords_to_herm, herm_to_coords, kron, partial_transpose
from .states import Ensemble

MEASUREMENT_PSD_TOL = 1e-9
MEASUREMENT_SUM_TOL = 1e-8
# Eigenvalue gap, relative to the largest, that separates symmetry blocks, and
# the tolerance of each block's check as a joint eigenspace.
BLOCK_TOL = 1e-8


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


def _symmetry_blocks(generators: list[np.ndarray], d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal bases V_i (d x n_i, sorted by size) of the joint eigenspaces
    of commuting unitaries, whose commutant is the sum_i V_i B_i V_i^dagger:
    the eigenspaces of a fixed generic Hermitian combination, checked. A real
    combination gets real bases, which keep a real ensemble's program real.
    One block is returned as the identity: the program over full matrices."""
    eye = np.eye(d, dtype=complex)
    if not generators:
        return (eye,)
    coef = np.random.default_rng(0).standard_normal((len(generators), 2))
    h = sum(a * (g + g.conj().T) + 1j * b * (g - g.conj().T) for (a, b), g in zip(coef, generators))
    lam, vecs = np.linalg.eigh(h if h.imag.any() else h.real)
    cuts = np.flatnonzero(np.diff(lam) > BLOCK_TOL * (1.0 + np.abs(lam).max())) + 1
    blocks = np.split(vecs, cuts, axis=1)
    for v, g in ((v, g) for v in blocks for g in generators):
        gv = g @ v
        if np.abs(gv - np.vdot(v[:, 0], gv[:, 0]) * v).max() > BLOCK_TOL:
            raise ValueError("the symmetry's joint eigenspaces were not separated")
    if len(blocks) == 1:
        return (eye,)
    return tuple(sorted((_pivoted_basis(v) for v in blocks), key=lambda v: v.shape[1]))


def _pivoted_basis(v: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the column space of v that Gram-Schmidt makes
    of the columns of v (v[piv])^-1, piv the first linearly independent rows
    of v: a function of the space, not of the rotation eigh picks within a
    repeated eigenvalue. The end of a PPT solve can turn on that rotation:
    with eigh's bases, bell4 x tau(0.8) broke weak duality on two threads."""
    piv: list[int] = []
    for r in range(v.shape[0]):
        if len(piv) < v.shape[1] and np.linalg.matrix_rank(v[piv + [r]], BLOCK_TOL) > len(piv):
            piv.append(r)
    cols: list[np.ndarray] = []
    for c in (v @ np.linalg.inv(v[piv])).T:
        for q in cols:
            c = c - q * np.vdot(q, c)
        cols.append(c / np.linalg.norm(c))
    return np.stack(cols, axis=1)


def _compress(bases, a: np.ndarray) -> list[np.ndarray]:
    """The blocks V_i^dagger A V_i of an operator, or of a stack of them."""
    return [v.conj().T @ a @ v for v in bases]


def _lift(bases, blocks) -> np.ndarray:
    """The operator sum_i V_i B_i V_i^dagger with the given blocks."""
    return sum(v @ b @ v.conj().T for v, b in zip(bases, blocks))


def _bases(e: Ensemble, ppt: bool):
    """Block bases (V, W): V for each P_k from the group G of U_X (x) U_Y, and
    for the PPT class W for each T_X(P_k) from G' = {conj(U_X) (x) U_Y}, since
    T_X turns conjugation by U_X (x) U_Y into conjugation by conj(U_X) (x) U_Y.
    W is None for the global class."""
    d = e.space.total_dim
    v = _symmetry_blocks([kron(ux, uy) for ux, uy in e.symmetry], d)
    if not ppt:
        return v, None
    return v, _symmetry_blocks([kron(ux.conj(), uy) for ux, uy in e.symmetry], d)


def _program(e: Ensemble, v, w=None) -> tuple[SDPProblem, list[list[int]]]:
    """The global (W None) or PPT program over P_k = sum_i V_i X_ki V_i^dagger
    and T_X(P_k) = sum_j W_j Y_kj W_j^dagger, and per operator (P_1..P_n, then
    T_X(P_1)..T_X(P_n)) the positions of its blocks, stably sorted by size.
    Rows: sum_k X_ki = 1 per V-block i (multipliers: H's blocks), then
    W_j^dagger T_X(P_k) W_j = Y_kj. Starts: 1/n in every block, y = c 1 on the
    identity rows and -1 on the links. Trivial bases give the program over
    full matrices bit for bit."""
    n = len(e)
    groups = [v] * n + ([w] * n if w is not None else [])
    order = sorted(
        ((o, i) for o, g in enumerate(groups) for i in range(len(g))),
        key=lambda oi: groups[oi[0]][oi[1]].shape[1],
    )
    dims = [groups[o][i].shape[1] for o, i in order]
    starts = np.cumsum([0] + [m * m for m in dims])
    slots = [[0] * len(g) for g in groups]
    for pos, (o, i) in enumerate(order):
        slots[o][i] = pos
    # Each operator's coordinates, block after block, as program columns.
    cols = [np.concatenate([np.arange(starts[p], starts[p + 1]) for p in s]) for s in slots]

    nv = sum(b.shape[1] ** 2 for b in v)
    nw = 0 if w is None else sum(b.shape[1] ** 2 for b in w)
    rows = np.zeros((nv + n * nw, starts[-1]))
    for k in range(n):
        rows[:nv, cols[k]] = np.eye(nv)
    if w is not None:
        # Basis element C of a W-block against basis element B of V-block i:
        # <W_j C W_j^dagger, T_X(V_i B V_i^dagger)>, the coordinate of B in
        # the V_i-block of T_X(W_j C W_j^dagger).
        dx, dy = e.space.dim_x, e.space.dim_y
        tx = np.stack([
            partial_transpose(b @ c @ b.conj().T, dx, dy)
            for b in w
            for c in coords_to_herm(np.eye(b.shape[1] ** 2), b.shape[1])
        ])
        link = np.concatenate([herm_to_coords(c) for c in _compress(v, tx)], axis=1)
        for k in range(n):
            rows[nv + k * nw : nv + (k + 1) * nw, cols[k]] = link
            rows[nv + k * nw : nv + (k + 1) * nw, cols[n + k]] = -np.eye(nw)
    eyes = [np.eye(b.shape[1], dtype=complex) for b in v]
    rhs = np.zeros(rows.shape[0])
    rhs[:nv] = np.concatenate([herm_to_coords(eye) for eye in eyes])

    blocks = [_compress(v, p * rho) for p, rho in zip(e.probs, e.states)]
    c = (2.0 if w is None else 3.0) + float(np.max(e.probs))
    dual_start = [herm_to_coords(c * eye) for eye in eyes]
    if w is not None:
        blocks += [[np.zeros((b.shape[1],) * 2, dtype=complex) for b in w]] * n
        dual_start += [herm_to_coords(-np.eye(b.shape[1], dtype=complex)) for b in w] * n
    problem = SDPProblem(
        block_dims=tuple(dims),
        objective=tuple(blocks[o][i] for o, i in order),
        rows=rows,
        rhs=rhs,
        primal_start=tuple(np.eye(m, dtype=complex) / n for m in dims),
        dual_start=np.concatenate(dual_start),
    )
    return problem, slots


def _solve(e: Ensemble, ppt: bool) -> DiscriminationResult:
    """Solve the program in the ensemble's symmetry blocks and lift the
    measurement, H and, for the PPT class, the parts (S_k, S'_k) back to full
    matrices. A solve that is not optimal, or whose lifted operators fail the
    Measurement checks, raises ConvergenceError carrying the solution."""
    label = "ppt discrimination" if ppt else "global discrimination"
    v, w = _bases(e, ppt)
    problem, slots = _program(e, v, w)
    sol = conesolve.solve_sdp(problem)
    if sol.status != conesolve.STATUS_OPTIMAL:
        raise ConvergenceError(f"{label} solve ended with status {sol.status}", sol)
    n = len(e)

    def lifted(blocks, bases, first: int) -> list[np.ndarray]:
        return [_lift(bases, [blocks[p] for p in slots[o]]) for o in range(first, first + n)]

    try:
        measurement = Measurement(tuple(lifted(sol.x_blocks, v, 0)))
    except ValueError as exc:
        raise ConvergenceError(f"{label} solve was accepted, but {exc}", sol) from exc
    sizes = [b.shape[1] for b in v]
    h_coords = np.split(sol.y[: sum(m * m for m in sizes)], np.cumsum([m * m for m in sizes])[:-1])
    h = _lift(v, [coords_to_herm(c, m) for c, m in zip(h_coords, sizes)])
    return DiscriminationResult(
        value=sol.primal_value,
        measurement=measurement,
        certificate=DualCertificate(h, "ppt-dual" if ppt else "psd-dual"),
        gap=sol.gap,
        solution=sol,
        certificate_parts=(
            list(zip(lifted(sol.z_blocks, v, 0), lifted(sol.z_blocks, w, n))) if ppt else None
        ),
    )


def optimal_global(e: Ensemble) -> DiscriminationResult:
    """Optimal discrimination value over unrestricted (global) measurements.

    The dual certificate H satisfies H - p_k rho_k >= 0 for every k, hence is
    also feasible for the PPT and separable dual cones. With a symmetry the
    program is solved in the blocks of its commutant, which holds an optimum
    (average one over the group); ``result.solution`` is that solve.
    """
    return _solve(e, ppt=False)


def optimal_ppt(e: Ensemble) -> DiscriminationResult:
    """Optimal discrimination value over PPT measurements.

    Encoded with explicit slack blocks Q_k = T_X(P_k), Q_k >= 0, linked by
    Hermitian-basis equality rows, so the solver cone stays PSD-block
    diagonal. The dual certificate H comes with the decomposition
    H - p_k rho_k = S_k + T_X(S'_k) with S_k, S'_k PSD from the dual slacks.
    With a symmetry, P_k and Q_k are solved in the blocks of the commutants of
    G and G' (see _bases), and lifted; ``result.solution`` is that solve.
    """
    return _solve(e, ppt=True)


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

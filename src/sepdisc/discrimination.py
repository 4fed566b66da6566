"""State-discrimination cone programs for global and PPT measurement classes,
closed-form values for the resource-assisted Bell families, and best-guess
local measurements.

The separable optimum itself is never computed (there is no tractable cone
for it); the package brackets it between local protocols (a best-guess
measurement in two local bases) and dual certificates, which is the whole
method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conesolve
from .conesolve import ConvergenceError, DualCertificate, SDPProblem, SDPSolution
from .linalg import coords_to_herm, herm_to_coords, hermitian_basis_matrix, partial_transpose
from .states import Ensemble

MEASUREMENT_PSD_TOL = 1e-9
MEASUREMENT_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
class DiscriminationResult:
    value: float
    measurement: Measurement
    certificate: DualCertificate
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


def local_guess_measurement(e: Ensemble, basis_x: np.ndarray, basis_y: np.ndarray) -> Measurement:
    """Each party measures its side in a basis (the columns of a unitary), and
    outcome pair (a, b) guesses the first k maximizing p_k <a b| rho_k |a b>:
    a product measurement plus classical post-processing, hence LOCC."""
    v = np.kron(basis_x, basis_y)
    scores = [p * np.einsum("ia,ij,ja->a", v.conj(), rho, v).real
              for p, rho in zip(e.probs, e.states)]
    guess = np.argmax(scores, axis=0)
    return Measurement(tuple(v[:, guess == k] @ v[:, guess == k].conj().T for k in range(len(e))))


def _compress(bases, a: np.ndarray) -> list[np.ndarray]:
    """The blocks V_i^dagger A V_i of an operator, or of a stack of them."""
    return [v.conj().T @ a @ v for v in bases]


def _lift(bases, blocks) -> np.ndarray:
    """The operator sum_i V_i B_i V_i^dagger with the given blocks."""
    return sum(v @ b @ v.conj().T for v, b in zip(bases, blocks))


def _program(e: Ensemble, ppt: bool) -> tuple[SDPProblem, list[list[int]]]:
    """The global or PPT program over P_k = sum_i V_i X_ki V_i^dagger and
    T_X(P_k) = sum_j W_j Y_kj W_j^dagger, and per operator (P_1..P_n, then
    T_X(P_1)..T_X(P_n)) the positions of its blocks, stably sorted by size.
    Rows: sum_k X_ki = 1 per V-block i (multipliers: H's blocks), then
    W_j^dagger T_X(P_k) W_j = Y_kj. Starts: 1/n in every block, y = c 1 on the
    identity rows and -1 on the links. V and W are e.block_bases and
    e.pt_block_bases; trivial ones give the program over full matrices bit for bit."""
    n = len(e)
    v, w = e.block_bases, e.pt_block_bases if ppt else None
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
            for c in hermitian_basis_matrix(b.shape[1]).T.reshape(-1, b.shape[1], b.shape[1])
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
    v, w = e.block_bases, e.pt_block_bases if ppt else None
    problem, slots = _program(e, ppt)
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
    With a symmetry, P_k and Q_k are solved in the ensemble's blocks
    (block_bases, pt_block_bases) and lifted; ``result.solution`` is that solve.
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

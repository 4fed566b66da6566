"""Dense primal-dual interior-point solver for block-diagonal semidefinite
programs, plus an LP feasibility front end with Farkas certificates.

The program form is

    maximize    <A, X>                 minimize    <b, y>
    subject to  <Phi_i, X> = b_i       subject to  Z = sum_i y_i Phi_i - A
                X >= 0 (per block)                 Z >= 0 (per block)

with all operators Hermitian and block diagonal. Constraints are carried as
real coordinate rows in the fixed orthonormal Hermitian basis, which makes
the whole problem a real optimization problem without a doubled real
embedding. The rows must be linearly independent, as they are by
construction in every PPT and global discrimination program; the solver
does not reduce them. The LP front end is the one caller with dependent
rows, and it drops them itself with one rank-revealing QR.

Every iteration takes a Mehrotra predictor-corrector step on the HKM
direction of primal-dual path following (Mehrotra, SIAM J. Optim. 2, 1992).
Both the predictor and the corrector solve the same Schur system with
``np.linalg.solve``. When the problem carries strictly feasible primal/dual
starting points (every program built by this package does), the iterates
stay feasible up to roundoff that accumulates over the iterations. Near the
optimum that roundoff is held down in two ways: a step whose primal defect
|C dX - r_p| exceeds ``REFINE_TOL`` gets one step of iterative refinement
(a third solve), and once mu and the gap meet ``DEFAULT_*`` the centring
parameter is 1, so mu is not driven further toward 0 while only
feasibility is missing. A solve stops once it meets the ``DEFAULT_*``
tolerances, or once it has stalled: its iterate meets the looser
``ACCEPT_*`` tolerances and, over the last ``STALL_WINDOW`` iterations,
neither |gap| nor the primal residual has halved. A stalled solve, or one that stops for another reason at an
iterate within ``ACCEPT_*``, is reported optimal.

The Schur complement M = sum_b C_b W_b C_b^T is assembled sparsely, in the
manner of Fujisawa, Kojima and Nakata (Math. Prog. 79, 1997). The Hermitian
basis matrix T has at most two nonzeros per column, so each block's
W_b = Re T^H (X_b kron Z_b^-T) T is formed by gathers in O(d^4), not by dense
products in O(d^6). The rows C_b touching a block are stored once per solve
as padded (column, value) pairs with their flat destinations in M, and each
iteration adds the gathered entries there. A block that no row touches is
skipped.

Assembly allocates nothing per iteration. Each solve makes one flat m x m
buffer for M, zeroed at every iteration, and a workspace of temporaries per
block dimension and per term shape, shared by every block of that size. M is
stored column-major, and ``np.linalg.solve`` gets the F-contiguous view. Both
choices save time without changing a floating-point operation, so the
iterates are the same to the bit: on a 2-vCPU host a 16-dimensional block
term took 3.1 ms with fresh temporaries, which glibc handed back to the OS
and faulted in again at every call, and 1.3 ms in the workspace; and
``np.linalg.solve`` at m = 1280 took 43.7 ms on a C-ordered M, which it
copies with strides first, against 34.9 ms on an F-ordered one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    coords_to_herm,
    herm_to_coords,
    hermitian_basis_support,
    require_hermitian,
)

DEFAULT_GAP_TOL = 5e-10
DEFAULT_FEAS_TOL = 1e-10
ACCEPT_GAP_TOL = 1e-7
ACCEPT_FEAS_TOL = 1e-8
ROW_DROP_TOL = 1e-10
FARKAS_THRESHOLD = 1e-6
MAX_ITERATIONS = 200
BOUNDARY_FRACTION = 0.98
STALL_WINDOW = 3
# A direction whose defect |C dX - r_p| exceeds REFINE_TOL * (1 + |b|) gets one
# step of iterative refinement: a tenth of the feasibility tolerance.
REFINE_TOL = 0.1 * DEFAULT_FEAS_TOL

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible-detected"
STATUS_MAX_ITERATIONS = "max-iterations"

# Why the iteration ended (SDPSolution.stop_reason); the status is separate:
# a stalled solve, for one, is still optimal under ACCEPT_*.
STOP_CONVERGED = "converged"
STOP_STALLED = "stalled"
STOP_MAX_ITERATIONS = "max-iterations"
STOP_STEP_COLLAPSE = "step-collapse"
STOP_INFEASIBLE = "infeasible"
STOP_FACTORIZATION_FAILED = "factorization-failed"


class IllPosedProblemError(ValueError):
    """The constraint rows are linearly dependent."""


class ConvergenceError(RuntimeError):
    """The solver stopped without reaching the requested tolerances."""

    def __init__(self, message: str, solution: "SDPSolution | None" = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class IterateRecord:
    """One iterate. ``mu`` is <X, Z> / sum of block dims; ``sigma``,
    ``alpha_primal`` and ``alpha_dual`` describe the step that produced the
    iterate (0 at iterate 0, which no step produced)."""

    index: int
    primal: float
    dual: float
    gap: float
    primal_residual: float
    dual_residual: float
    mu: float
    sigma: float
    alpha_primal: float
    alpha_dual: float


_LOG_COLUMNS = (
    "primal", "dual", "gap", "primal_residual", "dual_residual",
    "mu", "sigma", "alpha_primal", "alpha_dual",
)


def format_iterate_log(records: list[IterateRecord]) -> str:
    """Tab-separated log, one line per iteration."""
    lines = ["\t".join(("iter",) + _LOG_COLUMNS)]
    for r in records:
        lines.append("\t".join([str(r.index)] + [repr(getattr(r, c)) for c in _LOG_COLUMNS]))
    return "\n".join(lines) + "\n"


def weak_duality_ok(records: list[IterateRecord], slack: float = 10.0) -> tuple[bool, float]:
    """Check primal <= dual + slack * eps * scale on every logged iterate.

    Returns (ok, worst margin); the margin is primal - dual - tolerance, so
    any positive value is a violation.
    """
    eps = float(np.finfo(float).eps)
    worst = -math.inf
    for r in records:
        tol = slack * eps * (1.0 + abs(r.primal) + abs(r.dual))
        worst = max(worst, r.primal - r.dual - tol)
    return worst <= 0.0, worst


@dataclass(frozen=True)
class DualCertificate:
    """Dual feasible operator H; Tr(H) upper-bounds the success probability
    for the measurement class named by ``cone_tag``."""

    matrix: np.ndarray
    cone_tag: str  # "sep-dual", "ppt-dual" or "psd-dual"
    claimed_value: float = field(default=math.nan)

    def __post_init__(self) -> None:
        h = require_hermitian(self.matrix)
        object.__setattr__(self, "matrix", h)
        object.__setattr__(self, "claimed_value", float(np.trace(h).real))


@dataclass(frozen=True)
class SDPProblem:
    """Block-diagonal SDP data.

    ``rows`` holds the constraint operators as real Hermitian-basis
    coordinates, one row per scalar equality; block coordinates are laid out
    consecutively (d_b^2 reals per block). The rows must be linearly
    independent: :func:`solve_sdp` does not reduce them. ``primal_start`` /
    ``dual_start`` are optional strictly feasible starting points; they are
    verified before use and ignored if invalid.
    """

    block_dims: tuple[int, ...]
    objective: tuple[np.ndarray, ...]
    rows: np.ndarray
    rhs: np.ndarray
    primal_start: tuple[np.ndarray, ...] | None = None
    dual_start: np.ndarray | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.block_dims)
        obj = tuple(require_hermitian(a) for a in self.objective)
        if len(obj) != len(dims) or any(a.shape[0] != d for a, d in zip(obj, dims)):
            raise ValueError("objective blocks must match block_dims")
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        n = sum(d * d for d in dims)
        if rows.ndim != 2 or rows.shape[1] != n or rows.shape[0] != rhs.size:
            raise ValueError("rows must be (m, sum of block dim^2) with matching rhs")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    def block_slices(self) -> list[slice]:
        out, ofs = [], 0
        for d in self.block_dims:
            out.append(slice(ofs, ofs + d * d))
            ofs += d * d
        return out


@dataclass
class SDPSolution:
    x_blocks: list[np.ndarray]
    y: np.ndarray
    z_blocks: list[np.ndarray]
    primal_value: float
    dual_value: float
    gap: float
    status: str
    iterations: int
    log: list[IterateRecord]
    # Every row: solve_sdp drops none. Kept because perfbench/spans.py reads it.
    kept_rows: np.ndarray
    stop_reason: str


# ---------------------------------------------------------------------------
# Solver core
# ---------------------------------------------------------------------------


def _coords_of_blocks(blocks) -> np.ndarray:
    return np.concatenate([herm_to_coords(b) for b in blocks])


def _blocks_from_coords(c, dims, slices) -> list[np.ndarray]:
    return [coords_to_herm(c[sl], d) for d, sl in zip(dims, slices)]


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _hs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a.conj() * b).real)


def _chol_or_none(a: np.ndarray):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _schur_work(d: int) -> tuple:
    """Index data and buffers of :func:`_schur_block` for d-dimensional
    blocks. The three complex d^2 x d^2 buffers take 1 MB each at d = 16."""
    i1, i2, v1, v2 = hermitian_basis_support(d)
    n = d * d
    # (c, e, v) per nonzero of T's columns: row i of T is entry (c, e) of E.
    cols = tuple((*np.divmod(i, d), v) for i, v in ((i1, v1), (i2, v2)))
    rows = ((i1, v1.conj()[:, None]), (i2, v2.conj()[:, None]))
    vecs = tuple(np.empty((d, n), dtype=complex) for _ in range(2))
    mats = tuple(np.empty((n, n), dtype=complex) for _ in range(3))
    return cols, rows, vecs, mats, np.empty((n, n))


def _schur_block(xb: np.ndarray, zinv: np.ndarray, work: dict) -> np.ndarray:
    """W = Re T^H (X kron Z^-T) T, the real-basis matrix of E -> X E Z^-1.

    T = hermitian_basis_matrix(d) has at most two nonzeros per column, so
    only the columns i1, i2 of X kron Z^-T are formed (by broadcasting), and
    the product with T^H is a gather of two rows:

        kt = 0.0 + X[:, c1] kron (Z^-T[:, e1] v1) + X[:, c2] kron (Z^-T[:, e2] v2)
        w = (conj(v1) kt[i1] + conj(v2) kt[i2]).real,   W = (w + w^T) / 2

    Every temporary and the result live in ``work[d]``, made on first use and
    shared by every block of dimension d. The result is a view that the
    caller consumes before the next call for that d. The operations and their
    order are those of the formula, signed zeros included, so W does not
    depend on the buffering to the bit. ``np.take`` runs with mode="clip"
    (the indices are in range) because its default mode copies ``out``.
    """
    d = xb.shape[0]
    if d not in work:
        work[d] = _schur_work(d)
    cols, rows, (xc, ze), (kt, prod, g), w = work[d]
    zt = zinv.T
    for (c, e, v), out in zip(cols, (kt, prod)):
        # Column (c, e) of X kron Z^-T is X[:, c] kron Z^-T[:, e].
        np.take(xb, c, axis=1, out=xc, mode="clip")
        np.take(zt, e, axis=1, out=ze, mode="clip")
        np.multiply(ze, v, out=ze)
        np.multiply(xc[:, None], ze[None], out=out.reshape(d, d, d * d))
    kt += 0.0  # the formula's 0.0 + ...: turns -0.0 into +0.0
    kt += prod
    for (i, vc), out in zip(rows, (g, prod)):
        np.take(kt, i, axis=0, out=out, mode="clip")
        np.multiply(vc, out, out=out)
    g += prod
    np.add(g.real, g.real.T, out=w)
    w /= 2.0
    return w


def _block_gathers(c_rows: np.ndarray, slices) -> list:
    """Per block, the rows that touch it as padded (column, value) arrays of
    shape (t, k), k the most nonzeros of a row in the block, plus the flat
    indices of their t x t pairs in the Schur matrix; None for a block that
    no row touches. The flat indices are those of the transposed t x t term
    in the column-major M = m_flat.reshape(m, m).T: entry (l, i) goes to
    m_flat[tb[l] * m + tb[i]], which is M[tb[i], tb[l]].
    """
    m = c_rows.shape[0]
    idx_type = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    out = []
    for sl in slices:
        nz = c_rows[:, sl] != 0.0
        counts = nz.sum(axis=1)
        tb = np.flatnonzero(counts)
        if tb.size == 0:
            out.append(None)
            continue
        r_loc, c_loc = np.nonzero(nz[tb])
        counts = counts[tb]
        # np.nonzero walks row by row, so this is each entry's slot in its row.
        pos = np.arange(r_loc.size) - (np.cumsum(counts) - counts)[r_loc]
        col = np.zeros((tb.size, int(counts.max())), dtype=np.intp)
        val = np.zeros(col.shape)
        col[r_loc, pos] = c_loc
        val[r_loc, pos] = c_rows[tb[r_loc], sl.start + c_loc]
        tb = tb.astype(idx_type)
        out.append((col, val, (tb[:, None] * m + tb[None, :]).reshape(-1)))
    return out


def _add_schur_term(m_flat, w, col, val, dest, work: dict) -> None:
    """Adds C_b W C_b^T, for the block's touched rows C_b, into the Schur
    matrix M = m_flat.reshape(m, m).T, which is stored column-major.

    W is symmetric to the bit, so the transposes (C_b W)^T and
    (C_b W C_b^T)^T come from column and row gathers that make the same
    products and sums, in the same order, as the untransposed ones, and the
    scatter of the transposed term walks m_flat forward. Both live in
    ``work[(n, t)]``, shared by every block with n coordinates and t touched
    rows.
    """
    n, t = w.shape[0], col.shape[0]
    if (n, t) not in work:
        work[n, t] = (np.empty((n, t)), np.empty((t, t)))
    cw_t, term_t = work[n, t]
    np.take(w, col[:, 0], axis=1, out=cw_t, mode="clip")
    np.multiply(val[:, 0], cw_t, out=cw_t)
    for p in range(1, col.shape[1]):
        cw_t += val[:, p] * w.take(col[:, p], axis=1)
    np.take(cw_t, col[:, 0], axis=0, out=term_t, mode="clip")
    np.multiply(val[:, 0, None], term_t, out=term_t)
    for p in range(1, col.shape[1]):
        term_t += val[:, p, None] * cw_t[col[:, p]]
    # dest has no repeats, so this equals m_flat[dest] += term_t, only faster.
    np.add.at(m_flat, dest, term_t.reshape(-1))


def _max_step(blocks, dblocks) -> float:
    """BOUNDARY_FRACTION times the distance to the PSD boundary along the
    direction, capped at 1. Uses the Cholesky factors of the current blocks."""
    alpha = 1.0
    for s, ds in zip(blocks, dblocks):
        ell = _chol_or_none(s)
        if ell is None:
            return 0.0
        w = np.linalg.solve(ell, ds)
        t = np.linalg.solve(ell, w.conj().T).conj().T
        lam = float(np.linalg.eigvalsh(_sym(t))[0])
        if lam < 0.0:
            alpha = min(alpha, -BOUNDARY_FRACTION / lam)
    return alpha


def _verify_primal_start(problem, c_rows, b) -> tuple[list[np.ndarray], bool]:
    if problem.primal_start is None:
        return [], False
    try:
        blocks = [require_hermitian(x) for x in problem.primal_start]
    except ValueError:
        return [], False
    if len(blocks) != len(problem.block_dims):
        return [], False
    if any(_chol_or_none(x) is None for x in blocks):
        return [], False
    coords = _coords_of_blocks(blocks)
    resid = np.linalg.norm(c_rows @ coords - b)
    if resid > 1e-10 * (1.0 + np.linalg.norm(b)):
        return [], False
    return blocks, True


def _verify_dual_start(problem, c_rows, slices) -> tuple[np.ndarray, list[np.ndarray], bool]:
    if problem.dual_start is None:
        return np.zeros(0), [], False
    y = np.array(problem.dual_start, dtype=float)
    if y.size != c_rows.shape[0]:
        return np.zeros(0), [], False
    slack = c_rows.T @ y - _coords_of_blocks(problem.objective)
    z = _blocks_from_coords(slack, problem.block_dims, slices)
    if any(_chol_or_none(zb) is None for zb in z):
        return np.zeros(0), [], False
    return y, z, True


def _acceptable(record: IterateRecord, b_scale: float, a_scale: float) -> bool:
    """The published solution tolerances ``ACCEPT_*``, looser than ``DEFAULT_*``."""
    return (
        abs(record.gap) <= ACCEPT_GAP_TOL * (1.0 + abs(record.dual))
        and record.primal_residual <= ACCEPT_FEAS_TOL * b_scale
        and record.dual_residual <= ACCEPT_FEAS_TOL * a_scale
    )


def _stalled(records: list[IterateRecord]) -> bool:
    """Over the last STALL_WINDOW iterations neither |gap| nor the primal
    residual has halved."""
    if len(records) <= STALL_WINDOW:
        return False
    now, then = records[-1], records[-1 - STALL_WINDOW]
    return (
        abs(now.gap) > 0.5 * abs(then.gap)
        and now.primal_residual > 0.5 * then.primal_residual
    )


def solve_sdp(problem: SDPProblem) -> SDPSolution:
    """Solve a block-diagonal SDP by Mehrotra predictor-corrector path
    following on the HKM direction.

    Each iteration solves the Schur system twice: once for the affine
    (sigma = 0) predictor, whose step lengths set sigma = (mu_aff / mu)^3,
    and once for the centred direction with the second-order correction.
    Sigma is 1 once mu and the gap meet ``DEFAULT_*``. A third solve refines
    dy when the direction's primal defect exceeds ``REFINE_TOL``.

    The rows must be linearly independent. At the first iterate X and Z^-1
    are positive definite, so the Schur matrix is singular there exactly
    when the rows are dependent, and that raises IllPosedProblemError. A
    nearly dependent row set that still factors shows up in the primal
    residual, which is measured over every row, and so in ``status``.

    Deterministic: identical inputs produce identical iterate logs.
    Non-convergence is reported through ``status`` rather than an
    exception, and ``stop_reason`` says why the iteration ended.
    """
    dims = problem.block_dims
    slices = problem.block_slices()
    c_rows, b = problem.rows, problem.rhs
    a_blocks = list(problem.objective)
    a_coords = _coords_of_blocks(a_blocks)
    gathers = _block_gathers(c_rows, slices)
    # Reused by every iteration: the Schur matrix, stored column-major so that
    # np.linalg.solve gets the F-contiguous m_mat and need not copy it
    # strided, and the assembly buffers, per block and term size.
    m_flat = np.empty(b.size * b.size)
    m_mat = m_flat.reshape(b.size, b.size).T
    work: dict = {}

    x_blocks, have_primal = _verify_primal_start(problem, c_rows, b)
    y, z_blocks, have_dual = _verify_dual_start(problem, c_rows, slices)
    eta = 1.0 + float(np.linalg.norm(a_coords)) + float(np.abs(b).max(initial=0.0))
    if not have_primal:
        x_blocks = [eta * np.eye(d, dtype=complex) for d in dims]
    if not have_dual:
        y = np.zeros(b.size)
        z_blocks = [eta * np.eye(d, dtype=complex) for d in dims]

    b_scale = 1.0 + float(np.linalg.norm(b))
    a_scale = 1.0 + float(np.linalg.norm(a_coords))
    total_dim = sum(dims)
    records: list[IterateRecord] = []
    status = STATUS_MAX_ITERATIONS
    stop_reason = STOP_MAX_ITERATIONS
    # The step that produced the current iterate; none before the first.
    sig, alpha_p, alpha_d = 0.0, 0.0, 0.0
    it = 0

    for it in range(MAX_ITERATIONS + 1):
        x_coords = _coords_of_blocks(x_blocks)
        rp = b - c_rows @ x_coords
        rd_coords = c_rows.T @ y - a_coords - _coords_of_blocks(z_blocks)
        rd_blocks = _blocks_from_coords(rd_coords, dims, slices)
        pv = sum(_hs(a, x) for a, x in zip(a_blocks, x_blocks))
        dv = float(b @ y)
        mu_total = sum(_hs(x, z) for x, z in zip(x_blocks, z_blocks))
        mu = mu_total / total_dim
        rp_norm = float(np.linalg.norm(rp))
        rd_norm = float(np.linalg.norm(rd_coords))
        records.append(
            IterateRecord(it, pv, dv, pv - dv, rp_norm, rd_norm, mu, sig, alpha_p, alpha_d)
        )

        gap_met = max(mu_total, abs(pv - dv)) <= DEFAULT_GAP_TOL * (1.0 + abs(dv))
        if (
            gap_met
            and rp_norm <= DEFAULT_FEAS_TOL * b_scale
            and rd_norm <= DEFAULT_FEAS_TOL * a_scale
        ):
            status, stop_reason = STATUS_OPTIMAL, STOP_CONVERGED
            break
        if it == MAX_ITERATIONS:
            break
        if _stalled(records) and _acceptable(records[-1], b_scale, a_scale):
            stop_reason = STOP_STALLED
            break
        if float(np.linalg.norm(y)) > 1e12 * eta:
            status, stop_reason = STATUS_INFEASIBLE, STOP_INFEASIBLE
            break

        try:
            zinv_blocks = []
            for zb in z_blocks:
                ell = np.linalg.cholesky(zb)
                linv = np.linalg.solve(ell, np.eye(zb.shape[0], dtype=complex))
                zinv_blocks.append(linv.conj().T @ linv)

            m_flat.fill(0.0)
            for xb, zinv, g in zip(x_blocks, zinv_blocks, gathers):
                if g is not None:
                    _add_schur_term(m_flat, _schur_block(xb, zinv, work), *g, work)

            c_zinv = c_rows @ _coords_of_blocks(zinv_blocks)
            x_rd_zinv = [x @ rd @ zi for x, rd, zi in zip(x_blocks, rd_blocks, zinv_blocks)]

            def solve_m(rhs_vec):
                try:
                    return np.linalg.solve(m_mat, rhs_vec)
                except np.linalg.LinAlgError:
                    if it == 0:
                        raise IllPosedProblemError("dependent constraint rows") from None
                    # Later on, an exactly singular M is roundoff near the
                    # optimum; a ridge of relative size 1e-14 gets past it.
                    ridge = 1e-14 * (1.0 + np.trace(m_mat) / b.size)
                    return np.linalg.solve(m_mat + ridge * np.eye(b.size), rhs_vec)

            def steps(dy, sig_mu: float, corr):
                """dX and dZ of the HKM direction for the given dy."""
                dz_coords = c_rows.T @ dy + rd_coords
                dz = _blocks_from_coords(dz_coords, dims, slices)
                dx = []
                for i, (xb, zinv, dzb) in enumerate(zip(x_blocks, zinv_blocks, dz)):
                    core = sig_mu * zinv - xb - _sym(xb @ dzb @ zinv)
                    if corr is not None:
                        core = core - _sym(corr[i])
                    dx.append(_sym(core))
                return dx, dz

            def newton(sig_mu: float, corr):
                """HKM direction for target sig_mu; corr is the second-order
                term dX_aff dZ_aff Z^-1 per block, or None."""
                terms = x_rd_zinv if corr is None else [t + c for t, c in zip(x_rd_zinv, corr)]
                rhs_vec = sig_mu * c_zinv - b - c_rows @ _coords_of_blocks([_sym(t) for t in terms])
                dy = solve_m(rhs_vec)
                dx, dz = steps(dy, sig_mu, corr)
                return dx, dy, dz

            dx_aff, _, dz_aff = newton(0.0, None)
            ap = _max_step(x_blocks, dx_aff)
            ad = _max_step(z_blocks, dz_aff)
            mu_aff = sum(
                _hs(x + ap * dx, z + ad * dz)
                for x, dx, z, dz in zip(x_blocks, dx_aff, z_blocks, dz_aff)
            )
            # Once mu and the gap meet DEFAULT_*, only feasibility is missing.
            # Aim at the same mu (sigma = 1) then: driving mu further toward 0
            # lets y . r_p outweigh <X, Z>, and the primal value pass the dual.
            if gap_met:
                sig = 1.0
            else:
                sig = min(1.0, max(0.0, (mu_aff / mu_total) ** 3))
            corr = [dx @ dz @ zi for dx, dz, zi in zip(dx_aff, dz_aff, zinv_blocks)]
            dx_blocks, dy, dz_blocks = newton(sig * mu, corr)

            # C dX = r_p holds only up to the Schur solve's residual and the
            # roundoff in M, which near the optimum (|M| ~ 1/mu) would go
            # straight into the next primal residual. One step of iterative
            # refinement against the applied operator removes most of it; it
            # is kept only if it shrinks the defect.
            defect = c_rows @ _coords_of_blocks(dx_blocks) - rp
            defect_norm = float(np.linalg.norm(defect))
            if defect_norm > REFINE_TOL * b_scale:
                dy_ref = dy + solve_m(defect)
                dx_ref, dz_ref = steps(dy_ref, sig * mu, corr)
                if np.linalg.norm(c_rows @ _coords_of_blocks(dx_ref) - rp) < defect_norm:
                    dx_blocks, dy, dz_blocks = dx_ref, dy_ref, dz_ref
        except np.linalg.LinAlgError:
            stop_reason = STOP_FACTORIZATION_FAILED
            break

        alpha_p = _max_step(x_blocks, dx_blocks)
        alpha_d = _max_step(z_blocks, dz_blocks)
        if max(alpha_p, alpha_d) < 1e-10:
            stop_reason = STOP_STEP_COLLAPSE
            break
        x_blocks = [_sym(x + alpha_p * dx) for x, dx in zip(x_blocks, dx_blocks)]
        y = y + alpha_d * dy
        z_blocks = [_sym(z + alpha_d * dz) for z, dz in zip(z_blocks, dz_blocks)]

    last = records[-1]
    if status == STATUS_MAX_ITERATIONS and _acceptable(last, b_scale, a_scale):
        # Accept a numerically stalled point that still meets the published
        # solution tolerances.
        status = STATUS_OPTIMAL

    return SDPSolution(
        x_blocks=[_sym(x) for x in x_blocks],
        y=y,
        z_blocks=[_sym(z) for z in z_blocks],
        primal_value=last.primal,
        dual_value=last.dual,
        gap=last.gap,
        status=status,
        iterations=it,
        log=records,
        kept_rows=np.arange(b.size),
        stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# LP feasibility (diagonal special case) with Farkas certificates
# ---------------------------------------------------------------------------


@dataclass
class LPFeasibilityResult:
    """Exactly one of ``weights`` (nonnegative, sum_i w_i col_i = target) and
    ``farkas`` (Hermitian W with <W, col_i> >= 0 and <W, target> < 0) is set."""

    feasible: bool
    weights: np.ndarray | None
    farkas: np.ndarray | None
    phase1_value: float
    solution: SDPSolution


def independent_rows(rows: np.ndarray, tol: float = ROW_DROP_TOL) -> np.ndarray:
    """Indices of a maximal linearly independent subset of rows, chosen
    greedily in order (Gram-Schmidt semantics: a row is dropped when its
    residual against the earlier kept rows falls below ``tol`` relative to
    the row norm).

    The row reduction of :func:`solve_lp_feasibility`, whose d^2 rows, one
    per Hermitian coordinate, usually outnumber its columns. Works in chunks
    of n rows, n the number of coordinates: the diagonal of an R-only QR
    factor of a chunk supplies the sequential residual norms, and it covers
    at most n rows. Later chunks are first projected off an orthonormal basis
    of the rows kept so far.
    """
    m, n = rows.shape
    block = max(1, n)
    q = np.zeros((0, n))
    kept: list[int] = []
    for start in range(0, m, block):
        chunk = rows[start : start + block]
        if q.shape[0]:
            chunk = chunk - (chunk @ q.T) @ q
            chunk -= (chunk @ q.T) @ q
        resid = np.abs(np.diag(np.linalg.qr(chunk.T, mode="r")))
        scale = np.maximum(1.0, np.linalg.norm(rows[start : start + block], axis=1))
        keep_local = np.flatnonzero(resid >= tol * scale)
        kept.extend(int(start + j) for j in keep_local)
        if keep_local.size and start + block < m:
            q_new, _ = np.linalg.qr(chunk[keep_local].T)
            q = np.vstack([q, q_new.T])
    return np.asarray(kept, dtype=int)


def span_residual(columns: list[np.ndarray], target: np.ndarray) -> float:
    """Frobenius distance from ``target`` to the real span of ``columns``."""
    c = np.stack([herm_to_coords(require_hermitian(col)) for col in columns], axis=1)
    t = herm_to_coords(require_hermitian(target))
    sol, *_ = np.linalg.lstsq(c, t, rcond=None)
    return float(np.linalg.norm(c @ sol - t))


def verify_farkas(columns, target, w, col_tol=1e-10, target_tol=1e-6) -> bool:
    wn = float(np.linalg.norm(w))
    for col in columns:
        if _hs(w, col) < -col_tol * float(np.linalg.norm(col)) * wn:
            return False
    return _hs(w, target) <= -target_tol * wn * float(np.linalg.norm(target))


def solve_lp_feasibility(
    columns: list[np.ndarray],
    target: np.ndarray,
    *,
    farkas_threshold: float = FARKAS_THRESHOLD,
    residual_tol: float = 1e-8,
) -> LPFeasibilityResult:
    """Decide whether ``target`` is a nonnegative combination of ``columns``.

    Solved as a phase-1 problem on the SDP engine with 1x1 blocks: minimize
    the weight t of an artificial column R = target - sum(columns), starting
    from the strictly feasible point (1, ..., 1). A phase-1 optimum above
    ``farkas_threshold`` yields a Farkas witness read from the dual
    multipliers; either certificate is re-verified by direct recomputation.
    """
    if not columns:
        raise ValueError("empty column list")
    cols = [require_hermitian(c) for c in columns]
    tgt = require_hermitian(target)
    d = tgt.shape[0]
    if any(c.shape != (d, d) for c in cols):
        raise ValueError("columns and target must act on the same space")

    ncol = len(cols)
    artificial = tgt - sum(cols)
    col_coords = np.stack([herm_to_coords(c) for c in cols + [artificial]], axis=1)
    rhs = herm_to_coords(tgt)
    # One row per coordinate of the d x d target against ncol + 1 columns:
    # the rows are dependent, and solve_sdp takes only independent ones. The
    # dropped rows are consistent, since the start (1, ..., 1) satisfies all.
    kept = independent_rows(col_coords)
    rows = col_coords[kept]

    objective = [np.zeros((1, 1), dtype=complex) for _ in range(ncol)]
    objective.append(-np.ones((1, 1), dtype=complex))

    # Dual start: slack from Y = c * identity is strictly positive when c is
    # small against the artificial column's trace. It is projected onto the
    # kept rows when some are dropped.
    c0 = 1.0 / (2.0 * (1.0 + abs(float(np.trace(artificial).real))))
    y_start = herm_to_coords(c0 * np.eye(d, dtype=complex))
    if kept.size < rhs.size:
        y_start, *_ = np.linalg.lstsq(rows.T, col_coords.T @ y_start, rcond=None)

    problem = SDPProblem(
        block_dims=(1,) * (ncol + 1),
        objective=tuple(objective),
        rows=rows,
        rhs=rhs[kept],
        primal_start=tuple(np.ones((1, 1), dtype=complex) for _ in range(ncol + 1)),
        dual_start=y_start,
    )
    sol = solve_sdp(problem)
    if sol.status != STATUS_OPTIMAL:
        raise ConvergenceError(f"phase-1 solve ended with status {sol.status}", sol)

    t_star = float(sol.x_blocks[-1][0, 0].real)
    if t_star > farkas_threshold:
        y = np.zeros(rhs.size)
        y[kept] = sol.y
        w = coords_to_herm(y, d)
        w = w / np.linalg.norm(w)
        if not verify_farkas(cols, tgt, w):
            raise ConvergenceError(
                "phase-1 reported infeasibility but the Farkas witness failed "
                "direct verification",
                sol,
            )
        return LPFeasibilityResult(False, None, w, t_star, sol)

    weights = np.array([float(x[0, 0].real) for x in sol.x_blocks[:-1]])
    weights = np.maximum(weights, 0.0)
    fit = sum(wk * ck for wk, ck in zip(weights, cols))
    resid = float(np.linalg.norm(fit - tgt))
    if resid > residual_tol:
        raise ConvergenceError(
            f"phase-1 optimum {t_star:.2e} is ambiguous: weight residual {resid:.2e}",
            sol,
        )
    return LPFeasibilityResult(True, weights, None, t_star, sol)

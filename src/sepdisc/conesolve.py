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
rows, and it drops them itself with one greedy Gram-Schmidt pass.

Every iteration takes a Mehrotra predictor-corrector step on the HKM
direction of primal-dual path following (Mehrotra, SIAM J. Optim. 2, 1992).
Both the predictor and the corrector solve the same Schur system with
``np.linalg.solve``. Every problem must carry strictly feasible primal and
dual starts, as every program built by this package does; the solver
verifies them and raises ValueError naming the defect otherwise. So both
optimal sets are bounded, and the iterates stay feasible up to roundoff
that accumulates over the iterations. Near the optimum that roundoff is
held down in two ways: a step whose primal defect |C dX - r_p| exceeds
``REFINE_TOL`` gets one step of iterative refinement (a third solve), and
once mu and the gap meet ``DEFAULT_*`` the centring parameter is 1, so mu
is not driven further toward 0 while only feasibility is missing. A solve
stops once it meets the ``DEFAULT_*`` tolerances, or once it has stalled:
its iterate meets the looser ``ACCEPT_*`` tolerances and, over the last
``STALL_WINDOW`` iterations, neither |gap| nor the primal residual has
halved. A stalled solve, or one that stops for another reason at an
iterate within ``ACCEPT_*``, is reported optimal.

The Schur complement M = sum_b C_b W_b C_b^T is assembled sparsely, in the
manner of Fujisawa, Kojima and Nakata (Math. Prog. 79, 1997). The Hermitian
basis matrix T has at most two nonzeros per column, so each block's
W_b = Re T^H (X_b kron Z_b^-T) T is formed by gathers in O(d^4), not by dense
products in O(d^6), and added at flat indices of M stored once per solve; a
block that no row touches is skipped. The gathers work on a slice of a
run's consecutive blocks at a time, on a leading stack axis, as many as fit
``SCHUR_SLICE_BYTES`` of temporaries: a whole run of 1- or 2-dimensional
blocks, one 16-dimensional block. M lives in one column-major buffer, the
layout LAPACK works in, and the temporaries in one workspace per slice shape.

Everything else works on stacks too: X, Z, Z^-1, the residuals and the
directions are one (k, d, d) array per run of k consecutive d-dimensional
blocks (every LP program, and every PPT and global program over full
matrices, is one run; one in symmetry blocks, sorted by size, is one run per
block size, two for the Bell families and ydy), and Cholesky, Z^-1, the
coordinate maps, inner products, HKM products and step length are one numpy
gufunc call per run. Each iterate's X and Z are factored once, and Z^-1 and
all four step lengths share those factors. A batched gufunc runs the same
LAPACK or BLAS routine on each matrix, and per-block inner products are
added by the builtin ``sum`` in block order, so the iterates equal those of
a per-block loop to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

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
LP_RESIDUAL_TOL = 1e-8
FARKAS_COL_TOL = 1e-10
FARKAS_TARGET_TOL = 1e-6
WEAK_DUALITY_SLACK = 10.0
MAX_ITERATIONS = 200
BOUNDARY_FRACTION = 0.98
STALL_WINDOW = 3
# Bytes of Schur-term temporaries one slice of a run's blocks may take. At
# 4 MiB, runs of 9-dimensional blocks fall out of cache and assemble slower.
SCHUR_SLICE_BYTES = 2**20
# Both step lengths below STEP_COLLAPSE_TOL end the iteration (step-collapse).
STEP_COLLAPSE_TOL = 1e-10
# Relative ridge added to a Schur matrix that is singular after iterate 0.
SCHUR_RIDGE = 1e-14
# A direction whose defect |C dX - r_p| exceeds REFINE_TOL * (1 + |b|) gets one
# step of iterative refinement: a tenth of the feasibility tolerance.
REFINE_TOL = 0.1 * DEFAULT_FEAS_TOL

STATUS_OPTIMAL = "optimal"

# Why the iteration ended (SDPSolution.stop_reason). The status is optimal when
# the last iterate meets ACCEPT_*, as a stalled one does, else the stop reason.
STOP_CONVERGED = "converged"
STOP_STALLED = "stalled"
STOP_MAX_ITERATIONS = "max-iterations"
STOP_STEP_COLLAPSE = "step-collapse"
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


def weak_duality_ok(records: list[IterateRecord]) -> tuple[bool, float]:
    """Check primal <= dual + WEAK_DUALITY_SLACK * eps * scale on every
    logged iterate, with scale = 1 + |primal| + |dual|.

    Returns (ok, worst margin); the margin is primal - dual - tolerance, so
    any positive value is a violation.
    """
    eps = float(np.finfo(float).eps)
    worst = -math.inf
    for r in records:
        tol = WEAK_DUALITY_SLACK * eps * (1.0 + abs(r.primal) + abs(r.dual))
        worst = max(worst, r.primal - r.dual - tol)
    return worst <= 0.0, worst


@dataclass(frozen=True)
class DualCertificate:
    """Dual feasible operator H; Tr(H) upper-bounds the success probability
    for the measurement class named by ``cone_tag``. ``claimed_value`` is
    that trace, computed from the matrix."""

    matrix: np.ndarray
    cone_tag: str  # "sep-dual", "ppt-dual" or "psd-dual"
    claimed_value: float = field(init=False)

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
    independent: :func:`solve_sdp` does not reduce them. ``primal_start`` (X
    blocks) and ``dual_start`` (y) are required strictly feasible starting
    points; :func:`solve_sdp` verifies them and raises ValueError if either is
    missing or invalid.
    """

    block_dims: tuple[int, ...]
    objective: tuple[np.ndarray, ...]
    rows: np.ndarray
    rhs: np.ndarray
    primal_start: tuple[np.ndarray, ...]
    dual_start: np.ndarray

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


def _runs(dims) -> list[tuple[int, int]]:
    """(d, k) per run of k consecutive d-dimensional blocks."""
    return [(d, len(list(group))) for d, group in groupby(dims)]


def _stack(blocks, runs) -> list[np.ndarray]:
    """Per run, its blocks as one (k, d, d) array."""
    it = iter(blocks)
    return [np.stack([next(it) for _ in range(k)]) for _, k in runs]


def _coords(stacks) -> np.ndarray:
    return np.concatenate([herm_to_coords(s).reshape(-1) for s in stacks])


def _stacks(c, runs) -> list[np.ndarray]:
    parts = np.split(c, np.cumsum([k * d * d for d, k in runs])[:-1])
    return [coords_to_herm(p.reshape(k, d * d), d) for (d, k), p in zip(runs, parts)]


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _hs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <A, B> of each matrix pair of two (..., d, d) stacks."""
    return np.sum((a.conj() * b).reshape(a.shape[:-2] + (-1,)), axis=-1).real


def _hs_total(stacks_a, stacks_b) -> float:
    """Sum of Re <A_b, B_b> over all blocks, added one at a time in block order."""
    return sum(v for a, b in zip(stacks_a, stacks_b) for v in _hs(a, b).tolist())


def _cholesky(stacks) -> list[np.ndarray] | None:
    """Per run, the Cholesky factors of its blocks; None unless all are positive definite."""
    try:
        return [np.linalg.cholesky(s) for s in stacks]
    except np.linalg.LinAlgError:
        return None


def _schur_slices(c_rows: np.ndarray, runs) -> list[tuple]:
    """The gathers of the Schur terms, built once per solve. Per slice of
    consecutive blocks of a run, as many as fit ``SCHUR_SLICE_BYTES`` of
    temporaries (at least one): (run, the blocks as a slice of the run, k
    column gathers into W, k row gathers into C W^T, k values, the flat index
    of every term entry). A block that no row touches is left out.

    Block b's t touched rows tb carry at most k nonzeros each; a slice pads
    its blocks to its largest t and k with value 0, whose products are +-0
    and leave M unchanged.
    Entry (l, i) of b's transposed t x t term goes to m_flat[tb[l] * m +
    tb[i]], which is M[tb[i], tb[l]] of the column-major M =
    m_flat[:m * m].reshape(m, m).T; padding goes to the sink m_flat[m * m].
    """
    m = c_rows.shape[0]
    idx_type = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    out, start = [], 0
    for r, (d, k) in enumerate(runs):
        n = d * d
        run_rows = c_rows[:, start : start + k * n].reshape(m, k, n)
        start += k * n
        nz = np.ascontiguousarray((run_rows != 0.0).transpose(1, 0, 2))
        counts = np.count_nonzero(nz, axis=2)  # nonzeros per block and row
        t_blocks = (counts > 0).sum(axis=1)
        touched = np.flatnonzero(t_blocks)
        if touched.size == 0:
            continue
        t = int(t_blocks.max())
        # Complex X kron Z^-T columns, their row gathers and W: 56 n^2 bytes.
        step = max(1, SCHUR_SLICE_BYTES // (56 * n * n + 8 * n * t + 8 * t * t))
        bounds = [
            (lo, min(lo + step, int(group[-1]) + 1))
            for group in np.split(touched, np.flatnonzero(np.diff(touched) > 1) + 1)
            for lo in range(int(group[0]), int(group[-1]) + 1, step)
        ]
        for lo, hi in bounds:
            cnt = counts[lo:hi]
            s, t, kk = hi - lo, int(t_blocks[lo:hi].max()), int(cnt.max())
            slot = np.cumsum(cnt > 0, axis=1) - 1  # a touched row's place in tb
            tb = np.full((s, t), -1)
            b_r, r_r = np.nonzero(cnt)
            tb[b_r, slot[b_r, r_r]] = r_r
            # Block by block, row by row: pos is a nonzero's place in its row.
            b_i, r_i, c_i = np.unravel_index(np.flatnonzero(nz[lo:hi]), (s, m, n))
            pos = np.arange(b_i.size) - (np.cumsum(cnt) - cnt.reshape(-1))[b_i * m + r_i]
            col = np.zeros((s, t, kk), dtype=np.intp)
            val = np.zeros((s, t, kk))
            col[b_i, slot[b_i, r_i], pos] = c_i
            val[b_i, slot[b_i, r_i], pos] = run_rows[r_i, lo + b_i, c_i]
            dest = tb[:, :, None] * m + tb[:, None, :]
            dest[(tb[:, :, None] < 0) | (tb[:, None, :] < 0)] = m * m
            b = np.arange(s)[:, None, None]
            out.append((
                r, slice(lo, hi),
                (b * n + col).reshape(s * t, kk).T.copy(),
                (col * s + b).reshape(s * t, kk).T.copy(),
                val.reshape(s * t, kk).T.copy(),
                dest.reshape(-1).astype(idx_type),
            ))
    return out


def _schur_work(d: int, s: int) -> tuple:
    """Index data and buffers up to W for a slice of s d-dimensional blocks."""
    i1, i2, v1, v2 = hermitian_basis_support(d)
    n = d * d
    # (c, e, v) per nonzero of T's columns: row i of T is entry (c, e) of E.
    cols = tuple((*np.divmod(i, d), v) for i, v in ((i1, v1), (i2, v2)))
    rows = ((i1, v1.conj()[:, None]), (i2, v2.conj()[:, None]))
    vecs = tuple(np.empty((s, d, n), dtype=complex) for _ in range(2))
    mats = tuple(np.empty((s, n, n), dtype=complex) for _ in range(3))
    return cols, rows, vecs, mats, np.empty((n, s, n))


def _add_schur_terms(m_flat, x_stacks, zinv_stacks, slices, work: dict) -> None:
    """Adds C_b W_b C_b^T, for every block b that rows C_b touch, into the
    Schur matrix M = m_flat[:m * m].reshape(m, m).T, stored column-major.
    Per slice of blocks, on a leading stack axis,

        kt = 0.0 + X[:, c1] kron (Z^-T[:, e1] v1) + X[:, c2] kron (Z^-T[:, e2] v2)
        w = (conj(v1) kt[i1] + conj(v2) kt[i2]).real,   W = (w + w^T) / 2

    is W = Re T^H (X kron Z^-T) T, the real-basis matrix of E -> X E Z^-1,
    since T = hermitian_basis_matrix(d) has at most two nonzeros per column.
    W is symmetric to the bit, so the transposes (C_b W)^T and (C_b W C_b^T)^T
    come from gathers that make the same products and sums, in the same
    order, as the untransposed ones. Every operation is elementwise and one
    np.add.at per slice adds the terms in block order, so M equals that of a
    loop over the blocks to the bit. The buffers live in ``work[d, s]`` up to
    W and in ``work[d * d, s, t]`` after it; ``np.take`` runs with mode="clip"
    (the indices are in range) because its default mode copies ``out``.
    """
    for r, blocks, col_at, row_at, vals, dest in slices:
        s, d, t = blocks.stop - blocks.start, x_stacks[r].shape[-1], dest.size // vals.shape[1]
        n = d * d
        if (d, s) not in work:
            work[d, s] = _schur_work(d, s)
        if (n, s, t) not in work:
            work[n, s, t] = (np.empty((n, s * t)), np.empty((s * t, t)))
        cols, rows, (xc, ze), (kt, prod, g), w = work[d, s]
        cw_t, term_t = work[n, s, t]
        xs = x_stacks[r][blocks]
        zt = zinv_stacks[r][blocks].swapaxes(1, 2)
        for (c, e, v), out in zip(cols, (kt, prod)):
            # Column (c, e) of X kron Z^-T is X[:, c] kron Z^-T[:, e].
            np.take(xs, c, axis=2, out=xc, mode="clip")
            np.take(zt, e, axis=2, out=ze, mode="clip")
            np.multiply(ze, v, out=ze)
            np.multiply(xc[:, :, None], ze[:, None], out=out.reshape(s, d, d, n))
        kt += 0.0  # the formula's 0.0 + ...: turns -0.0 into +0.0
        kt += prod
        for (i, vc), out in zip(rows, (g, prod)):
            np.take(kt, i, axis=1, out=out, mode="clip")
            np.multiply(vc, out, out=out)
        g += prod
        # W[b] is w[:, b], so that one column gather serves the whole slice.
        np.add(g.real, g.real.swapaxes(1, 2), out=w.swapaxes(0, 1))
        w /= 2.0
        w = w.reshape(n, s * n)
        np.take(w, col_at[0], axis=1, out=cw_t, mode="clip")
        np.multiply(vals[0], cw_t, out=cw_t)
        for p in range(1, vals.shape[0]):
            cw_t += vals[p] * w.take(col_at[p], axis=1)
        cw_rows = cw_t.reshape(n * s, t)
        np.take(cw_rows, row_at[0], axis=0, out=term_t, mode="clip")
        np.multiply(vals[0, :, None], term_t, out=term_t)
        for p in range(1, vals.shape[0]):
            term_t += vals[p, :, None] * cw_rows[row_at[p]]
        np.add.at(m_flat, dest, term_t.reshape(-1))


def _max_step(factors, dstacks) -> float:
    """BOUNDARY_FRACTION times the distance to the PSD boundary along the
    direction, capped at 1, from the current blocks' Cholesky factors; 0 if None."""
    if factors is None:
        return 0.0
    alpha = 1.0
    for ell, ds in zip(factors, dstacks):
        w = np.linalg.solve(ell, ds)
        t = np.linalg.solve(ell, w.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
        lam = np.linalg.eigvalsh(_sym(t))[:, 0]
        with np.errstate(over="ignore"):  # a subnormal lam: +inf, which min drops
            alpha = min([alpha, *(-BOUNDARY_FRACTION / lam[lam < 0.0]).tolist()])
    return alpha


def _verified_starts(problem, c_rows, b, runs, a_coords) -> tuple:
    """The starts as (X stacks, y, Z stacks, X factors, Z factors); ValueError
    naming the first defect unless both are strictly feasible."""
    x0, y0, m = problem.primal_start, problem.dual_start, c_rows.shape[0]
    if x0 is None or y0 is None:
        raise ValueError(f"{'primal' if x0 is None else 'dual'} start is missing")
    shapes = [np.shape(x) for x in x0]
    if shapes != [(d, d) for d in problem.block_dims]:
        raise ValueError(f"primal start blocks {shapes} do not match {problem.block_dims}")
    try:
        x_stacks = _stack([require_hermitian(x) for x in x0], runs)
    except ValueError as exc:
        raise ValueError(f"primal start is not Hermitian: {exc}") from None
    if (x_chol := _cholesky(x_stacks)) is None:
        raise ValueError("primal start is not positive definite")
    resid = np.linalg.norm(c_rows @ _coords(x_stacks) - b)
    if resid > DEFAULT_FEAS_TOL * (1.0 + np.linalg.norm(b)):
        raise ValueError(f"primal start violates the rows by {resid:.2e}")
    if np.shape(y0) != (m,):
        raise ValueError(f"dual start has shape {np.shape(y0)}, not ({m},)")
    y = np.array(y0, dtype=float)
    z_stacks = _stacks(c_rows.T @ y - a_coords, runs)
    if (z_chol := _cholesky(z_stacks)) is None:
        raise ValueError("dual start's slack Z is not positive definite")
    return x_stacks, y, z_stacks, x_chol, z_chol


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

    The starts must be strictly feasible: a missing or invalid one raises
    ValueError naming the defect. The rows must be linearly independent. At
    the first iterate X and Z^-1 are positive definite, so the Schur matrix
    is singular there exactly when the rows are dependent, and that raises
    IllPosedProblemError. A nearly dependent row set that still factors
    shows up in the primal residual, which is measured over every row, and
    so in ``status``.

    Deterministic: identical inputs produce identical iterate logs.
    Non-convergence is reported through ``status`` rather than an
    exception, and ``stop_reason`` says why the iteration ended.
    """
    dims = problem.block_dims
    runs = _runs(dims)
    c_rows, b = problem.rows, problem.rhs
    a_stacks = _stack(problem.objective, runs)
    a_coords = _coords(a_stacks)
    slices = _schur_slices(c_rows, runs)
    # Reused by every iteration: the Schur matrix, stored column-major so that
    # np.linalg.solve gets the F-contiguous m_mat and need not copy it
    # strided, plus a sink entry for padding, and the assembly buffers.
    m_flat = np.empty(b.size * b.size + 1)
    m_mat = m_flat[:-1].reshape(b.size, b.size).T
    work: dict = {}

    x_stacks, y, z_stacks, x_chol, z_chol = _verified_starts(problem, c_rows, b, runs, a_coords)
    eyes = [np.broadcast_to(np.eye(d, dtype=complex), (k, d, d)) for d, k in runs]

    b_scale = 1.0 + float(np.linalg.norm(b))
    a_scale = 1.0 + float(np.linalg.norm(a_coords))
    total_dim = sum(dims)
    records: list[IterateRecord] = []
    stop_reason = STOP_MAX_ITERATIONS
    # The step that produced the current iterate; none before the first.
    sig, alpha_p, alpha_d = 0.0, 0.0, 0.0
    it = 0

    for it in range(MAX_ITERATIONS + 1):
        rp = b - c_rows @ _coords(x_stacks)
        rd_coords = c_rows.T @ y - a_coords - _coords(z_stacks)
        rd_stacks = _stacks(rd_coords, runs)
        pv = _hs_total(a_stacks, x_stacks)
        dv = float(b @ y)
        mu_total = _hs_total(x_stacks, z_stacks)
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
            stop_reason = STOP_CONVERGED
            break
        if it == MAX_ITERATIONS:
            break
        if _stalled(records) and _acceptable(records[-1], b_scale, a_scale):
            stop_reason = STOP_STALLED
            break

        if z_chol is None:
            stop_reason = STOP_FACTORIZATION_FAILED
            break
        try:
            linvs = [np.linalg.solve(ell, eye) for ell, eye in zip(z_chol, eyes)]
            zinv_stacks = [linv.conj().swapaxes(-1, -2) @ linv for linv in linvs]

            m_flat.fill(0.0)
            _add_schur_terms(m_flat, x_stacks, zinv_stacks, slices, work)

            c_zinv = c_rows @ _coords(zinv_stacks)
            x_rd_zinv = [x @ rd @ zi for x, rd, zi in zip(x_stacks, rd_stacks, zinv_stacks)]

            def solve_m(rhs_vec):
                try:
                    return np.linalg.solve(m_mat, rhs_vec)
                except np.linalg.LinAlgError:
                    if it == 0:
                        raise IllPosedProblemError("dependent constraint rows") from None
                    # Later on, an exactly singular M is roundoff near the
                    # optimum; a ridge of relative size SCHUR_RIDGE gets past it.
                    ridge = SCHUR_RIDGE * (1.0 + np.trace(m_mat) / b.size)
                    return np.linalg.solve(m_mat + ridge * np.eye(b.size), rhs_vec)

            def steps(dy, sig_mu: float, corr):
                """dX and dZ of the HKM direction for the given dy."""
                dz = _stacks(c_rows.T @ dy + rd_coords, runs)
                dx = []
                for i, (x, zinv, dzs) in enumerate(zip(x_stacks, zinv_stacks, dz)):
                    core = sig_mu * zinv - x - _sym(x @ dzs @ zinv)
                    if corr is not None:
                        core = core - _sym(corr[i])
                    dx.append(_sym(core))
                return dx, dz

            def newton(sig_mu: float, corr):
                """HKM direction for target sig_mu; corr is the second-order
                term dX_aff dZ_aff Z^-1 per run of blocks, or None."""
                terms = x_rd_zinv if corr is None else [t + c for t, c in zip(x_rd_zinv, corr)]
                rhs_vec = sig_mu * c_zinv - b - c_rows @ _coords([_sym(t) for t in terms])
                dy = solve_m(rhs_vec)
                dx, dz = steps(dy, sig_mu, corr)
                return dx, dy, dz

            dx_aff, _, dz_aff = newton(0.0, None)
            ap, ad = _max_step(x_chol, dx_aff), _max_step(z_chol, dz_aff)
            mu_aff = _hs_total(
                [x + ap * dx for x, dx in zip(x_stacks, dx_aff)],
                [z + ad * dz for z, dz in zip(z_stacks, dz_aff)],
            )
            # Once mu and the gap meet DEFAULT_*, only feasibility is missing.
            # Aim at the same mu (sigma = 1) then: driving mu further toward 0
            # lets y . r_p outweigh <X, Z>, and the primal value pass the dual.
            if gap_met:
                sig = 1.0
            else:
                sig = min(1.0, max(0.0, (mu_aff / mu_total) ** 3))
            corr = [dx @ dz @ zi for dx, dz, zi in zip(dx_aff, dz_aff, zinv_stacks)]
            dx_stacks, dy, dz_stacks = newton(sig * mu, corr)

            # C dX = r_p holds only up to the Schur solve's residual and the
            # roundoff in M, which near the optimum (|M| ~ 1/mu) would go
            # straight into the next primal residual. One step of iterative
            # refinement against the applied operator removes most of it; it
            # is kept only if it shrinks the defect.
            defect = c_rows @ _coords(dx_stacks) - rp
            defect_norm = float(np.linalg.norm(defect))
            if defect_norm > REFINE_TOL * b_scale:
                dy_ref = dy + solve_m(defect)
                dx_ref, dz_ref = steps(dy_ref, sig * mu, corr)
                if np.linalg.norm(c_rows @ _coords(dx_ref) - rp) < defect_norm:
                    dx_stacks, dy, dz_stacks = dx_ref, dy_ref, dz_ref
        except np.linalg.LinAlgError:
            stop_reason = STOP_FACTORIZATION_FAILED
            break

        alpha_p, alpha_d = _max_step(x_chol, dx_stacks), _max_step(z_chol, dz_stacks)
        if max(alpha_p, alpha_d) < STEP_COLLAPSE_TOL:
            stop_reason = STOP_STEP_COLLAPSE
            break
        x_stacks = [_sym(x + alpha_p * dx) for x, dx in zip(x_stacks, dx_stacks)]
        y = y + alpha_d * dy
        z_stacks = [_sym(z + alpha_d * dz) for z, dz in zip(z_stacks, dz_stacks)]
        x_chol, z_chol = _cholesky(x_stacks), _cholesky(z_stacks)

    # A converged or stalled iterate meets ACCEPT_*; so may one where the
    # iteration stopped for another reason, and that is accepted too.
    last = records[-1]
    status = STATUS_OPTIMAL if _acceptable(last, b_scale, a_scale) else stop_reason

    return SDPSolution(
        x_blocks=[xb for x in x_stacks for xb in _sym(x)],
        y=y,
        z_blocks=[zb for z in z_stacks for zb in _sym(z)],
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


def independent_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent subset of rows, chosen
    greedily in order by one Gram-Schmidt pass: each row is projected twice
    off an orthonormal basis of the rows kept so far, and kept when its
    residual is at least ``ROW_DROP_TOL * max(1, |row|)``.

    The row reduction of :func:`solve_lp_feasibility`, whose d^2 rows, one
    per Hermitian coordinate, usually outnumber its columns.
    """
    basis = np.zeros((0, rows.shape[1]))
    kept: list[int] = []
    for i, row in enumerate(rows):
        x = row - basis.T @ (basis @ row)
        x = x - basis.T @ (basis @ x)
        norm = np.linalg.norm(x)
        if norm >= ROW_DROP_TOL * max(1.0, np.linalg.norm(row)):
            basis = np.vstack([basis, x / norm])
            kept.append(i)
    return np.asarray(kept, dtype=int)


def span_residual(columns: list[np.ndarray], target: np.ndarray) -> float:
    """Frobenius distance from ``target`` to the real span of ``columns``."""
    c = np.stack([herm_to_coords(require_hermitian(col)) for col in columns], axis=1)
    t = herm_to_coords(require_hermitian(target))
    sol, *_ = np.linalg.lstsq(c, t, rcond=None)
    return float(np.linalg.norm(c @ sol - t))


def verify_farkas(columns, target, w) -> bool:
    """Whether W separates ``target`` from the cone of ``columns``, to
    ``FARKAS_COL_TOL`` and ``FARKAS_TARGET_TOL``."""
    wn = float(np.linalg.norm(w))
    for col in columns:
        if _hs(w, col) < -FARKAS_COL_TOL * float(np.linalg.norm(col)) * wn:
            return False
    return _hs(w, target) <= -FARKAS_TARGET_TOL * wn * float(np.linalg.norm(target))


def solve_lp_feasibility(columns: list[np.ndarray], target: np.ndarray) -> LPFeasibilityResult:
    """Decide whether ``target`` is a nonnegative combination of ``columns``.

    Solved as a phase-1 problem on the SDP engine with 1x1 blocks: minimize
    the weight t of an artificial column R = target - sum(columns), starting
    from the strictly feasible point (1, ..., 1). A zero column gets weight 0
    and no block, since its dual slack is 0 for every y; every other column
    needs positive trace (ValueError otherwise), which makes the dual start
    Y = c * identity strictly feasible. A phase-1 optimum above
    ``FARKAS_THRESHOLD`` yields a Farkas witness read from the dual
    multipliers; either certificate is re-verified by direct recomputation,
    the weights to ``LP_RESIDUAL_TOL``.
    """
    if not columns:
        raise ValueError("empty column list")
    cols = [require_hermitian(c) for c in columns]
    tgt = require_hermitian(target)
    d = tgt.shape[0]
    if any(c.shape != (d, d) for c in cols):
        raise ValueError("columns and target must act on the same space")

    live = [c.any() for c in cols]
    used = [c for c, keep in zip(cols, live) if keep]
    if not all(np.trace(c).real > 0.0 for c in used):
        raise ValueError("every nonzero column must have positive trace")
    ncol = len(used)
    artificial = tgt - sum(used)
    col_coords = np.ascontiguousarray(herm_to_coords(np.stack(used + [artificial])).T)
    rhs = herm_to_coords(tgt)
    # One row per coordinate of the d x d target against ncol + 1 columns:
    # the rows are dependent, and solve_sdp takes only independent ones. The
    # dropped rows are consistent, since the start (1, ..., 1) satisfies all.
    kept = independent_rows(col_coords)
    rows = col_coords[kept]

    objective = [np.zeros((1, 1), dtype=complex) for _ in range(ncol)]
    objective.append(-np.ones((1, 1), dtype=complex))

    # Dual start: slack from Y = c * identity is strictly positive when c is
    # small against the artificial column's trace. Its multipliers on the kept
    # rows give the same slack, since the dropped rows lie in their span.
    c0 = 1.0 / (2.0 * (1.0 + abs(float(np.trace(artificial).real))))
    y_full = herm_to_coords(c0 * np.eye(d, dtype=complex))
    y_start, *_ = np.linalg.lstsq(rows.T, col_coords.T @ y_full, rcond=None)

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
    if t_star > FARKAS_THRESHOLD:
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

    weights = np.zeros(len(cols))
    weights[live] = np.maximum([float(x[0, 0].real) for x in sol.x_blocks[:-1]], 0.0)
    fit = sum(wk * ck for wk, ck in zip(weights, cols))
    resid = float(np.linalg.norm(fit - tgt))
    if resid > LP_RESIDUAL_TOL:
        raise ConvergenceError(
            f"phase-1 optimum {t_star:.2e} is ambiguous: weight residual {resid:.2e}",
            sol,
        )
    return LPFeasibilityResult(True, weights, None, t_star, sol)

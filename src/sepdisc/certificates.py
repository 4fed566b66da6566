"""Dual certificates for separable- and PPT-measurement bounds, the positive
maps behind them, what each named certificate proves, and a see-saw
falsifier for block positivity.

A Hermitian H with H - p_k rho_k block positive for every k certifies that no
separable measurement succeeds with probability above Tr(H). The generic
search here can only refute such a certificate (by finding a product vector
with negative expectation) or report it unrefuted; the constructions below
additionally come with exact algebraic identities, whose float residuals bound
every product vector's expectation at once. :func:`certify` forms the slacks
of a named certificate once and turns those identities into one margin bound
per slack; a bound below -PSD_MARGIN_TOL refutes the certificate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .conesolve import DualCertificate
from .discrimination import four_bell_value, three_bell_value
from .linalg import (
    BipartiteSpace,
    PAULI,
    kron,
    partial_transpose,
    require_hermitian,
    vec,
)
from .states import (
    ProductVector,
    bell,
    catalog,
    extend_ensemble,
    fix_phase,
    projector,
    resource_frame_to_xy,
    tau,
    ydy_unitaries,
)

DEFAULT_RESTARTS = 1000
DEFAULT_SEED = 20140829
REFUTATION_TOL = 1e-9
MAX_ALTERNATIONS = 500
ALTERNATION_FTOL = 1e-12
UNITARY_TOL = 1e-10
# A slack whose least eigenvalue, or whose lower bound on its block-positivity
# margin, is below -PSD_MARGIN_TOL refutes its certificate.
PSD_MARGIN_TOL = 1e-10
# Rounding budget of a float identity residual, in ulps of the largest slack
# entry: it covers the entries' own rounding and the four-term sums of the
# local conjugations.
IDENTITY_ULPS = 64
try:  # bytes; where the OS does not say, only the draw itself can fail
    PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, OSError, ValueError):
    PHYSICAL_MEMORY = math.inf


def margin_bounds(residuals, slacks) -> list[float]:
    """Lower bounds on min <v|S|v> over unit product vectors v, one per slack
    S, given residuals[k] >= max|S_k - B_k| up to roundoff for a block-positive
    B_k. For an n x n error E, ||E||_2 <= n max|E|, so
    <v|S_k|v> >= -n (residuals[k] + beta), beta the rounding budget."""
    n = slacks[0].shape[0]
    beta = IDENTITY_ULPS * float(np.spacing(max(np.abs(s).max() for s in slacks)))
    return [-n * (r + beta) for r in residuals]


# ---------------------------------------------------------------------------
# Positive-map machinery
# ---------------------------------------------------------------------------


def corner_scaling_map(m: np.ndarray, t: float) -> np.ndarray:
    """Scale the corners of a 2x2 matrix: [[a, b], [c, d]] -> [[t a, b], [c, d/t]].

    Equals the Hadamard product with [[t, 1], [1, 1/t]]; completely positive
    for every t > 0.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    m = np.asarray(m, dtype=complex)
    return np.array([[t * m[0, 0], m[0, 1]], [m[1, 0], m[1, 1] / t]])


def adjugate_map(m: np.ndarray) -> np.ndarray:
    """2x2 adjugate: [[a, b], [c, d]] -> [[d, -b], [-c, a]]."""
    m = np.asarray(m, dtype=complex)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def two_qubit_positive_map(m: np.ndarray, t: float) -> np.ndarray:
    """Positive (not completely positive) map on 4x4 matrices, t > 0.

    Viewing the input as 2x2 blocks [[A, B], [C, D]], the output is

        [[ corner(D) + adj(D),  corner(B) + adj(C) ],
         [ corner(C) + adj(B),  corner(A) + adj(A) ]]

    with corner = corner_scaling_map(., t) and adj = adjugate_map. Positivity
    over all PSD inputs and all t > 0 is exercised by the property suite.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    a, b = m[:2, :2], m[:2, 2:]
    c, d = m[2:, :2], m[2:, 2:]
    ps, ad = corner_scaling_map, adjugate_map
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = ps(d, t) + ad(d)
    out[:2, 2:] = ps(b, t) + ad(c)
    out[2:, :2] = ps(c, t) + ad(b)
    out[2:, 2:] = ps(a, t) + ad(a)
    return out


def choi_matrix(apply_fn, dim_x: int, dim_y: int) -> np.ndarray:
    """Choi operator sum_jk Lambda(|j><k|) (x) |j><k| of a map L(Y) -> L(X)."""
    out = np.zeros((dim_x * dim_y, dim_x * dim_y), dtype=complex)
    for j in range(dim_y):
        for k in range(dim_y):
            unit = np.zeros((dim_y, dim_y), dtype=complex)
            unit[j, k] = 1.0
            out += kron(apply_fn(unit), unit)
    return out


# ---------------------------------------------------------------------------
# Certificates for Bell discrimination with a partially entangled resource
# ---------------------------------------------------------------------------


def three_bell_resource_certificate(epsilon: float) -> DualCertificate:
    """Separable-measurement dual certificate for discriminating three Bell
    states assisted by the resource tau(eps), 0 <= eps < 1, on the
    (X1 X2):(Y1 Y2) bipartition, with trace (2 + sqrt(1 - eps^2))/3. Its
    slacks H - rho_k / 3 carry the bound. At eps = 1, where sqrt(1 - eps^2)
    = 0, the value is covered by :func:`sepdisc.discrimination.three_bell_value`.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    root = math.sqrt(1.0 - epsilon * epsilon)
    phi4 = projector(bell(4))
    tau_op = projector(tau(epsilon))
    phi4_pt = partial_transpose(phi4, 2, 2)
    h_paired = (kron(np.eye(4, dtype=complex), tau_op) / 2.0 + root * kron(phi4, phi4_pt)) / 3.0
    return DualCertificate(resource_frame_to_xy(h_paired), "sep-dual")


def three_bell_slack_conjugations(slacks: list[np.ndarray]) -> tuple[float, float]:
    """Residuals of the unitary-conjugation identities relating the second and
    third of the three-Bell certificate's slack operators to the first.

    The conjugating single-qubit unitaries map the first Bell state onto the
    second and third while fixing the fourth; each acts on X1 and Y1 only.
    """
    u = np.array([[1, 0], [0, 1j]], dtype=complex)
    v = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2.0)
    eye = np.eye(2, dtype=complex)
    res = []
    for mat, target in ((u, slacks[1]), (v, slacks[2])):
        conj = kron(mat.conj().T, eye, mat.conj().T, eye)
        res.append(float(np.abs(conj @ slacks[0] @ conj.conj().T - target).max()))
    return res[0], res[1]


def three_bell_slack_map_residual(slack: np.ndarray, epsilon: float) -> float:
    """Max-entry residual between ``slack``, the three-Bell certificate's first
    slack operator at ``epsilon``, and the Choi matrix of the scaled,
    conjugated positive-map family it must equal."""
    root = math.sqrt(1.0 - epsilon * epsilon)
    # t = sqrt((1+eps)/(1-eps)), written so that scale * t = (1+eps)/12 holds
    # in floats despite the cancellation in 1 - eps^2 near eps = 1.
    t = (1.0 + epsilon) / root
    # The 1/12 absorbs the 1/4 normalization of the projectors feeding the
    # slack operator; the trace identity Tr(slack) = Tr(H) - 1/3 pins it.
    scale = root / 12.0
    sandwich = kron(PAULI[3], np.eye(2, dtype=complex))
    choi = choi_matrix(lambda y: sandwich @ two_qubit_positive_map(y, t) @ sandwich, 4, 4)
    return float(np.abs(slack - scale * choi).max())


def four_bell_resource_certificate(epsilon: float) -> DualCertificate:
    """PPT-measurement dual certificate for discriminating all four Bell
    states assisted by tau(eps); trace (1 + sqrt(1 - eps^2))/2, eps in [0, 1]."""
    tau_op = projector(tau(epsilon))  # raises for eps outside [0, 1]
    root = math.sqrt(max(0.0, 1.0 - epsilon * epsilon))
    phi4 = projector(bell(4))
    phi4_pt = partial_transpose(phi4, 2, 2)
    eye4 = np.eye(4, dtype=complex)
    h_paired = (kron(eye4, tau_op) + root * kron(eye4, phi4_pt)) / 8.0
    return DualCertificate(resource_frame_to_xy(h_paired), "ppt-dual")


def four_bell_certificate_psd_margins(slacks: list[np.ndarray]) -> list[float]:
    """Minimum eigenvalues of the partial transposes T_X(S) of the four-Bell
    certificate's slacks S = H - p_k rho_k on C^4 (x) C^4, in the
    (X1 X2):(Y1 Y2) frame; all must be nonnegative up to roundoff."""
    margins = []
    for slack in slacks:
        pt = partial_transpose(slack, 4, 4)
        margins.append(float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0]))
    return margins


# ---------------------------------------------------------------------------
# Skew-unitary block-positive witnesses and the YDY certificate
# ---------------------------------------------------------------------------


def breuer_hall_witness(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Block-positive operator 1 - vec(U)vec(U)* - T_X(vec(V)vec(V)*) on
    C^n (x) C^n, for unitaries U, V with V^T U skew-symmetric, both checked
    to ``UNITARY_TOL``.

    Every compression (1 (x) y*) W (1 (x) y) by a unit vector y is an
    orthogonal projection of rank n - 2.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = u.shape[0]
    eye = np.eye(n, dtype=complex)
    for name, mat in (("U", u), ("V", v)):
        if mat.shape != (n, n):
            raise ValueError("U and V must be square of equal dimension")
        if np.abs(mat.conj().T @ mat - eye).max() > UNITARY_TOL:
            raise ValueError(f"{name} is not unitary within {UNITARY_TOL:.1e}")
    skew = v.T @ u
    if np.abs(skew.T + skew).max() > UNITARY_TOL:
        raise ValueError("V^T U must be skew-symmetric")
    vu = vec(u)
    vv = vec(v)
    witness = kron(eye, eye) - np.outer(vu, vu.conj())
    witness -= partial_transpose(np.outer(vv, vv.conj()), n, n)
    return witness


def ydy_witness_unitary() -> np.ndarray:
    """V = i sigma_2 (x) sigma_3, the unitary of the YDY certificate."""
    return 1j * kron(PAULI[2], PAULI[3])


def ydy_certificate() -> DualCertificate:
    """Separable-measurement dual certificate of trace 3/4 for the uniform
    Yu-Duan-Ying ensemble: H = (1/16)(1 - T_X(vec(V)vec(V)*)) with
    V = :func:`ydy_witness_unitary`."""
    vv = vec(ydy_witness_unitary())
    h = (np.eye(16, dtype=complex) - partial_transpose(np.outer(vv, vv.conj()), 4, 4)) / 16.0
    return DualCertificate(h, "sep-dual")


# ---------------------------------------------------------------------------
# What each named certificate proves
# ---------------------------------------------------------------------------


def certify(name: str, epsilon: float | None = None):
    """(ensemble, certificate, checks, margins) of bell3 or bell4 at
    ``epsilon``, or of ydy (no epsilon); ValueError for anything else.

    The slacks H - p_k rho_k are formed once, from the returned certificate
    and ensemble. ``margins`` bounds each slack's min <v|S|v> over unit
    product vectors v from below: bell3 and ydy from their identity
    residuals in ``checks``, bell4 by its transposed-slack eigenvalues.
    """
    if name in ("bell3", "bell4") and epsilon is not None:
        cert = (three_bell_resource_certificate if name == "bell3"
                else four_bell_resource_certificate)(epsilon)
        ens = extend_ensemble(catalog(name), epsilon)
    elif name == "ydy" and epsilon is None:
        cert, ens = ydy_certificate(), catalog("ydy")
    else:
        raise ValueError(f"no certificate {name!r} at epsilon {epsilon!r}")
    slacks = [cert.matrix - p * rho for p, rho in zip(ens.probs, ens.states)]
    if name == "bell3":
        link = three_bell_slack_map_residual(slacks[0], epsilon)
        conjugations = list(three_bell_slack_conjugations(slacks))
        # Slack 1 is (r/12) times the Choi matrix of a positive map, and
        # slacks 2 and 3 are its conjugations by local unitaries.
        margins = margin_bounds([link] + [link + c for c in conjugations], slacks)
        checks = {
            "trace_formula_residual": abs(cert.claimed_value - three_bell_value(epsilon)),
            "conjugation_residuals": conjugations,
            "map_link_residual": link,
            "slack_margin_bounds": margins,
        }
    elif name == "bell4":
        # <x (x) y|S|x (x) y> = <conj(x) (x) y|T_X(S)|conj(x) (x) y>.
        margins = four_bell_certificate_psd_margins(slacks)
        checks = {
            "trace_formula_residual": abs(cert.claimed_value - four_bell_value(epsilon)),
            "transposed_slack_min_eigenvalues": margins,
        }
    else:
        us, v = ydy_unitaries(), ydy_witness_unitary()
        skew = [float(np.abs(w.T + w).max()) for w in (v.T @ u for u in us)]
        witness = [
            float(np.abs(s - breuer_hall_witness(u, v) / 16.0).max()) for s, u in zip(slacks, us)
        ]
        # Each slack is a Breuer-Hall witness over 16, block positive when
        # V^T U is skew-symmetric. A symmetric part D of V^T U lowers the
        # witness's margin by at most 4 max|D| = 2 skew, so the slack's by
        # less than 16 skew.
        margins = margin_bounds([w + k for w, k in zip(witness, skew)], slacks)
        checks = {
            "skew_symmetry_residuals": skew,
            "witness_identity_residuals": witness,
            "slack_margin_bounds": margins,
        }
    return ens, cert, checks, margins


# ---------------------------------------------------------------------------
# See-saw search for block-positivity violations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConeSearchReport:
    """Outcome of a product-vector see-saw search.

    A min_overlap below -1e-9 certifies the operator is not block positive
    (the witness is the violating product vector); a nonnegative minimum is
    evidence only.
    """

    min_overlap: float
    witness: ProductVector
    restarts: int
    seed: int
    iterations_per_restart: int

    @property
    def refuted(self) -> bool:
        return self.min_overlap < -REFUTATION_TOL


def _initial_directions(dim: int, restarts: int, seed: int) -> np.ndarray:
    """Unit start vectors, one row per restart, drawn from one seeded stream,
    so row r is the same for every restarts > r."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    raw = rng.standard_normal((restarts, 2 * dim))
    y = raw[:, :dim] + 1j * raw[:, dim:]
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def block_positivity_search(
    h: np.ndarray,
    space: BipartiteSpace,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ConeSearchReport:
    """Minimize <x (x) y, H (x (x) y)> over unit product vectors by see-saw.

    Each alternation fixes one side and takes the minimum eigenvector of the
    compressed operator on the other; the overlap is nonincreasing, restarts
    run in lockstep, and everything is deterministic given (restarts, seed).
    A restart stops after ``MAX_ALTERNATIONS`` alternations, or once one
    lowers its overlap by less than ``ALTERNATION_FTOL``.
    Raises ValueError unless restarts >= 1, seed >= 0 and the draw of 2 *
    dim_y doubles per restart fits in physical memory.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if restarts * 16 * space.dim_y > PHYSICAL_MEMORY:
        raise ValueError(f"restarts must fit in memory, got {restarts}")
    h = require_hermitian(space.check_operator(h))
    nx, ny = space.dim_x, space.dim_y
    h4 = h.reshape(nx, ny, nx, ny)

    try:
        ys = _initial_directions(ny, restarts, seed)
    except MemoryError:
        raise ValueError(f"restarts must fit in memory, got {restarts}") from None
    xs = np.zeros((restarts, nx), dtype=complex)
    vals = np.full(restarts, np.inf)
    iters = np.zeros(restarts, dtype=int)
    active = np.ones(restarts, dtype=bool)

    for step in range(1, MAX_ALTERNATIONS + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ya = ys[idx]
        comp_x = np.einsum("ambn,rm,rn->rab", h4, ya.conj(), ya, optimize=True)
        w, vecs = np.linalg.eigh(comp_x)
        xs[idx] = vecs[:, :, 0]
        xa = xs[idx]
        comp_y = np.einsum("ambn,ra,rb->rmn", h4, xa.conj(), xa, optimize=True)
        w, vecs = np.linalg.eigh(comp_y)
        ys[idx] = vecs[:, :, 0]
        new_vals = w[:, 0]
        improved = vals[idx] - new_vals
        vals[idx] = new_vals
        iters[idx] = step
        active[idx[improved < ALTERNATION_FTOL]] = False

    best = int(np.argmin(vals))
    witness = ProductVector(fix_phase(xs[best]), fix_phase(ys[best]))
    prod = witness.vector
    exact = float(np.real(prod.conj() @ (h @ prod)))
    return ConeSearchReport(
        min_overlap=exact,
        witness=witness,
        restarts=restarts,
        seed=seed,
        iterations_per_restart=int(iters[best]),
    )

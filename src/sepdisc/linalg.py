"""Dense complex matrix kernel.

Everything downstream (state constructors, the cone solver, certificate
checks) runs on plain ``numpy`` arrays; this module supplies the bipartite
bookkeeping and the handful of primitives the rest of the package is built
from: Kronecker products, partial transpose / partial trace over named tensor
factors, the row-major vec correspondence, Hermitian eigendecompositions, and
the fixed orthonormal real basis of the Hermitian operators that exposes them
to the solver as real coordinate vectors.

All operations are pure functions; arrays are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# Relative tolerance of the Hermiticity check. Inputs failing it are rejected
# rather than symmetrized, to surface construction bugs.
HERMITICITY_RTOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operator shape is incompatible with the declared tensor factors."""


class NonHermitianError(ValueError):
    """Input violates the Hermiticity tolerance."""


#: Identity and the three Pauli matrices, indexed 0..3.
PAULI: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    return reduce(np.kron, (np.asarray(f) for f in factors))


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec(|k><j|) = |k>|j>, extended linearly.

    The coefficient of |a>|b> in vec(M) is M[a, b].
    """
    return np.asarray(mat).reshape(-1)


def require_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return ``a`` as a complex array after checking H = H^dagger.

    Raises NonHermitianError when max |H[i,j] - conj(H[j,i])| exceeds
    rtol * (1 + max |H|).
    """
    h = np.asarray(a, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    scale = 1.0 + (np.abs(h).max() if h.size else 0.0)
    dev = np.abs(h - h.conj().T).max() if h.size else 0.0
    if dev > rtol * scale:
        raise NonHermitianError(f"Hermiticity violation {dev:.3e} > {rtol:.1e} * {scale:.3e}")
    return h


def eig_hermitian(h: np.ndarray, rtol: float = HERMITICITY_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Rejects non-Hermitian input instead of symmetrizing it.
    """
    h = require_hermitian(h, rtol)
    return np.linalg.eigh(h)


@dataclass(frozen=True)
class BipartiteSpace:
    """Tensor-product space C^dim_x (x) C^dim_y with optional nested factors.

    Tensor-factor ordering is fixed with all X factors first, then all Y
    factors; ``factors_x`` / ``factors_y`` record a finer factorization of a
    side (e.g. X = X1 (x) X2 with factors (2, 2)).
    """

    dim_x: int
    dim_y: int
    factors_x: tuple[int, ...] = ()
    factors_y: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be positive")
        fx = tuple(self.factors_x) or (self.dim_x,)
        fy = tuple(self.factors_y) or (self.dim_y,)
        if math.prod(fx) != self.dim_x or math.prod(fy) != self.dim_y:
            raise DimensionMismatchError("nested factor dims must multiply to the side dim")
        object.__setattr__(self, "factors_x", fx)
        object.__setattr__(self, "factors_y", fy)

    @property
    def total_dim(self) -> int:
        return self.dim_x * self.dim_y

    @property
    def dims(self) -> tuple[int, ...]:
        """All tensor factors, X side first."""
        return self.factors_x + self.factors_y

    def axes(self, factor: str | tuple[str, int]) -> tuple[int, ...]:
        """Axis positions of a named factor: "x", "y", ("x", i) or ("y", i)."""
        nx = len(self.factors_x)
        if factor == "x":
            return tuple(range(nx))
        if factor == "y":
            return tuple(range(nx, nx + len(self.factors_y)))
        side, i = factor
        fac = self.factors_x if side == "x" else self.factors_y
        if not 0 <= i < len(fac):
            raise DimensionMismatchError(f"no nested factor {factor!r}")
        return (i,) if side == "x" else (nx + i,)

    def check_operator(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.total_dim, self.total_dim):
            raise DimensionMismatchError(
                f"operator shape {a.shape} does not match space dim {self.total_dim}"
            )
        return a


def transpose_factors(a: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """Transpose the named tensor factors of a square operator.

    ``dims`` lists all factor dimensions; ``axes`` the factor positions to
    transpose (in the standard basis). A pure entry permutation, so trace and
    Frobenius norm are preserved exactly.
    """
    a = np.asarray(a)
    d = math.prod(dims)
    if a.shape != (d, d):
        raise DimensionMismatchError(f"operator shape {a.shape} does not match dims {dims}")
    n = len(dims)
    t = a.reshape(dims + dims)
    order = list(range(2 * n))
    for ax in axes:
        order[ax], order[n + ax] = order[n + ax], order[ax]
    return t.transpose(order).reshape(d, d)


def trace_factors(a: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """Partial trace over the named tensor factors of a square operator."""
    a = np.asarray(a)
    d = math.prod(dims)
    if a.shape != (d, d):
        raise DimensionMismatchError(f"operator shape {a.shape} does not match dims {dims}")
    n = len(dims)
    t = a.reshape(dims + dims)
    for ax in sorted(axes, reverse=True):
        t = np.trace(t, axis1=ax, axis2=n + ax)
        n -= 1
    kept = math.prod([dims[i] for i in range(len(dims)) if i not in axes])
    return t.reshape(kept, kept)


def partial_transpose(
    h: np.ndarray, space: BipartiteSpace, factor: str | tuple[str, int] = "x"
) -> np.ndarray:
    """Partial transpose of an operator on ``space`` over a named factor."""
    return transpose_factors(space.check_operator(h), space.dims, space.axes(factor))


def partial_trace(
    h: np.ndarray, space: BipartiteSpace, factor: str | tuple[str, int]
) -> np.ndarray:
    """Partial trace of an operator on ``space`` over a named factor."""
    return trace_factors(space.check_operator(h), space.dims, space.axes(factor))


def permute_factors_matrix(dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Permutation matrix P with (P v) = v reshaped by ``dims``, axes
    reordered by ``perm``, and flattened again.

    P (x_0 (x) ... (x) x_{n-1}) = x_{perm[0]} (x) ... (x) x_{perm[n-1]}.
    """
    d = math.prod(dims)
    idx = np.arange(d).reshape(dims).transpose(perm).reshape(-1)
    p = np.zeros((d, d))
    p[np.arange(d), idx] = 1.0
    return p


def orthogonal_complement(vectors: list[np.ndarray], dim: int, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the space orthogonal to all ``vectors``.

    Membership threshold: singular values below rtol times the largest are
    treated as zero.
    """
    if not vectors:
        return np.eye(dim, dtype=complex)
    m = np.array([np.asarray(v, dtype=complex).conj() for v in vectors])
    if m.shape[1] != dim:
        raise DimensionMismatchError("vector length does not match dim")
    _, sv, vh = np.linalg.svd(m)
    cutoff = rtol * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


# ---------------------------------------------------------------------------
# Fixed orthonormal real basis of Herm(C^d)
#
# Order: d diagonal units E_ii, then (E_ij + E_ji)/sqrt(2) for i < j in
# row-major order, then i(E_ij - E_ji)/sqrt(2) for the same pairs. This is
# what turns the cone programs into real optimization problems.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _triu_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, k=1)


def herm_to_coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed orthonormal basis.

    Isometric: the Euclidean norm of the coordinates equals the Frobenius
    norm of the matrix.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    iu, ju = _triu_indices(d)
    off = h[iu, ju]
    return np.concatenate(
        [h.diagonal().real, math.sqrt(2.0) * off.real, math.sqrt(2.0) * off.imag]
    )


def coords_to_herm(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_to_coords`."""
    c = np.asarray(c, dtype=float)
    if c.size != d * d:
        raise DimensionMismatchError(f"expected {d * d} coordinates, got {c.size}")
    iu, ju = _triu_indices(d)
    m = iu.size
    h = np.zeros((d, d), dtype=complex)
    h[np.arange(d), np.arange(d)] = c[:d]
    off = (c[d : d + m] + 1j * c[d + m :]) / math.sqrt(2.0)
    h[iu, ju] = off
    h[ju, iu] = off.conj()
    return h


@lru_cache(maxsize=None)
def hermitian_basis_matrix(d: int) -> np.ndarray:
    """Complex (d^2, d^2) matrix whose columns are vec(B_r) for the fixed
    Hermitian basis, so that vec(H) = T @ herm_to_coords(H)."""
    cols = np.zeros((d * d, d * d), dtype=complex)
    for r in range(d * d):
        e = np.zeros(d * d)
        e[r] = 1.0
        cols[:, r] = vec(coords_to_herm(e, d))
    return cols


@lru_cache(maxsize=None)
def hermitian_basis_support(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sparse form (i1, i2, v1, v2) of :func:`hermitian_basis_matrix`.

    Column r of T is v1[r] e_{i1[r]} + v2[r] e_{i2[r]}; the diagonal units
    have one nonzero, so there i2 = i1 and v2 = 0.
    """
    t = hermitian_basis_matrix(d)
    r_idx, i_idx = np.nonzero(t.T)  # grouped by column r, row index ascending
    nnz = np.bincount(r_idx, minlength=d * d)
    last = np.cumsum(nnz) - 1
    i1 = i_idx[last - nnz + 1]
    i2 = i_idx[last]
    cols = np.arange(d * d)
    v1 = t[i1, cols]
    v2 = np.where(nnz == 2, t[i2, cols], 0.0)
    for a in (i1, i2, v1, v2):
        a.flags.writeable = False
    return i1, i2, v1, v2


def real_map_matrix(apply_fn, d: int) -> np.ndarray:
    """Real-basis matrix R of a linear map on Herm(C^d): coords(f(H)) = R @ coords(H)."""
    r = np.zeros((d * d, d * d))
    for k in range(d * d):
        e = np.zeros(d * d)
        e[k] = 1.0
        r[:, k] = herm_to_coords(apply_fn(coords_to_herm(e, d)))
    return r

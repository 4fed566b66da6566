"""Dense complex matrix kernel.

Everything downstream (state constructors, the cone solver, certificate
checks) runs on plain ``numpy`` arrays; this module supplies the bipartite
bookkeeping and the handful of primitives the rest of the package is built
from: Kronecker products, the partial transpose T_X and partial trace Tr_X
on C^dim_x (x) C^dim_y, the row-major vec correspondence, and the fixed
orthonormal real basis of the Hermitian operators that exposes them to the
solver as real coordinate vectors.

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
NULL_SPACE_RTOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operator shape is incompatible with the declared dimensions."""


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


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex array after checking H = H^dagger.

    Raises NonHermitianError when max |H[i,j] - conj(H[j,i])| exceeds
    HERMITICITY_RTOL * (1 + max |H|).
    """
    h = np.asarray(a, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    with np.errstate(over="ignore"):  # entries near the float limit: an infinite deviation
        scale = 1.0 + (np.abs(h).max() if h.size else 0.0)
        dev = np.abs(h - h.conj().T).max() if h.size else 0.0
    if dev > HERMITICITY_RTOL * scale:
        raise NonHermitianError(
            f"Hermiticity violation {dev:.3e} > {HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return h


@dataclass(frozen=True)
class BipartiteSpace:
    """Tensor-product space C^dim_x (x) C^dim_y, X factor first."""

    dim_x: int
    dim_y: int

    def __post_init__(self) -> None:
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be positive")

    @property
    def total_dim(self) -> int:
        return self.dim_x * self.dim_y

    def check_operator(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.total_dim, self.total_dim):
            raise DimensionMismatchError(
                f"operator shape {a.shape} does not match space dim {self.total_dim}"
            )
        return a


def _split(a: np.ndarray, dim_x: int, dim_y: int) -> np.ndarray:
    """An operator on C^dim_x (x) C^dim_y as a (dim_x, dim_y, dim_x, dim_y) array."""
    a = np.asarray(a)
    d = dim_x * dim_y
    if a.shape != (d, d):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match dims {dim_x} x {dim_y}"
        )
    return a.reshape(dim_x, dim_y, dim_x, dim_y)


def partial_transpose(a: np.ndarray, dim_x: int, dim_y: int) -> np.ndarray:
    """T_X of an operator on C^dim_x (x) C^dim_y (in the standard basis).

    A pure entry permutation, so trace and Frobenius norm are preserved
    exactly.
    """
    d = dim_x * dim_y
    return _split(a, dim_x, dim_y).transpose(2, 1, 0, 3).reshape(d, d)


def partial_trace(a: np.ndarray, dim_x: int, dim_y: int) -> np.ndarray:
    """Tr_X of an operator on C^dim_x (x) C^dim_y."""
    return np.trace(_split(a, dim_x, dim_y), axis1=0, axis2=2)


def orthogonal_complement(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the space orthogonal to all ``vectors``.

    Membership threshold: singular values below ``NULL_SPACE_RTOL`` times the
    largest are treated as zero.
    """
    if not vectors:
        return np.eye(dim, dtype=complex)
    m = np.array([np.asarray(v, dtype=complex).conj() for v in vectors])
    if m.shape[1] != dim:
        raise DimensionMismatchError("vector length does not match dim")
    _, sv, vh = np.linalg.svd(m)
    cutoff = NULL_SPACE_RTOL * (sv[0] if sv.size else 1.0)
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
    iu, ju = np.triu_indices(d, k=1)
    iu.flags.writeable = ju.flags.writeable = False  # cached, so shared by every caller
    return iu, ju


def herm_to_coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed orthonormal basis,
    (..., d, d) -> (..., d^2) for a stack of matrices.

    Isometric: the Euclidean norm of the coordinates equals the Frobenius
    norm of the matrix.
    """
    h = np.asarray(h, dtype=complex)
    iu, ju = _triu_indices(h.shape[-1])
    off = h[..., iu, ju]
    return np.concatenate(
        [np.diagonal(h, axis1=-2, axis2=-1).real, math.sqrt(2.0) * off.real,
         math.sqrt(2.0) * off.imag],
        axis=-1,
    )


def coords_to_herm(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_to_coords`, (..., d^2) -> (..., d, d)."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 0 or c.shape[-1] != d * d:
        raise DimensionMismatchError(f"expected {d * d} coordinates, got shape {c.shape}")
    iu, ju = _triu_indices(d)
    m = iu.size
    h = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    h[..., np.arange(d), np.arange(d)] = c[..., :d]
    off = (c[..., d : d + m] + 1j * c[..., d + m :]) / math.sqrt(2.0)
    h[..., iu, ju] = off
    h[..., ju, iu] = off.conj()
    return h


@lru_cache(maxsize=None)
def hermitian_basis_matrix(d: int) -> np.ndarray:
    """Complex (d^2, d^2) matrix whose columns are vec(B_r) for the fixed
    Hermitian basis, so that vec(H) = T @ herm_to_coords(H). Read-only."""
    t = coords_to_herm(np.eye(d * d), d).reshape(d * d, d * d).T
    t.flags.writeable = False
    return t


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

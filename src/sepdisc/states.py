"""Constructors for the state families used throughout the package.

Bell states, the partially entangled two-qubit resource, the domino / tiles /
Feng product families and the Yu-Duan-Ying states, the ensemble (which owns
its symmetry blocks) and orthonormal-product-set containers, plus the resource
extension: tensor a 2 (x) 2 ensemble with the resource and reorder factors so
that both of Alice's qubits form the X side of C^4 (x) C^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    BipartiteSpace,
    DimensionMismatchError,
    NonHermitianError,
    PAULI,
    kron,
    require_hermitian,
    vec,
)

PSD_TOL = 1e-10
PROB_TOL = 1e-12
UNIT_TOL = 1e-12
PHASE_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
# Eigenvalue gap, relative to the largest, that separates symmetry blocks, and
# the tolerance of each block's check as a joint eigenspace.
BLOCK_TOL = 1e-8

CATALOG_NAMES = ("bell3", "bell4", "ydy", "domino", "tiles", "feng", "tiles_psi")

# Local unitaries fixing every Bell state, and tau(eps) for every eps. The
# angle pi/2 of diag(1, e^{i theta}) (x) diag(1, e^{-i theta}) gives the joint
# eigenspaces of any angle in (0, pi), also conjugated on X, with exact entries.
BELL_SYMMETRY = ((PAULI[1], PAULI[1]), (PAULI[3], PAULI[3]))
RESOURCE_SYMMETRY = ((PAULI[3], PAULI[3]), (np.diag([1.0, 1j]), np.diag([1.0, -1j])))


def ket(dim: int, coeffs: dict[int, complex]) -> np.ndarray:
    """Normalized vector with the given sparse coefficients."""
    v = np.zeros(dim, dtype=complex)
    for i, c in coeffs.items():
        v[i] = c
    return v / np.linalg.norm(v)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first amplitude above ``PHASE_TOL``
    (relative to the largest, or to 1) is real positive."""
    v = np.asarray(v, dtype=complex)
    nz = np.flatnonzero(np.abs(v) > PHASE_TOL * max(1.0, np.abs(v).max(initial=0.0)))
    if nz.size == 0:
        return v
    a = v[nz[0]]
    return v * (abs(a) / a)


def bell(k: int) -> np.ndarray:
    """The four Bell states on C^2 (x) C^2, indexed 1..4."""
    table = {
        1: {0: 1, 3: 1},   # (|00> + |11>)/sqrt(2)
        2: {0: 1, 3: -1},  # (|00> - |11>)/sqrt(2)
        3: {1: 1, 2: 1},   # (|01> + |10>)/sqrt(2)
        4: {1: 1, 2: -1},  # (|01> - |10>)/sqrt(2)
    }
    if k not in table:
        raise ValueError(f"Bell index must be in 1..4, got {k}")
    return ket(4, table[k])


def tau(epsilon: float) -> np.ndarray:
    """Two-qubit resource sqrt((1+eps)/2)|00> + sqrt((1-eps)/2)|11>.

    eps = 0 is maximally entangled; eps = 1 is the product state |00>.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    v = np.zeros(4, dtype=complex)
    v[0] = math.sqrt((1.0 + epsilon) / 2.0)
    v[3] = math.sqrt((1.0 - epsilon) / 2.0)
    return v


def projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class ProductVector:
    """Unit product vector x (x) y with the local factors kept separate."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=complex)
        y = np.asarray(self.y, dtype=complex)
        for name, v in (("x", x), ("y", y)):
            with np.errstate(over="ignore"):  # a huge entry: an infinite norm
                norm = np.linalg.norm(v)
            if not abs(norm - 1.0) <= UNIT_TOL:  # NaN fails too
                raise ValueError(f"factor {name} is not a unit vector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def vector(self) -> np.ndarray:
        return kron(self.x, self.y)

    @property
    def projection(self) -> np.ndarray:
        """Rank-one product projection xx* (x) yy*."""
        return kron(projector(self.x), projector(self.y))

    def overlap(self, other: "ProductVector") -> float:
        """|<x, x'>| |<y, y'>|, phase-insensitive."""
        return float(abs(np.vdot(self.x, other.x)) * abs(np.vdot(self.y, other.y)))


@dataclass(frozen=True, eq=False)
class UPSet:
    """Orthonormal product set with local factors stored separately."""

    space: BipartiteSpace
    members: tuple[ProductVector, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("a product set needs at least one member")
        for m in members:
            if m.x.size != self.space.dim_x or m.y.size != self.space.dim_y:
                raise ValueError("member factors do not match the space dims")
        full = [m.vector for m in members]
        gram = np.array([[np.vdot(a, b) for b in full] for a in full])
        if np.abs(gram - np.eye(len(full))).max() > ORTHOGONALITY_TOL:
            raise ValueError("members must be pairwise orthonormal")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def projector_sum(self) -> np.ndarray:
        """Sum of the rank-one member projections."""
        return sum(m.projection for m in self.members)


def _symmetry_blocks(generators: list[np.ndarray], d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal bases V_i (d x n_i, sorted by size) of the joint eigenspaces
    of commuting unitaries, whose commutant is the sum_i V_i B_i V_i^dagger:
    the eigenspaces of a fixed generic Hermitian combination, checked. A real
    combination gets real bases, which keep a real ensemble's program real.
    One block is returned as the identity: the program over full matrices."""
    eye = np.eye(d, dtype=complex)
    eye.flags.writeable = False  # like every basis returned: Ensemble caches them
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
    bases = sorted((_pivoted_basis(v) for v in blocks), key=lambda v: v.shape[1])
    for v in bases:
        v.flags.writeable = False
    return tuple(bases)


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Bipartite space, density operators and their prior probabilities, and
    local-unitary pairs (U_X, U_Y) whose products U_X (x) U_Y commute and fix
    every state, so the discrimination programs reduce to their commutant,
    whose blocks each Ensemble object builds on first use, once."""

    space: BipartiteSpace
    states: tuple[np.ndarray, ...]
    probs: np.ndarray
    symmetry: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        states = tuple(self.space.check_operator(s) for s in self.states)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(states) != probs.size:
            raise ValueError("probs must be a flat list with one entry per state")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if probs.min(initial=0.0) < -PROB_TOL or abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("probs must be nonnegative and sum to 1")
        for rho in states:
            try:  # to the tolerance of every program built from the states
                require_hermitian(rho)
            except NonHermitianError as exc:
                raise ValueError(f"ensemble states must be Hermitian: {exc}") from None
            if abs(np.trace(rho).real - 1.0) > PSD_TOL:
                raise ValueError("ensemble states must have unit trace")
            if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -PSD_TOL:
                raise ValueError("ensemble states must be positive semidefinite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "symmetry", self._checked_symmetry())

    def _checked_symmetry(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The pairs as complex arrays; ValueError naming the first defect."""
        pairs, products = [], []
        shapes = ((self.space.dim_x,) * 2, (self.space.dim_y,) * 2)
        for i, (ux, uy) in enumerate(self.symmetry):
            ux, uy = np.asarray(ux, dtype=complex), np.asarray(uy, dtype=complex)
            if (ux.shape, uy.shape) != shapes:
                raise ValueError(f"symmetry element {i} has shapes {ux.shape} and {uy.shape}")
            u = kron(ux, uy)
            defects = [("is not unitary", u @ u.conj().T - np.eye(len(u)))]
            for k, rho in enumerate(self.states):
                defects.append((f"moves state {k}", u @ rho @ u.conj().T - rho))
            for j, p in enumerate(products):
                defects.append((f"does not commute with element {j}", u @ p - p @ u))
            for what, dev in defects:
                if np.abs(dev).max() > SYMMETRY_TOL:
                    raise ValueError(f"symmetry element {i} {what}")
            pairs.append((ux, uy))
            products.append(u)
        return tuple(pairs)

    @cached_property
    def block_bases(self) -> tuple[np.ndarray, ...]:
        """Bases V_i of the blocks of every P_k, from G = {U_X (x) U_Y}."""
        return _symmetry_blocks([kron(ux, uy) for ux, uy in self.symmetry], self.space.total_dim)

    @cached_property
    def pt_block_bases(self) -> tuple[np.ndarray, ...]:
        """Bases W_j of the blocks of every T_X(P_k), from G' = {conj(U_X) (x) U_Y}:
        T_X turns conjugation by U_X (x) U_Y into conjugation by conj(U_X) (x) U_Y."""
        conj_products = [kron(ux.conj(), uy) for ux, uy in self.symmetry]
        return _symmetry_blocks(conj_products, self.space.total_dim)

    def __len__(self) -> int:
        return len(self.states)


def uniform_pure_ensemble(space: BipartiteSpace, kets: list[np.ndarray], symmetry=()) -> Ensemble:
    n = len(kets)
    return Ensemble(space, tuple(projector(v) for v in kets), np.full(n, 1.0 / n), symmetry)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def ydy_unitaries() -> tuple[np.ndarray, ...]:
    """Pauli tensor products U_1..U_4 whose vecs give the Yu-Duan-Ying kets."""
    return (
        kron(PAULI[0], PAULI[0]),
        kron(PAULI[1], PAULI[1]),
        1j * kron(PAULI[2], PAULI[1]),
        kron(PAULI[3], PAULI[1]),
    )


def ydy_kets() -> list[np.ndarray]:
    """The four maximally entangled Yu-Duan-Ying states on C^4 (x) C^4."""
    return [vec(u) / 2.0 for u in ydy_unitaries()]


def domino_kets() -> list[np.ndarray]:
    """The nine orthonormal product states on C^3 (x) C^3 from the domino family."""
    p = lambda c: ket(3, c)
    pairs = [
        ({1: 1}, {1: 1}),
        ({0: 1}, {0: 1, 1: 1}),
        ({2: 1}, {1: 1, 2: 1}),
        ({1: 1, 2: 1}, {0: 1}),
        ({0: 1, 1: 1}, {2: 1}),
        ({0: 1}, {0: 1, 1: -1}),
        ({2: 1}, {1: 1, 2: -1}),
        ({1: 1, 2: -1}, {0: 1}),
        ({0: 1, 1: -1}, {2: 1}),
    ]
    return [kron(p(a), p(b)) for a, b in pairs]


def tiles_factors() -> list[tuple[np.ndarray, np.ndarray]]:
    """Local factors (u_k, v_k) of the tiles unextendable product set."""
    p = lambda c: ket(3, c)
    return [
        (p({0: 1}), p({0: 1, 1: -1})),
        (p({2: 1}), p({1: 1, 2: -1})),
        (p({0: 1, 1: -1}), p({2: 1})),
        (p({1: 1, 2: -1}), p({0: 1})),
        (p({0: 1, 1: 1, 2: 1}), p({0: 1, 1: 1, 2: 1})),
    ]


def tiles_orthogonal_state() -> np.ndarray:
    """A pure state orthogonal to every tiles member:
    (|00> + |01> - |02> - |12>)/2."""
    return ket(9, {0: 1, 1: 1, 2: -1, 5: -1})


def feng_factors() -> list[tuple[np.ndarray, np.ndarray]]:
    """Local factors of the 8-member unextendable product set on C^4 (x) C^4."""
    p = lambda c: ket(4, c)
    return [
        (p({0: 1}), p({0: 1})),
        (p({1: 1}), p({0: 1, 2: -1, 3: 1})),
        (p({2: 1}), p({0: 1, 1: 1, 3: -1})),
        (p({3: 1}), p({3: 1})),
        (p({1: 1, 2: 1, 3: 1}), p({0: 1, 1: -1, 2: 1})),
        (p({0: 1, 2: -1, 3: 1}), p({2: 1})),
        (p({0: 1, 1: 1, 3: -1}), p({1: 1})),
        (p({0: 1, 1: -1, 2: 1}), p({1: 1, 2: 1, 3: 1})),
    ]


def _product_set(space: BipartiteSpace, factors) -> UPSet:
    return UPSet(space, tuple(ProductVector(fix_phase(u), fix_phase(v)) for u, v in factors))


def catalog(name: str):
    """Named family lookup.

    Returns an :class:`Ensemble` for "bell3", "bell4", "ydy", "domino" and
    "tiles_psi" (tiles members plus the orthogonal pure state, p = 1/6 each),
    and a UPSet for "tiles" and "feng". The Bell families carry
    ``BELL_SYMMETRY``, ydy the P (x) conj(P) for the two-qubit Paulis P.
    """
    if name in ("bell3", "bell4"):
        kets = [bell(k) for k in range(1, 4 if name == "bell3" else 5)]
        return uniform_pure_ensemble(BipartiteSpace(2, 2), kets, BELL_SYMMETRY)
    if name == "ydy":
        # P (x) conj(P) maps vec(U_k) to vec(P U_k P^dagger) = +-vec(U_k); X and
        # Z on either qubit generate all P, and are real.
        paulis = [kron(PAULI[a], PAULI[b]) for a, b in ((1, 0), (3, 0), (0, 1), (0, 3))]
        symmetry = tuple((p, p) for p in paulis)
        return uniform_pure_ensemble(BipartiteSpace(4, 4), ydy_kets(), symmetry)
    if name == "domino":
        return uniform_pure_ensemble(BipartiteSpace(3, 3), domino_kets())
    if name == "tiles":
        return _product_set(BipartiteSpace(3, 3), tiles_factors())
    if name == "feng":
        return _product_set(BipartiteSpace(4, 4), feng_factors())
    if name == "tiles_psi":
        kets = [kron(u, v) for u, v in tiles_factors()] + [tiles_orthogonal_state()]
        return uniform_pure_ensemble(BipartiteSpace(3, 3), kets)
    raise ValueError(f"unknown family {name!r}; known: {', '.join(CATALOG_NAMES)}")


# ---------------------------------------------------------------------------
# Resource extension
# ---------------------------------------------------------------------------


def resource_frame_to_xy(op: np.ndarray) -> np.ndarray:
    """An operator on X1 Y1 X2 Y2 in the (X1 X2) : (Y1 Y2) frame: the middle
    qubit axes of its rows and of its columns swapped, an entry permutation."""
    return np.asarray(op).reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def extend_ensemble(e: Ensemble, epsilon: float) -> Ensemble:
    """Tensor each state of a 2 (x) 2 ensemble with the resource tau(eps) and
    reorder so the bipartition is (X1 X2) : (Y1 Y2) on C^4 (x) C^4, keeping
    the prior. The symmetry is the ensemble's, acting on X1 Y1, plus
    ``RESOURCE_SYMMETRY`` on X2 Y2."""
    if (e.space.dim_x, e.space.dim_y) != (2, 2):
        raise DimensionMismatchError("resource extension assumes a 2 (x) 2 ensemble")
    res = projector(tau(epsilon))
    states = tuple(resource_frame_to_xy(kron(s, res)) for s in e.states)
    one = PAULI[0]
    symmetry = [(kron(ux, one), kron(uy, one)) for ux, uy in e.symmetry]
    symmetry += [(kron(one, ux), kron(one, uy)) for ux, uy in RESOURCE_SYMMETRY]
    return Ensemble(BipartiteSpace(4, 4), states, e.probs, tuple(symmetry))

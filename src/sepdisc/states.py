"""Constructors for the state families used throughout the package.

Bell states, the partially entangled two-qubit resource, the domino / tiles /
Feng product families and the Yu-Duan-Ying states, plus the machinery to
tensor a 2 (x) 2 ensemble with the resource and reorder factors so that both
of Alice's qubits come first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    BipartiteSpace,
    DimensionMismatchError,
    PAULI,
    kron,
    permute_factors_matrix,
    vec,
)

PSD_TOL = 1e-10
PROB_TOL = 1e-12
UNIT_TOL = 1e-12

CATALOG_NAMES = ("bell3", "bell4", "ydy", "domino", "tiles", "feng", "tiles_psi")


def ket(dim: int, coeffs: dict[int, complex]) -> np.ndarray:
    """Normalized vector with the given sparse coefficients."""
    v = np.zeros(dim, dtype=complex)
    for i, c in coeffs.items():
        v[i] = c
    return v / np.linalg.norm(v)


def fix_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    v = np.asarray(v, dtype=complex)
    nz = np.flatnonzero(np.abs(v) > tol * max(1.0, np.abs(v).max(initial=0.0)))
    if nz.size == 0:
        return v
    a = v[nz[0]]
    return v * (abs(a) / a)


def bell(k: int) -> np.ndarray:
    """The four Bell states on C^2 (x) C^2, indexed 1..4."""
    s = 1.0 / math.sqrt(2.0)
    table = {
        1: {0: s, 3: s},   # (|00> + |11>)/sqrt(2)
        2: {0: s, 3: -s},  # (|00> - |11>)/sqrt(2)
        3: {1: s, 2: s},   # (|01> + |10>)/sqrt(2)
        4: {1: s, 2: -s},  # (|01> - |10>)/sqrt(2)
    }
    if k not in table:
        raise ValueError(f"Bell index must be in 1..4, got {k}")
    v = np.zeros(4, dtype=complex)
    for i, c in table[k].items():
        v[i] = c
    return v


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


@dataclass(frozen=True)
class ProductVector:
    """Unit product vector x (x) y with the local factors kept separate."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=complex)
        y = np.asarray(self.y, dtype=complex)
        for name, v in (("x", x), ("y", y)):
            if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
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


@dataclass(frozen=True)
class Ensemble:
    """Bipartite space, density operators and their prior probabilities."""

    space: BipartiteSpace
    states: tuple[np.ndarray, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        states = tuple(self.space.check_operator(s) for s in self.states)
        probs = np.asarray(self.probs, dtype=float)
        if len(states) != probs.size:
            raise ValueError("states and probs must have equal length")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if probs.min(initial=0.0) < -PROB_TOL or abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("probs must be nonnegative and sum to 1")
        for rho in states:
            if np.abs(rho - rho.conj().T).max() > PSD_TOL:
                raise ValueError("ensemble states must be Hermitian")
            if abs(np.trace(rho).real - 1.0) > PSD_TOL:
                raise ValueError("ensemble states must have unit trace")
            if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -PSD_TOL:
                raise ValueError("ensemble states must be positive semidefinite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.states)


def uniform_pure_ensemble(space: BipartiteSpace, kets: list[np.ndarray]) -> Ensemble:
    n = len(kets)
    return Ensemble(space, tuple(projector(v) for v in kets), np.full(n, 1.0 / n))


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
    v = np.zeros(9, dtype=complex)
    v[0], v[1], v[2], v[5] = 0.5, 0.5, -0.5, -0.5
    return v


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


def _product_set(space: BipartiteSpace, factors):
    from .ups import UPSet  # deferred: keeps the module import graph acyclic

    return UPSet(space, tuple(ProductVector(fix_phase(u), fix_phase(v)) for u, v in factors))


def catalog(name: str):
    """Named family lookup.

    Returns an :class:`Ensemble` for "bell3", "bell4", "ydy", "domino" and
    "tiles_psi" (tiles members plus the orthogonal pure state, p = 1/6 each),
    and a UPSet for "tiles" and "feng".
    """
    if name == "bell3":
        return uniform_pure_ensemble(BipartiteSpace(2, 2), [bell(1), bell(2), bell(3)])
    if name == "bell4":
        return uniform_pure_ensemble(BipartiteSpace(2, 2), [bell(k) for k in range(1, 5)])
    if name == "ydy":
        return uniform_pure_ensemble(BipartiteSpace(4, 4), ydy_kets())
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


def resource_reorder_unitary() -> np.ndarray:
    """16x16 permutation W swapping the middle factors of a four-qubit space,
    W (x1 (x) x2 (x) y1 (x) y2) = x1 (x) y1 (x) x2 (x) y2."""
    return permute_factors_matrix((2, 2, 2, 2), (0, 2, 1, 3))


def extend_with_resource(states, epsilon: float) -> Ensemble:
    """Tensor each 2 (x) 2 state with the resource tau(eps) and reorder so the
    bipartition is (X1 X2) : (Y1 Y2).

    ``states`` may be given as kets (length-4 vectors) or density operators
    (4x4); probabilities are uniform. The returned 16x16 densities live on a
    space with nested factors (2, 2) on each side.
    """
    res = projector(tau(epsilon))
    w = resource_reorder_unitary()
    out = []
    for s in states:
        s = np.asarray(s, dtype=complex)
        if s.ndim == 1:
            if s.size != 4:
                raise DimensionMismatchError("input kets must live on 2 (x) 2")
            s = projector(s)
        elif s.shape != (4, 4):
            raise DimensionMismatchError("input states must live on 2 (x) 2")
        out.append(w.T @ kron(s, res) @ w)
    space = BipartiteSpace(4, 4, factors_x=(2, 2), factors_y=(2, 2))
    n = len(out)
    return Ensemble(space, tuple(out), np.full(n, 1.0 / n))


def extend_ensemble(e: Ensemble, epsilon: float) -> Ensemble:
    """Resource extension of an existing 2 (x) 2 ensemble, keeping its prior."""
    if (e.space.dim_x, e.space.dim_y) != (2, 2):
        raise DimensionMismatchError("resource extension assumes a 2 (x) 2 ensemble")
    ext = extend_with_resource(list(e.states), epsilon)
    return Ensemble(ext.space, ext.states, e.probs)

"""Unextendable-product-set algorithms: the unextendability decision, the
finite enumeration of replacement product projections, the LP criterion for
perfect separable discrimination, a numeric estimator of the minimal product
overlap, and the certificate bounding discrimination of a UPS plus one extra
orthogonal pure state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conesolve
from .conesolve import DualCertificate, LPFeasibilityResult
from .linalg import BipartiteSpace, orthogonal_complement, partial_trace
from .states import ProductVector, fix_phase, projector

ORTHOGONALITY_TOL = 1e-10
DEDUP_OVERLAP = 1 - 1e-9
SUBSET_CAP = 20  # subset enumeration costs 2^(N-1) per index

CROSS_TERM_TOL = 1e-9
COMPLETENESS_TOL = 1e-8


class ProductSetError(ValueError):
    """The product set is outside what subset enumeration accepts: it has
    more than ``SUBSET_CAP`` members, or it is not unextendable where the
    algorithm needs that."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class UnextendabilityReport:
    unextendable: bool
    witness: ProductVector | None  # a product vector orthogonal to every member


def _check_cap(s: UPSet) -> None:
    if len(s) > SUBSET_CAP:
        raise ProductSetError(
            f"subset enumeration is capped at {SUBSET_CAP} members, got {len(s)}"
        )


def is_unextendable(s: UPSet) -> UnextendabilityReport:
    """Decide unextendability by iterating over subsets.

    For each split of the members, looks for a nonzero x orthogonal to the
    X factors on one side and a nonzero y orthogonal to the Y factors on the
    other; any such x (x) y extends the set.
    """
    _check_cap(s)
    n = len(s)
    for mask in range(2**n):
        y_side = [s.members[j].y for j in range(n) if (mask >> j) & 1]
        x_side = [s.members[j].x for j in range(n) if not (mask >> j) & 1]
        ny = orthogonal_complement(y_side, s.space.dim_y)
        if ny.shape[1] == 0:
            continue
        nx = orthogonal_complement(x_side, s.space.dim_x)
        if nx.shape[1] == 0:
            continue
        witness = ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
        return UnextendabilityReport(False, witness)
    return UnextendabilityReport(True, None)


@dataclass(frozen=True)
class ReplacementSet:
    """Per-index finite lists of product vectors orthogonal to all members
    but the indexed one (their projections are the LP columns)."""

    per_index: tuple[tuple[ProductVector, ...], ...]

    @property
    def counts(self) -> list[int]:
        return [len(lst) for lst in self.per_index]

    def all_vectors(self) -> list[ProductVector]:
        return [pv for lst in self.per_index for pv in lst]


def replacement_projections(s: UPSet) -> ReplacementSet:
    """Enumerate, for each index k, every product vector orthogonal to all
    members except the k-th.

    Follows the finiteness argument: for each subset S of the other indices,
    the X-side null space of {u_j : j in S} and the Y-side null space of
    {v_j : j not in S} can both be nonzero only if both are one-dimensional
    (anything larger would extend the set), and then the candidate is unique.
    Candidates are deduplicated under the global phase convention. A subset
    recurs under every k outside it, so each side's null space is computed
    once per subset and reused.
    """
    _check_cap(s)
    n = len(s)
    null_spaces: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def null_space(side: str, subset: tuple[int, ...]) -> np.ndarray:
        key = (side, subset)
        if key not in null_spaces:
            dim = s.space.dim_x if side == "x" else s.space.dim_y
            vectors = [getattr(s.members[j], side) for j in subset]
            null_spaces[key] = orthogonal_complement(vectors, dim)
        return null_spaces[key]

    per_index: list[tuple[ProductVector, ...]] = []
    for k in range(n):
        others = [j for j in range(n) if j != k]
        found: list[ProductVector] = []
        for mask in range(2 ** len(others)):
            x_side = tuple(j for i, j in enumerate(others) if (mask >> i) & 1)
            y_side = tuple(j for i, j in enumerate(others) if not (mask >> i) & 1)
            nx = null_space("x", x_side)
            if nx.shape[1] == 0:
                continue
            ny = null_space("y", y_side)
            if ny.shape[1] == 0:
                continue
            if nx.shape[1] > 1 or ny.shape[1] > 1:
                raise ProductSetError(
                    "input is not unextendable: a subset leaves a degree of freedom"
                )
            cand = ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
            if all(cand.overlap(prev) <= DEDUP_OVERLAP for prev in found):
                found.append(cand)
        per_index.append(tuple(found))
    return ReplacementSet(tuple(per_index))


@dataclass
class SeparableDiscriminationReport:
    """Outcome of the perfect-separable-discrimination criterion.

    Feasible: a separable measurement assembled from replacement projections
    that discriminates the members perfectly. Infeasible: a Farkas witness W
    with <W, P> >= 0 for every replacement projection but <W, 1> < 0.
    """

    feasible: bool
    measurement: "object | None"  # discrimination.Measurement when feasible
    farkas: np.ndarray | None
    replacements: ReplacementSet
    lp: LPFeasibilityResult


def separable_perfect_discrimination(s: UPSet) -> SeparableDiscriminationReport:
    """Decide whether the members of an unextendable product set can be
    perfectly discriminated by a separable measurement.

    Equivalent to the identity operator lying in the nonnegative span of the
    replacement projections; decided by LP feasibility, and the assembled
    measurement (or the Farkas witness) is re-verified directly.
    """
    from .discrimination import Measurement

    reps = replacement_projections(s)
    flat = reps.all_vectors()
    columns = [pv.projection for pv in flat]
    d = s.space.total_dim
    lp = conesolve.solve_lp_feasibility(columns, np.eye(d, dtype=complex))
    if not lp.feasible:
        return SeparableDiscriminationReport(False, None, lp.farkas, reps, lp)

    ops = []
    pos = 0
    for lst in reps.per_index:
        block = np.zeros((d, d), dtype=complex)
        for pv in lst:
            block += lp.weights[pos] * pv.projection
            pos += 1
        ops.append(block)
    meas = Measurement(tuple(ops))
    total = 0.0
    for k, member in enumerate(s.members):
        rho = projector(member.vector)
        for ell in range(len(s)):
            val = float(np.sum(rho.conj() * meas.operators[ell]).real)
            if ell == k:
                total += val
            elif val > CROSS_TERM_TOL:
                raise conesolve.ConvergenceError(
                    f"assembled measurement leaks probability {val:.2e} "
                    f"from state {k} to outcome {ell}"
                )
    if abs(total - len(s)) > COMPLETENESS_TOL * len(s):
        raise conesolve.ConvergenceError(
            f"assembled measurement is not perfect: total overlap {total!r}"
        )
    return SeparableDiscriminationReport(True, meas, None, reps, lp)


def min_product_overlap(s: UPSet, restarts: int | None = None, seed: int | None = None):
    """See-saw estimate of the minimal product overlap of the member
    projector sum (an upper estimate of the true minimum, with witness).

    Any valid certified constant for the set is a lower bound on the true
    minimum, so a sound certificate constant must never exceed this estimate;
    the estimate itself is advisory, not a certified lower bound.
    """
    from .certificates import DEFAULT_RESTARTS, DEFAULT_SEED, block_positivity_search

    return block_positivity_search(
        s.projector_sum(),
        s.space,
        restarts if restarts is not None else DEFAULT_RESTARTS,
        seed if seed is not None else DEFAULT_SEED,
    )


@dataclass
class UPSBoundReport:
    bound: float
    certificate: DualCertificate
    delta: float  # spectral norm of the Y-marginal of the extra state
    psd_margin: float  # min eigenvalue over the member slack operators


def ups_plus_state_bound(s: UPSet, z: np.ndarray, lam: float) -> UPSBoundReport:
    """Certificate bound for discriminating the members of an unextendable
    product set together with one orthogonal pure state z, uniform prior.

    With lam a certified product-overlap constant for the set and delta the
    spectral norm of Tr_X(zz*), the success probability of any separable
    measurement is at most 1 - lam / ((N+1) delta). The returned certificate
    is H = (Pi + (1 - lam/delta) zz*) / (N+1); its slack against each member
    is PSD outright, and its slack against z is block positive whenever lam
    is a valid constant.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    z = np.asarray(z, dtype=complex)
    if z.size != s.space.total_dim:
        raise ValueError("z does not live on the set's space")
    if abs(np.linalg.norm(z) - 1.0) > 1e-10:
        raise ValueError("z must be a unit vector")
    for k, member in enumerate(s.members):
        if abs(np.vdot(member.vector, z)) > ORTHOGONALITY_TOL:
            raise ValueError(f"z is not orthogonal to member {k}")

    n = len(s)
    zz = projector(z)
    delta = float(np.linalg.eigvalsh(partial_trace(zz, s.space, "x"))[-1])
    bound = 1.0 - lam / ((n + 1) * delta)
    h = (s.projector_sum() + (1.0 - lam / delta) * zz) / (n + 1)
    cert = DualCertificate(h, "sep-dual")
    margin = math.inf
    for member in s.members:
        slack = cert.matrix - projector(member.vector) / (n + 1)
        margin = min(margin, float(np.linalg.eigvalsh((slack + slack.conj().T) / 2)[0]))
    return UPSBoundReport(bound=bound, certificate=cert, delta=delta, psd_margin=margin)


def tiles_overlap_constant() -> float:
    """Analytic certified product-overlap constant for the tiles set:
    (1 - sqrt(5/6))^2 / 9."""
    return (1.0 - math.sqrt(5.0 / 6.0)) ** 2 / 9.0

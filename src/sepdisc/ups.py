"""Unextendable-product-set algorithms: the unextendability decision, the
finite enumeration of replacement product projections, the LP criterion for
perfect separable discrimination, and the certificate bounding
discrimination of a UPS plus one extra orthogonal pure state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conesolve
from .conesolve import DualCertificate, LPFeasibilityResult
from .discrimination import Measurement
from .linalg import orthogonal_complement, partial_trace
from .states import ORTHOGONALITY_TOL, ProductVector, UPSet, fix_phase, projector

DEDUP_OVERLAP = 1 - 1e-9
SUBSET_CAP = 20  # subset enumeration costs 2^(N-1) per index

CROSS_TERM_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
UNIT_NORM_TOL = 1e-10


class ProductSetError(ValueError):
    """The product set is outside what subset enumeration accepts: it has
    more than ``SUBSET_CAP`` members, or it is not unextendable where the
    algorithm needs that."""


@dataclass(frozen=True, eq=False)
class UnextendabilityReport:
    unextendable: bool
    witness: ProductVector | None  # a product vector orthogonal to every member


class ExtraStateError(ValueError):
    """The extra state z of :func:`ups_plus_state_bound` is not a unit vector
    on the set's space orthogonal to every member."""


def _check_cap(s: UPSet) -> None:
    if len(s) > SUBSET_CAP:
        raise ProductSetError(
            f"subset enumeration is capped at {SUBSET_CAP} members, got {len(s)}"
        )


def _splits(s: UPSet, members: list[int], complements: dict, reverse: bool = False):
    """Yield (nx, ny), the complements of the X factors of the X side and of
    the Y factors of the Y side, for each split of ``members`` where both are
    nonzero. Bit i of a split's mask puts ``members[i]`` on the X side; masks
    run upwards, or downwards with ``reverse``. ``complements`` is the
    caller's table, keyed by (side, subset), shared by all its calls."""

    def complement(side: str, subset: tuple[int, ...]) -> np.ndarray:
        if (side, subset) not in complements:
            dim = s.space.dim_x if side == "x" else s.space.dim_y
            vectors = [getattr(s.members[j], side) for j in subset]
            complements[side, subset] = orthogonal_complement(vectors, dim)
        return complements[side, subset]

    masks = range(2 ** len(members))
    for mask in reversed(masks) if reverse else masks:
        nx = complement("x", tuple(j for i, j in enumerate(members) if (mask >> i) & 1))
        if nx.shape[1] == 0:
            continue
        ny = complement("y", tuple(j for i, j in enumerate(members) if not (mask >> i) & 1))
        if ny.shape[1] > 0:
            yield nx, ny


def is_unextendable(s: UPSet) -> UnextendabilityReport:
    """Decide unextendability by the split search over all members.

    Any split with a nonzero x orthogonal to the X factors on one side and a
    nonzero y orthogonal to the Y factors on the other gives a product vector
    x (x) y that extends the set; the witness is the first one found, with
    the splits visited from all members on the X side down to none.
    """
    _check_cap(s)
    for nx, ny in _splits(s, list(range(len(s))), {}, reverse=True):
        witness = ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
        return UnextendabilityReport(False, witness)
    return UnextendabilityReport(True, None)


@dataclass(frozen=True, eq=False)
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

    Follows the finiteness argument: the split search over the other members
    can find both complements nonzero only if both are one-dimensional
    (anything larger would extend the set), and then the candidate is unique.
    Candidates are deduplicated under the global phase convention. A subset
    recurs under every k outside it, so all k share one complement table.
    """
    _check_cap(s)
    n = len(s)
    complements: dict = {}
    per_index: list[tuple[ProductVector, ...]] = []
    for k in range(n):
        found: list[ProductVector] = []
        for nx, ny in _splits(s, [j for j in range(n) if j != k], complements):
            if nx.shape[1] > 1 or ny.shape[1] > 1:
                raise ProductSetError(
                    "input is not unextendable: a subset leaves a degree of freedom"
                )
            cand = ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
            if all(cand.overlap(prev) <= DEDUP_OVERLAP for prev in found):
                found.append(cand)
        per_index.append(tuple(found))
    return ReplacementSet(tuple(per_index))


@dataclass(eq=False)
class SeparableDiscriminationReport:
    """Outcome of the perfect-separable-discrimination criterion.

    Feasible: a separable measurement assembled from replacement projections
    that discriminates the members perfectly. Infeasible: a Farkas witness W
    with <W, P> >= 0 for every replacement projection but <W, 1> < 0.
    """

    feasible: bool
    measurement: Measurement | None
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


@dataclass(eq=False)
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
    is a valid constant. Raises ValueError unless lam is positive and lam /
    delta is finite, and ExtraStateError unless z is a unit vector on the
    set's space orthogonal to every member.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    z = np.asarray(z, dtype=complex)
    if z.size != s.space.total_dim:
        raise ExtraStateError("z does not live on the set's space")
    with np.errstate(over="ignore"):  # a huge entry: an infinite norm
        norm = np.linalg.norm(z)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ExtraStateError("z must be a unit vector")
    for k, member in enumerate(s.members):
        if abs(np.vdot(member.vector, z)) > ORTHOGONALITY_TOL:
            raise ExtraStateError(f"z is not orthogonal to member {k}")

    n = len(s)
    zz = projector(z)
    delta = float(np.linalg.eigvalsh(partial_trace(zz, s.space.dim_x, s.space.dim_y))[-1])
    if not math.isfinite(lam / delta):
        raise ValueError(f"lam {lam!r} is too large: lam / delta overflows (delta = {delta!r})")
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

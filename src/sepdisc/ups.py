"""Unextendable-product-set algorithms: the unextendability decision, the
finite enumeration of replacement product projections, the LP criterion for
perfect separable discrimination, and the certificate bounding
discrimination of a UPS plus one extra orthogonal pure state. The first two
share one split search over member subsets, whose factor complements come
from one stacked SVD per side and subset size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import conesolve
from .certificates import margin_bounds
from .conesolve import DualCertificate, LPFeasibilityResult
from .discrimination import Measurement
from .linalg import NULL_SPACE_RTOL, partial_trace
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


class _Complements:
    """Complements of one side's factors per member subset, keyed by bitmask
    (bit j for member j). A size's first lookup fills all its subsets with
    one stacked SVD of the factors in increasing member order; a stacked SVD
    runs the same LAPACK routine per matrix, so each complement is, to the
    bit, that of one SVD of that subset's factors alone."""

    def __init__(self, s: UPSet, side: str):
        self._rows = np.array([getattr(m, side) for m in s.members]).conj()
        self._table = {0: np.eye(self._rows.shape[1], dtype=complex)}

    def __getitem__(self, mask: int) -> np.ndarray:
        if mask not in self._table:
            subsets = list(itertools.combinations(range(len(self._rows)), mask.bit_count()))
            _, sv, vh = np.linalg.svd(self._rows[np.array(subsets)])
            ranks = np.sum(sv > NULL_SPACE_RTOL * sv[:, :1], axis=1)
            for subset, rank, v in zip(subsets, ranks, vh):
                self._table[sum(1 << j for j in subset)] = v[rank:].conj().T
        return self._table[mask]


def _splits(members: list[int], cx: _Complements, cy: _Complements, reverse: bool = False):
    """Yield (nx, ny), the complements of the X factors of the X side and of
    the Y factors of the Y side, for each split of ``members`` where both are
    nonzero. Bit i of a split's mask puts ``members[i]`` on the X side; masks
    run upwards, or downwards with ``reverse``. ``cx`` and ``cy`` are the
    caller's X and Y tables, shared by all its calls."""
    x_sides = [0]  # x_sides[mask]: the member bitmask of that split's X side
    for j in members:
        x_sides += [side | 1 << j for side in x_sides]
    everyone = x_sides[-1]
    for x_side in reversed(x_sides) if reverse else x_sides:
        nx = cx[x_side]
        if nx.shape[1] == 0:
            continue
        ny = cy[everyone ^ x_side]
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
    cx, cy = _Complements(s, "x"), _Complements(s, "y")
    for nx, ny in _splits(list(range(len(s))), cx, cy, reverse=True):
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
    recurs under every k outside it, so all k share one pair of complement
    tables.
    """
    _check_cap(s)
    n = len(s)
    cx, cy = _Complements(s, "x"), _Complements(s, "y")
    per_index: list[tuple[ProductVector, ...]] = []
    for k in range(n):
        found: list[ProductVector] = []
        for nx, ny in _splits([j for j in range(n) if j != k], cx, cy):
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
    columns: tuple[np.ndarray, ...]  # their projections, read-only, in all_vectors() order
    lp: LPFeasibilityResult


def separable_perfect_discrimination(s: UPSet) -> SeparableDiscriminationReport:
    """Decide whether the members of an unextendable product set can be
    perfectly discriminated by a separable measurement.

    Equivalent to the identity operator lying in the nonnegative span of the
    replacement projections; decided by LP feasibility, and the assembled
    measurement (or the Farkas witness) is re-verified directly.
    """
    reps = replacement_projections(s)
    columns = tuple(pv.projection for pv in reps.all_vectors())
    for col in columns:
        col.flags.writeable = False
    d = s.space.total_dim
    lp = conesolve.solve_lp_feasibility(list(columns), np.eye(d, dtype=complex))
    if not lp.feasible:
        return SeparableDiscriminationReport(False, None, lp.farkas, reps, columns, lp)

    ops = []
    pos = 0
    for lst in reps.per_index:
        block = np.zeros((d, d), dtype=complex)
        for _ in lst:
            block += lp.weights[pos] * columns[pos]
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
    return SeparableDiscriminationReport(True, meas, None, reps, columns, lp)


@dataclass(eq=False)
class UPSBoundReport:
    bound: float
    certificate: DualCertificate
    delta: float  # spectral norm of the Y-marginal of the extra state
    psd_margin: float  # min eigenvalue over the member slack operators
    extra_state_margin_bound: float  # lower bound on the z slack's block-positivity margin


def ups_plus_state_bound(s: UPSet, z: np.ndarray, lam: float) -> UPSBoundReport:
    """Certificate bound for discriminating the members of an unextendable
    product set together with one orthogonal pure state z, uniform prior.

    With lam a certified product-overlap constant for the set and delta the
    spectral norm of Tr_X(zz*), the success probability of any separable
    measurement is at most 1 - lam / ((N+1) delta). The returned certificate
    is H = (Pi + (1 - lam/delta) zz*) / (N+1); its slack against each member
    is PSD outright, and its slack against z is block positive whenever lam
    is a valid constant. The report bounds both slacks' margins, the z
    slack's from its residual against (Pi - (lam/delta) zz*) / (N+1). Raises
    ValueError unless lam is positive and lam / delta is finite, and
    ExtraStateError unless z is a unit vector on the set's space orthogonal
    to every member.
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
    slack = cert.matrix - zz / (n + 1)
    # For unit product v, <v|Pi|v> >= lam and |<v|z>|^2 <= delta, so
    # (Pi - (lam/delta) zz*) / (n+1) is block positive. lam/delta <= dim_y
    # lam, so the few-ulp errors of lam and delta move its entries by far
    # less than the rounding budget.
    exact = (s.projector_sum() - (lam / delta) * zz) / (n + 1)
    [extra] = margin_bounds([float(np.abs(slack - exact).max())], [slack])
    return UPSBoundReport(bound=bound, certificate=cert, delta=delta, psd_margin=margin,
                          extra_state_margin_bound=extra)


def tiles_overlap_constant() -> float:
    """Analytic certified product-overlap constant for the tiles set:
    (1 - sqrt(5/6))^2 / 9."""
    return (1.0 - math.sqrt(5.0 / 6.0)) ** 2 / 9.0

import numpy as np
import pytest

from feng_fixture import EXPECTED_REPLACEMENTS
from sepdisc.certificates import block_positivity_search
from sepdisc import conesolve
from sepdisc.conesolve import verify_farkas
from sepdisc.linalg import BipartiteSpace, orthogonal_complement
from sepdisc.states import ProductVector, UPSet, catalog, fix_phase, projector, tiles_orthogonal_state
from sepdisc.ups import (
    DEDUP_OVERLAP,
    is_unextendable,
    replacement_projections,
    separable_perfect_discrimination,
    tiles_overlap_constant,
    ups_plus_state_bound,
)

E2 = np.eye(2, dtype=complex)
E3 = np.eye(3, dtype=complex)
E4 = np.eye(4, dtype=complex)


def pv(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return ProductVector(x / np.linalg.norm(x), y / np.linalg.norm(y))


def two_member_extendable_set():
    return UPSet(BipartiteSpace(2, 2), (pv(E2[0], E2[0]), pv(E2[1], E2[1])))


def unnormalized(coeffs, dim):
    v = np.zeros(dim, dtype=complex)
    for i, c in coeffs:
        v[i] = c
    return v / np.linalg.norm(v)


def test_ups_validation():
    with pytest.raises(ValueError):
        UPSet(BipartiteSpace(2, 2), (pv(E2[0], E2[0]), pv(E2[0], E2[0])))


def test_tiles_and_feng_unextendable():
    assert is_unextendable(catalog("tiles")).unextendable
    assert is_unextendable(catalog("feng")).unextendable


def test_two_member_set_extendable_with_witness():
    report = is_unextendable(two_member_extendable_set())
    assert not report.unextendable
    w = report.witness
    assert np.allclose(w.x, E2[0]) and np.allclose(w.y, E2[1])
    for m in two_member_extendable_set().members:
        assert abs(np.vdot(m.vector, w.vector)) <= 1e-12


def test_replacement_counts_feng():
    counts = replacement_projections(catalog("feng")).counts
    assert counts == [6] * 8


def test_replacement_counts_tiles():
    # frozen from the pre-build subset-enumeration oracle
    counts = replacement_projections(catalog("tiles")).counts
    assert counts == [6, 6, 6, 6, 6]


def test_replacement_orthogonality_exhaustive():
    for name in ("tiles", "feng"):
        s = catalog(name)
        reps = replacement_projections(s)
        for k, lst in enumerate(reps.per_index):
            others = [m for j, m in enumerate(s.members) if j != k]
            for cand in lst:
                for m in others:
                    assert abs(np.vdot(m.vector, cand.vector)) <= 1e-10


def test_replacement_matches_frozen_feng_lists():
    reps = replacement_projections(catalog("feng"))
    for k, expected in enumerate(EXPECTED_REPLACEMENTS):
        got = reps.per_index[k]
        assert len(got) == len(expected) == 6
        for cu, cv in expected:
            ex = ProductVector(unnormalized(cu, 4), unnormalized(cv, 4))
            best = max(ex.overlap(g) for g in got)
            assert best >= 1 - 1e-9
        for g in got:
            best = max(
                g.overlap(ProductVector(unnormalized(cu, 4), unnormalized(cv, 4)))
                for cu, cv in expected
            )
            assert best >= 1 - 1e-9


def reference_replacements(s):
    """Replacement enumeration with both null spaces recomputed for every
    (k, subset), vectors passed in increasing member order."""
    n = len(s)
    per_index = []
    for k in range(n):
        others = [j for j in range(n) if j != k]
        found = []
        for mask in range(2 ** len(others)):
            x_side = [s.members[j].x for i, j in enumerate(others) if (mask >> i) & 1]
            y_side = [s.members[j].y for i, j in enumerate(others) if not (mask >> i) & 1]
            nx = orthogonal_complement(x_side, s.space.dim_x)
            if nx.shape[1] == 0:
                continue
            ny = orthogonal_complement(y_side, s.space.dim_y)
            if ny.shape[1] == 0:
                continue
            cand = ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
            if all(cand.overlap(prev) <= DEDUP_OVERLAP for prev in found):
                found.append(cand)
        per_index.append(found)
    return per_index


def reference_witness(s):
    """The unextendability witness with both null spaces recomputed for every
    split, from all members on the X side down to none."""
    n = len(s)
    for mask in reversed(range(2 ** n)):
        nx = orthogonal_complement([s.members[j].x for j in range(n) if (mask >> j) & 1],
                                   s.space.dim_x)
        ny = orthogonal_complement([s.members[j].y for j in range(n) if not (mask >> j) & 1],
                                   s.space.dim_y)
        if nx.shape[1] > 0 and ny.shape[1] > 0:
            return ProductVector(fix_phase(nx[:, 0]), fix_phase(ny[:, 0]))
    return None


def one_member_removed(name):
    s = catalog(name)
    return [UPSet(s.space, s.members[:k] + s.members[k + 1:]) for k in range(len(s))]


@pytest.mark.parametrize("name", ["tiles", "feng"])
def test_replacement_null_space_reuse_is_bitwise_identical(name):
    # The stacked per-size SVDs give each complement to the bit.
    s = catalog(name)
    got = replacement_projections(s).per_index
    want = reference_replacements(s)
    assert [len(lst) for lst in got] == [len(lst) for lst in want]
    for got_k, want_k in zip(got, want):
        for g, w in zip(got_k, want_k):
            assert g.x.tobytes() == w.x.tobytes()
            assert g.y.tobytes() == w.y.tobytes()
    # So does every witness: the 5 or 8 sets with one member removed are
    # extendable, and so is the two-member set.
    sets = one_member_removed(name) + [two_member_extendable_set()]
    for t in sets:
        got, want = is_unextendable(t).witness, reference_witness(t)
        assert got is not None and want is not None
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()


def test_replacement_rejects_extendable_input():
    with pytest.raises(ValueError):
        replacement_projections(two_member_extendable_set())


def test_tiles_separable_discrimination_feasible():
    s = catalog("tiles")
    report = separable_perfect_discrimination(s)
    assert report.feasible
    assert report.farkas is None
    assert all(w >= 0 for w in report.lp.weights)
    ops = report.measurement.operators
    assert np.abs(sum(ops) - np.eye(9)).max() <= 1e-8
    for k, member in enumerate(s.members):
        rho = projector(member.vector)
        for ell, op in enumerate(ops):
            val = float(np.sum(rho.conj() * op).real)
            if ell != k:
                assert val <= 1e-9
    total = sum(
        float(np.sum(projector(m.vector).conj() * ops[k]).real)
        for k, m in enumerate(s.members)
    )
    assert abs(total - len(s)) <= 1e-8 * len(s)


def test_feng_separable_discrimination_infeasible():
    s = catalog("feng")
    report = separable_perfect_discrimination(s)
    assert not report.feasible
    assert report.measurement is None
    cols = [pv_.projection for pv_ in report.replacements.all_vectors()]
    assert verify_farkas(cols, np.eye(16, dtype=complex), report.farkas)


def test_feng_lp_keeps_a_row_per_rank(monkeypatch):
    # The LP's 256 coordinate rows against 49 columns have rank 49, and the
    # row reduction keeps 49 of them that still have that rank.
    seen = []
    reduce_rows = conesolve.independent_rows

    def spy(rows):
        kept = reduce_rows(rows)
        seen.append((rows, kept))
        return kept

    monkeypatch.setattr(conesolve, "independent_rows", spy)
    separable_perfect_discrimination(catalog("feng"))
    [(rows, kept)] = seen
    assert rows.shape == (256, 49) and np.linalg.matrix_rank(rows) == 49
    assert kept.size == 49 and np.linalg.matrix_rank(rows[kept]) == 49


def test_min_product_overlap_complete_basis():
    basis = UPSet(
        BipartiteSpace(2, 2),
        tuple(pv(E2[i], E2[j]) for i in range(2) for j in range(2)),
    )
    report = block_positivity_search(basis.projector_sum(), basis.space, 30, 11)
    assert abs(report.min_overlap - 1.0) <= 1e-10


def test_min_product_overlap_tiles_dominates_analytic_constant():
    s = catalog("tiles")
    report = block_positivity_search(s.projector_sum(), s.space, 300, 11)
    assert report.min_overlap >= tiles_overlap_constant()
    assert report.min_overlap > 0


def test_min_product_overlap_feng_positive():
    s = catalog("feng")
    report = block_positivity_search(s.projector_sum(), s.space, 200, 11)
    assert report.min_overlap > 0


def test_bound_values_and_certificate():
    s = catalog("tiles")
    z = tiles_orthogonal_state()
    lam = tiles_overlap_constant()
    report = ups_plus_state_bound(s, z, lam)
    delta_expected = (2 + np.sqrt(2)) / 4  # = cos^2(pi/8)
    assert abs(report.delta - delta_expected) <= 1e-12
    assert abs(report.bound - (1 - lam / (6 * report.delta))) <= 1e-15
    assert report.bound < 1 - 1.647e-4
    assert abs(report.certificate.claimed_value - report.bound) <= 1e-12
    assert report.psd_margin >= -1e-10
    assert report.certificate.cone_tag == "sep-dual"


def test_bound_vacuous_limit():
    s = catalog("tiles")
    z = tiles_orthogonal_state()
    report = ups_plus_state_bound(s, z, 1e-12)
    assert 1 - report.bound <= 1e-12
    assert report.psd_margin >= -1e-10


def test_bound_extra_state_slack_unrefuted():
    from sepdisc.certificates import block_positivity_search

    s = catalog("tiles")
    z = tiles_orthogonal_state()
    lam = tiles_overlap_constant()
    report = ups_plus_state_bound(s, z, lam)
    slack = (len(s) + 1) * report.certificate.matrix - projector(z)
    search = block_positivity_search(slack, s.space, restarts=300, seed=11)
    assert search.min_overlap >= -1e-9


def test_enumeration_size_cap():
    e5 = np.eye(5, dtype=complex)
    members = tuple(pv(e5[i], e5[j]) for i in range(5) for j in range(5))[:21]
    big = UPSet(BipartiteSpace(5, 5), members)
    with pytest.raises(ValueError):
        is_unextendable(big)
    with pytest.raises(ValueError):
        replacement_projections(big)


def test_bound_input_validation():
    s = catalog("tiles")
    z = tiles_orthogonal_state()
    with pytest.raises(ValueError):
        ups_plus_state_bound(s, z, 0.0)
    with pytest.raises(ValueError):
        ups_plus_state_bound(s, z * 2.0, 1e-3)
    bad = np.zeros(9, dtype=complex)
    bad[0] = 1.0  # |0>|0> is not orthogonal to the tiles members
    with pytest.raises(ValueError):
        ups_plus_state_bound(s, bad, 1e-3)

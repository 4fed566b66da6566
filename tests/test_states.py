import dataclasses

import numpy as np
import pytest

from sepdisc import certificates, conesolve, discrimination, ups
from sepdisc.linalg import PAULI, BipartiteSpace, _triu_indices, hermitian_basis_matrix, kron
from sepdisc.states import (
    Ensemble,
    ProductVector,
    UPSet,
    bell,
    catalog,
    domino_kets,
    extend_ensemble,
    feng_factors,
    fix_phase,
    projector,
    resource_frame_to_xy,
    tau,
    tiles_factors,
    tiles_orthogonal_state,
    ydy_kets,
)

S = 1 / np.sqrt(2)


def test_bell_amplitudes():
    assert np.allclose(bell(1), [S, 0, 0, S])
    assert np.allclose(bell(2), [S, 0, 0, -S])
    assert np.allclose(bell(3), [0, S, S, 0])
    assert np.allclose(bell(4), [0, S, -S, 0])


def test_bell_orthonormal():
    for i in range(1, 5):
        for j in range(1, 5):
            assert abs(np.vdot(bell(i), bell(j)) - (i == j)) <= 1e-15


def test_bell_index_error():
    with pytest.raises(ValueError):
        bell(0)
    with pytest.raises(ValueError):
        bell(5)


def test_tau_endpoints_and_norm():
    assert np.allclose(tau(1.0), [1, 0, 0, 0])
    assert np.allclose(tau(0.0), [S, 0, 0, S])
    for eps in (0.1, 0.33, 0.77):
        assert abs(np.linalg.norm(tau(eps)) - 1) <= 1e-15
    with pytest.raises(ValueError):
        tau(-0.1)
    with pytest.raises(ValueError):
        tau(1.1)


def test_catalog_ydy():
    e = catalog("ydy")
    assert isinstance(e, Ensemble)
    assert (e.space.dim_x, e.space.dim_y) == (4, 4)
    kets = ydy_kets()
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    assert np.abs(gram - np.eye(4)).max() <= 1e-15
    # printed amplitudes of the first state: all 1/2 on the diagonal kets
    assert np.allclose(kets[0], [0.5 if i % 5 == 0 else 0 for i in range(16)])


def test_catalog_domino():
    e = catalog("domino")
    assert len(e) == 9
    kets = domino_kets()
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    assert np.abs(gram - np.eye(9)).max() <= 1e-12
    # spot-check printed amplitudes
    assert np.allclose(kets[0], np.eye(9)[4])  # |1>|1>
    expected = np.zeros(9)
    expected[0], expected[1] = S, S  # |0>(|0>+|1>)/sqrt(2)
    assert np.allclose(kets[1], expected)


@pytest.mark.parametrize("name,count,dims", [("tiles", 5, (3, 3)), ("feng", 8, (4, 4))])
def test_catalog_product_sets(name, count, dims):
    s = catalog(name)
    assert isinstance(s, UPSet)
    assert len(s) == count
    assert (s.space.dim_x, s.space.dim_y) == dims
    full = [m.vector for m in s.members]
    gram = np.array([[np.vdot(a, b) for b in full] for a in full])
    assert np.abs(gram - np.eye(count)).max() <= 1e-12


def test_catalog_tiles_psi():
    e = catalog("tiles_psi")
    assert len(e) == 6
    assert np.allclose(e.probs, 1 / 6)
    psi = tiles_orthogonal_state()
    for u, v in tiles_factors():
        assert abs(np.vdot(kron(u, v), psi)) <= 1e-15
    assert np.allclose(e.states[5], projector(psi))


def test_catalog_unknown():
    with pytest.raises(ValueError):
        catalog("ghz")


def test_feng_first_member_amplitudes():
    u, v = feng_factors()[1]
    assert np.allclose(u, np.eye(4)[1])
    assert np.allclose(v, np.array([1, 0, -1, 1]) / np.sqrt(3))


def test_fix_phase():
    v = np.array([0.0, -1j, 1.0])
    w = fix_phase(v)
    assert w[1].real > 0 and abs(w[1].imag) <= 1e-15
    assert abs(np.vdot(w, w) - np.vdot(v, v)) <= 1e-15


def test_product_vector_validation():
    with pytest.raises(ValueError):
        ProductVector(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    # NaN and an overflowing norm fail the unit check too
    for bad in (np.nan, 1e300):
        with pytest.raises(ValueError, match="not a unit vector"):
            ProductVector(np.array([1.0, bad]), np.array([1.0, 0.0]))


def test_ensemble_validation():
    space = BipartiteSpace(2, 2)
    good = projector(bell(1))
    with pytest.raises(ValueError):
        Ensemble(space, (good,), np.array([0.5]))  # probs don't sum to 1
    with pytest.raises(ValueError):
        Ensemble(space, (2 * good,), np.array([1.0]))  # trace 2
    with pytest.raises(ValueError):
        Ensemble(space, (good - 0.5 * np.eye(4),), np.array([1.0]))  # not PSD
    with pytest.raises(ValueError, match="finite"):
        Ensemble(space, (good, good), np.array([1.0, np.nan]))  # NaN fails both bounds
    with pytest.raises(ValueError, match="flat list"):
        Ensemble(space, (good,), np.float64(1.0))  # a bare number, not a list
    # Hermitian to the tolerance of the programs built from it, not just 1e-10
    skew = good.copy()
    skew[0, 3] += 1e-11
    with pytest.raises(ValueError, match="must be Hermitian"):
        Ensemble(space, (skew,), np.array([1.0]))


def test_ensemble_symmetry_check_names_the_defect():
    space = BipartiteSpace(2, 2)
    states = (projector(bell(1)), projector(bell(3)))
    probs = np.array([0.5, 0.5])
    x, z = PAULI[1], PAULI[3]
    hadamard = (x + z) / np.sqrt(2.0)
    cases = [
        (((2 * x, x),), "symmetry element 0 is not unitary"),
        (((x, x), (z, np.eye(2))), "symmetry element 1 moves state 0"),
        (((x, np.eye(4)),), r"symmetry element 0 has shapes \(2, 2\) and \(4, 4\)$"),
    ]
    for symmetry, message in cases:
        with pytest.raises(ValueError, match=message):
            Ensemble(space, states, probs, symmetry)
    # U (x) conj(U) fixes the first Bell state for every U, but the
    # conjugations by x (x) x and H (x) H do not commute.
    with pytest.raises(ValueError, match="symmetry element 1 does not commute with element 0"):
        Ensemble(space, states[:1], np.array([1.0]), ((x, x), (hadamard, hadamard)))
    kept = Ensemble(space, states, probs, ((x, x), (z, z)))
    assert all(u.dtype == complex for pair in kept.symmetry for u in pair)


def test_replaced_prior_builds_its_own_equal_bases():
    # The CLI's --prior makes a new object, which builds its own bases; the
    # prior does not enter them, so they equal the original's byte for byte.
    e = extend_ensemble(catalog("bell4"), 0.6)
    r = dataclasses.replace(e, probs=np.array([0.4, 0.3, 0.2, 0.1]))
    for name in ("block_bases", "pt_block_bases"):
        ours, theirs = getattr(e, name), getattr(r, name)
        assert ours is not theirs and len(ours) == len(theirs) == 12
        for a, b in zip(ours, theirs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_shared_cached_arrays_are_read_only():
    # Every caller gets the same cached arrays, so a write into one would
    # change every program built after it.
    shared = [hermitian_basis_matrix(3), *_triu_indices(3)]
    for e in (extend_ensemble(catalog("bell4"), 0.6), catalog("domino")):
        shared += [*e.block_bases, *e.pt_block_bases]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProductVector(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        lambda: catalog("tiles"),
        lambda: catalog("bell3"),
        certificates.ydy_certificate,
        lambda: discrimination._program(catalog("bell3"), False)[0],
        lambda: discrimination.optimal_global(catalog("bell3")).solution,
        lambda: conesolve.solve_lp_feasibility([np.eye(2)], np.eye(2)),
        lambda: discrimination.local_guess_measurement(catalog("bell4"), np.eye(2), np.eye(2)),
        lambda: discrimination.optimal_global(catalog("bell3")),
        lambda: certificates.block_positivity_search(np.eye(4), BipartiteSpace(2, 2), 2, 0),
        lambda: ups.is_unextendable(catalog("tiles")),
        lambda: ups.replacement_projections(catalog("tiles")),
        lambda: ups.separable_perfect_discrimination(catalog("feng")),
        lambda: ups.ups_plus_state_bound(
            catalog("tiles"), tiles_orthogonal_state(), ups.tiles_overlap_constant()),
    ],
    ids=["ProductVector", "UPSet", "Ensemble", "DualCertificate", "SDPProblem", "SDPSolution",
         "LPFeasibilityResult", "Measurement", "DiscriminationResult",
         "ConeSearchReport", "UnextendabilityReport", "ReplacementSet",
         "SeparableDiscriminationReport", "UPSBoundReport"],
)
def test_records_compare_and_hash_by_identity(make):
    # Records that hold arrays compare by identity: a field-wise == would
    # compare arrays, which raises, and arrays do not hash.
    x = make()
    assert x == x
    assert (x == make()) is False
    hash(x)


def test_catalog_symmetries_fix_their_states():
    # Ensemble verifies each element; here only which families carry one.
    counts = {name: len(catalog(name).symmetry) for name in ("bell3", "bell4", "ydy")}
    assert counts == {"bell3": 2, "bell4": 2, "ydy": 4}
    assert catalog("domino").symmetry == catalog("tiles_psi").symmetry == ()
    ext = extend_ensemble(catalog("bell4"), 0.3)
    assert len(ext.symmetry) == 4
    # The lifted Bell elements act on X1 Y1, the resource ones on X2 Y2.
    assert np.array_equal(ext.symmetry[0][0], kron(PAULI[1], np.eye(2)))
    assert np.array_equal(ext.symmetry[3][1], kron(np.eye(2), np.diag([1.0, -1j])))


def test_resource_frame_is_the_middle_qubit_swap(rng):
    # dense reference: W e_i = e_j with the bits of j the bits (a, b, c, d)
    # of i reordered to (a, c, b, d), so W^T op W is op in the (X1 X2) frame
    w = np.zeros((16, 16))
    for i in range(16):
        a, b, c, d = (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1
        w[8 * a + 4 * c + 2 * b + d, i] = 1.0
    op = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.array_equal(resource_frame_to_xy(op), w.T @ op @ w)
    assert np.array_equal(resource_frame_to_xy(resource_frame_to_xy(op)), op)
    kets = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x1, y1, x2, y2 = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    got = resource_frame_to_xy(projector(kron(x1, y1, x2, y2)))
    assert np.abs(got - projector(kron(x1, x2, y1, y2))).max() <= 1e-14


@pytest.mark.parametrize("eps", [0.0, 0.4, 1.0])
def test_extension_states_are_pure(eps):
    e = extend_ensemble(catalog("bell3"), eps)
    assert (e.space.dim_x, e.space.dim_y) == (4, 4)
    for rho in e.states:
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def _extend_one(rho, eps):
    return extend_ensemble(Ensemble(BipartiteSpace(2, 2), (rho,), np.array([1.0])), eps).states[0]


def test_extension_commutes_with_mixing(rng):
    # extending then mixing equals mixing then extending
    a = projector(bell(1))
    b = projector(bell(3))
    lam = 0.3
    mixed = lam * a + (1 - lam) * b
    ext_mixed = _extend_one(mixed, 0.6)
    ext_a = _extend_one(a, 0.6)
    ext_b = _extend_one(b, 0.6)
    assert np.abs(ext_mixed - (lam * ext_a + (1 - lam) * ext_b)).max() <= 1e-14


def test_extension_separable_frame():
    # the extended first Bell state is phi (x) tau in the (X1 X2) frame
    eps = 0.5
    raw = kron(projector(bell(1)), projector(tau(eps)))
    e = extend_ensemble(catalog("bell3"), eps)
    assert np.array_equal(e.states[0], resource_frame_to_xy(raw))


def test_extend_ensemble_keeps_prior():
    base = catalog("bell3")
    skew = Ensemble(base.space, base.states, np.array([0.5, 0.3, 0.2]))
    ext = extend_ensemble(skew, 0.2)
    assert np.array_equal(ext.probs, skew.probs)
    with pytest.raises(Exception):
        extend_ensemble(catalog("ydy"), 0.2)

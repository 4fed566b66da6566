import numpy as np
import pytest

from sepdisc import certificates
from sepdisc.certificates import (
    _initial_directions,
    adjugate_map,
    block_positivity_search,
    breuer_hall_witness,
    choi_matrix,
    corner_scaling_map,
    four_bell_certificate_psd_margins,
    four_bell_resource_certificate,
    three_bell_resource_certificate,
    three_bell_slack_conjugations,
    three_bell_slack_map_residual,
    two_qubit_positive_map,
    ydy_certificate,
    ydy_witness_unitary,
)
from sepdisc.discrimination import four_bell_value, three_bell_value
from sepdisc.linalg import BipartiteSpace, PAULI, kron, partial_transpose, vec
from sepdisc.states import bell, catalog, extend_ensemble, projector, tau, ydy_kets, ydy_unitaries

SP22 = BipartiteSpace(2, 2)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def vector_isometry(u):
    """2x2 matrix [[conj(a), conj(b)], [-b, a]] built from u = (a, b)."""
    a, b = u
    return np.array([[np.conj(a), np.conj(b)], [-b, a]])


# -- maps --------------------------------------------------------------------


def test_corner_scaling_is_hadamard(rng):
    m = random_complex(rng, 2, 2)
    for t in (0.3, 1.0, 4.5):
        had = np.array([[t, 1.0], [1.0, 1.0 / t]])
        assert np.allclose(corner_scaling_map(m, t), had * m, atol=1e-15)
    with pytest.raises(ValueError):
        corner_scaling_map(m, 0.0)


def test_adjugate_involution_and_sandwich(rng):
    m = random_complex(rng, 2, 2)
    assert np.allclose(adjugate_map(adjugate_map(m)), m, atol=1e-15)
    for s in (0.25, 1.7):
        left = adjugate_map(m)
        right = corner_scaling_map(adjugate_map(corner_scaling_map(m, s)), s)
        assert np.allclose(left, right, atol=1e-13)


def test_vector_isometry_identities(rng):
    for _ in range(20):
        u = random_complex(rng, 2)
        v = random_complex(rng, 2)
        mu, mv = vector_isometry(u), vector_isometry(v)
        lhs = mu.conj().T @ mv
        rhs = np.outer(u, v.conj()) + adjugate_map(np.outer(v, u.conj()))
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert np.abs(mu.conj().T @ mu - np.vdot(u, u).real * np.eye(2)).max() <= 1e-12


def test_unit_scale_map_on_rank_one_blocks(rng):
    for _ in range(20):
        u = random_complex(rng, 2)
        v = random_complex(rng, 2)
        blk = np.block(
            [[np.outer(u, u.conj()), np.outer(u, v.conj())],
             [np.outer(v, u.conj()), np.outer(v, v.conj())]]
        )
        out = two_qubit_positive_map(blk, 1.0)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-12


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_positive_map_on_random_psd(t, rng):
    for _ in range(200):
        g = random_complex(rng, 4, 4)
        p = g @ g.conj().T
        out = two_qubit_positive_map(p, t)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def test_map_shape_error():
    with pytest.raises(ValueError):
        two_qubit_positive_map(np.eye(2), 1.0)


def test_choi_matrix_of_a_conjugation(rng):
    # Lambda(Y) = A Y A^dagger from L(C^4) to L(C^2) has the Choi matrix
    # (A (x) 1)|Omega><Omega|(A (x) 1)^dagger with |Omega> = vec(1).
    a = random_complex(rng, 2, 4)
    lifted = kron(a, np.eye(4)) @ vec(np.eye(4))
    got = choi_matrix(lambda y: a @ y @ a.conj().T, 2, 4)
    assert np.abs(got - np.outer(lifted, lifted.conj())).max() <= 1e-13


# -- three-Bell resource certificate ------------------------------------------


def test_bell_conjugation_relations():
    u = np.array([[1, 0], [0, 1j]], dtype=complex)
    v = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    phi = [projector(bell(k)) for k in range(1, 5)]
    for mat, image in ((u, phi[1]), (v, phi[2])):
        got = kron(mat.conj().T, mat.conj().T) @ phi[0] @ kron(mat, mat)
        assert np.abs(got - image).max() <= 1e-12
        fixed = kron(mat.conj().T, mat.conj().T) @ phi[3] @ kron(mat, mat)
        assert np.abs(fixed - phi[3]).max() <= 1e-12


def three_bell_slacks(eps):
    """H - rho_k / 3 for the certificate and the extended ensemble."""
    cert = three_bell_resource_certificate(eps)
    ens = extend_ensemble(catalog("bell3"), eps)
    return [cert.matrix - p * rho for p, rho in zip(ens.probs, ens.states)]


@pytest.mark.parametrize("eps", [0.2, 0.6, 0.9])
def test_three_bell_certificate_trace(eps):
    cert = three_bell_resource_certificate(eps)
    assert abs(cert.claimed_value - three_bell_value(eps)) <= 1e-12
    assert cert.cone_tag == "sep-dual"
    # each slack has trace Tr(H) - 1/3
    for q in three_bell_slacks(eps):
        assert abs(np.trace(q).real - (three_bell_value(eps) - 1 / 3)) <= 1e-12


def test_three_bell_certificate_rejects_endpoints():
    # eps = 1 is excluded, because r = sqrt(1 - eps^2) = 0 there; eps = 0 is
    # not, since the map-link parameter t = (1 + eps) / r stays finite.
    for eps in (1.0, -0.2, 1.2, float("nan")):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
            three_bell_resource_certificate(eps)
    assert abs(three_bell_resource_certificate(0.0).claimed_value - 1.0) <= 1e-15


@pytest.mark.parametrize("eps", [0.2, 0.6, 0.9])
def test_three_bell_conjugation_and_map_link(eps):
    slacks = three_bell_slacks(eps)
    c2, c3 = three_bell_slack_conjugations(slacks)
    assert c2 <= 1e-12 and c3 <= 1e-12
    assert three_bell_slack_map_residual(slacks[0], eps) <= 1e-12


def test_three_bell_slacks_unrefuted():
    space = BipartiteSpace(4, 4)
    for q in three_bell_slacks(0.6):
        r = block_positivity_search(q, space, restarts=200, seed=5)
        assert r.min_overlap >= -1e-9


# -- four-Bell resource certificate --------------------------------------------


def test_four_bell_certificate_trace():
    assert abs(four_bell_resource_certificate(0.0).claimed_value - 1.0) <= 1e-12
    assert abs(four_bell_resource_certificate(0.8).claimed_value - 0.8) <= 1e-12
    for eps in (0.0, 0.33, 1.0):
        cert = four_bell_resource_certificate(eps)
        assert abs(cert.claimed_value - four_bell_value(eps)) <= 1e-12
    for bad in (1.5, float("nan")):
        with pytest.raises(ValueError, match=rf"epsilon must lie in \[0, 1\], got {bad}$"):
            four_bell_resource_certificate(bad)


@pytest.mark.parametrize("eps", [0.0, 0.4, 0.8, 1.0])
def test_four_bell_certificate_psd(eps):
    cert = four_bell_resource_certificate(eps)
    assert min(four_bell_certificate_psd_margins(cert, eps)) >= -1e-10


@pytest.mark.parametrize("eps", [0.15, 0.5, 0.85])
def test_transposed_resource_plus_singlet_psd(eps):
    # the 4x4 combination behind the four-Bell feasibility argument
    root = np.sqrt(1 - eps * eps)
    comb = partial_transpose(projector(tau(eps)), 2, 2) + root / 2 * projector(bell(4))
    assert np.linalg.eigvalsh(comb).min() >= -1e-12


# -- skew-unitary witness and the YDY certificate -------------------------------


def test_breuer_hall_preconditions():
    v = 1j * kron(PAULI[2], PAULI[3])
    for u in ydy_unitaries():
        skew = v.T @ u
        assert np.abs(skew.T + skew).max() <= 1e-12
    with pytest.raises(ValueError):
        breuer_hall_witness(np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        breuer_hall_witness(2 * np.eye(4, dtype=complex), v)


def test_breuer_hall_trace():
    v = 1j * kron(PAULI[2], PAULI[3])
    w = breuer_hall_witness(ydy_unitaries()[0], v)
    assert abs(np.trace(w).real - 8.0) <= 1e-12


def test_breuer_hall_compressions_are_projections(rng):
    v = 1j * kron(PAULI[2], PAULI[3])
    w = breuer_hall_witness(ydy_unitaries()[1], v)
    for _ in range(100):
        raw = rng.standard_normal(8)
        y = raw[:4] + 1j * raw[4:]
        y /= np.linalg.norm(y)
        iy = kron(np.eye(4, dtype=complex), y.reshape(-1, 1))
        m = iy.conj().T @ w @ iy
        assert np.abs(m @ m - m).max() <= 1e-10
        assert abs(np.trace(m).real - 2.0) <= 1e-10  # rank n - 2


def test_ydy_certificate_trace_and_identity():
    cert = ydy_certificate()
    assert cert.claimed_value == 0.75
    v = 1j * kron(PAULI[2], PAULI[3])
    assert np.array_equal(ydy_witness_unitary(), v)
    kets = ydy_kets()
    for k, u in enumerate(ydy_unitaries()):
        # the ket is vec(U)/2, so the slack is the witness over 16
        assert np.abs(kets[k] - vec(u) / 2.0).max() <= 1e-15
        diff = cert.matrix - projector(kets[k]) / 4.0 - breuer_hall_witness(u, v) / 16.0
        assert np.abs(diff).max() <= 1e-12


def test_ydy_certificate_search_unrefuted():
    cert = ydy_certificate()
    rho3 = projector(ydy_kets()[2])
    r = block_positivity_search(
        cert.matrix - rho3 / 4.0, BipartiteSpace(4, 4), restarts=1000, seed=3
    )
    assert r.min_overlap >= -1e-9


# -- see-saw search --------------------------------------------------------------


def test_search_identity():
    r = block_positivity_search(np.eye(4, dtype=complex), SP22, restarts=20, seed=1)
    assert abs(r.min_overlap - 1.0) <= 1e-12


def test_search_swap():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    r = block_positivity_search(swap, SP22, restarts=100, seed=1)
    assert abs(r.min_overlap) <= 1e-10
    # the swap expectation of a product state is |<x, y>|^2
    got = abs(np.vdot(r.witness.x, r.witness.y)) ** 2
    assert abs(got - r.min_overlap) <= 1e-10


def test_search_refutes_scaled_identity_minus_bell():
    h = 0.4 * np.eye(4, dtype=complex) - projector(bell(1))
    r = block_positivity_search(h, SP22, restarts=200, seed=2)
    assert abs(r.min_overlap - (-0.1)) <= 1e-9
    assert r.refuted
    # witness reaches the maximal product overlap 1/2 with the Bell state
    overlap = abs(np.vdot(bell(1), r.witness.vector)) ** 2
    assert abs(overlap - 0.5) <= 1e-9


def test_search_report_invariant_and_determinism():
    h = 0.4 * np.eye(4, dtype=complex) - projector(bell(1))
    a = block_positivity_search(h, SP22, restarts=50, seed=9)
    b = block_positivity_search(h, SP22, restarts=50, seed=9)
    assert a.min_overlap == b.min_overlap
    assert np.array_equal(a.witness.x, b.witness.x)
    assert np.array_equal(a.witness.y, b.witness.y)
    prod = a.witness.vector
    recomputed = float(np.real(prod.conj() @ h @ prod))
    assert abs(recomputed - a.min_overlap) <= 1e-12
    assert a.restarts == 50 and a.seed == 9 and a.iterations_per_restart >= 1


def test_search_min_never_increases_with_restarts():
    h = 0.4 * np.eye(4, dtype=complex) - projector(bell(1))
    mins = [
        block_positivity_search(h, SP22, restarts=r, seed=4).min_overlap
        for r in (5, 20, 80)
    ]
    assert mins[1] <= mins[0] + 1e-15
    assert mins[2] <= mins[1] + 1e-15


def test_initial_directions_are_prefix_stable_unit_rows():
    many = _initial_directions(3, 40, 5)
    assert many.shape == (40, 3)
    assert np.array_equal(many[:7], _initial_directions(3, 7, 5))
    assert np.abs(np.linalg.norm(many, axis=1) - 1.0).max() <= 1e-15
    other = _initial_directions(3, 40, 6)
    assert not np.any(np.all(many == other, axis=1))


@pytest.mark.parametrize(
    "restarts, seed, message",
    [(0, 1, "restarts must be at least 1"), (-5, 1, "restarts"), (10, -1, "seed must be nonnegative")],
)
def test_search_rejects_bad_restarts_and_seed(restarts, seed, message):
    with pytest.raises(ValueError, match=message):
        block_positivity_search(np.eye(4, dtype=complex), SP22, restarts=restarts, seed=seed)


def test_search_rejects_restarts_beyond_memory_before_drawing(monkeypatch):
    # 10**15 restarts of 2 * dim_y doubles exceed physical memory: the check
    # fails before any start vector is drawn.
    def no_draw(*args):
        pytest.fail("start vectors drawn")

    monkeypatch.setattr(certificates, "_initial_directions", no_draw)
    with pytest.raises(ValueError, match="^restarts must fit in memory, got 1000000000000000$"):
        block_positivity_search(np.eye(4, dtype=complex), SP22, restarts=10**15, seed=1)

import numpy as np
import pytest

from sepdisc.linalg import (
    BipartiteSpace,
    DimensionMismatchError,
    NonHermitianError,
    PAULI,
    coords_to_herm,
    herm_to_coords,
    hermitian_basis_matrix,
    kron,
    orthogonal_complement,
    partial_trace,
    partial_transpose,
    require_hermitian,
    vec,
)
from sepdisc.states import bell, projector, tau, tiles_orthogonal_state


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    g = random_complex(rng, d, d)
    return (g + g.conj().T) / 2


# -- kron ------------------------------------------------------------------


def test_kron_pauli_product():
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    assert np.array_equal(kron(PAULI[1], PAULI[1]), expected)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_index_formula(rng):
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 2, 2)
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for s in range(2):
                    want = a[i, j] * b[r, s]
                    assert abs(k[i * 2 + r, j * 2 + s] - want) <= 1e-15 * (1 + abs(want))


def test_kron_mixed_product_property(rng):
    for dims in [(2, 3), (3, 2), (4, 2)]:
        a, c = random_complex(rng, dims[0], dims[0]), random_complex(rng, dims[0], dims[0])
        b, d = random_complex(rng, dims[1], dims[1]), random_complex(rng, dims[1], dims[1])
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(right)


# -- partial transpose -----------------------------------------------------


def test_partial_transpose_product_operator(rng):
    q = random_complex(rng, 3, 3)
    r = random_complex(rng, 3, 3)
    assert np.allclose(partial_transpose(kron(q, r), 3, 3), kron(q.T, r), atol=1e-14)


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(projector(bell(1)), 2, 2)
    w = np.linalg.eigvalsh(pt)
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_involution(rng):
    h = random_hermitian(rng, 6)
    assert np.array_equal(partial_transpose(partial_transpose(h, 2, 3), 2, 3), h)


def test_partial_transpose_preserves_trace_and_norm(rng):
    h = random_hermitian(rng, 8)
    pt = partial_transpose(h, 2, 4)
    assert np.trace(pt) == np.trace(h)
    assert abs(np.linalg.norm(pt) - np.linalg.norm(h)) <= 1e-15 * np.linalg.norm(h)


def test_partial_transpose_equals_two_qubit_reshape(rng):
    # T_X of C^4 (x) C^4 with X = X1 X2 permutes entries exactly as
    # transposing both qubit factors of X does
    a = random_complex(rng, 16, 16)
    two_qubit = a.reshape((2,) * 8).transpose(4, 5, 2, 3, 0, 1, 6, 7).reshape(16, 16)
    assert np.array_equal(partial_transpose(a, 4, 4), two_qubit)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_transpose(np.eye(5), 2, 2)
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), 2, 2)


# -- vec --------------------------------------------------------------------


def test_vec_matrix_unit():
    e10 = np.zeros((2, 2))
    e10[1, 0] = 1.0
    expected = np.zeros(4)
    expected[2] = 1.0  # |1>|0>
    assert np.array_equal(vec(e10), expected)


def test_vec_of_identity_gives_maximally_entangled():
    from sepdisc.states import ydy_kets

    assert np.allclose(vec(np.eye(4)) / 2.0, ydy_kets()[0])


def test_vec_linearity_and_inner_product(rng):
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    al, be = random_complex(rng), random_complex(rng)
    assert np.allclose(vec(al * a + be * b), al * vec(a) + be * vec(b))
    hs = np.trace(a.conj().T @ b)
    assert abs(np.vdot(vec(a), vec(b)) - hs) <= 1e-12 * abs(hs)


# -- partial trace ------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.9])
def test_resource_marginal_spectrum(eps):
    red = partial_trace(projector(tau(eps)), 2, 2)
    w = np.linalg.eigvalsh(red)
    assert np.allclose(w, [(1 - eps) / 2, (1 + eps) / 2], atol=1e-14)


def test_require_hermitian_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_partial_trace_bell_marginal():
    red = partial_trace(projector(bell(1)), 2, 2)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_tiles_state_marginal():
    # frozen: the largest eigenvalue of the Y marginal is cos^2(pi/8),
    # computed independently from the 2x2 Gram of the coefficient matrix
    rho = projector(tiles_orthogonal_state())
    red = partial_trace(rho, 3, 3)
    expected = (2 + np.sqrt(2)) / 4  # = cos^2(pi/8)
    assert abs(np.linalg.eigvalsh(red)[-1] - expected) <= 1e-12
    assert abs(np.cos(np.pi / 8) ** 2 - expected) <= 1e-15


def test_partial_trace_product(rng):
    q = random_hermitian(rng, 2)
    r = random_hermitian(rng, 3)
    got = partial_trace(kron(q, r), 2, 3)
    assert np.allclose(got, np.trace(q) * r, atol=1e-13)
    assert abs(np.trace(got) - np.trace(kron(q, r))) <= 1e-13


def test_partial_trace_equals_sum_of_compressions(rng):
    # Tr_X(A) = sum_i (<i| (x) 1) A (|i> (x) 1)
    a = random_complex(rng, 12, 12)
    want = sum(
        kron(np.eye(3)[i], np.eye(4)) @ a @ kron(np.eye(3)[i], np.eye(4)).T for i in range(3)
    )
    assert np.abs(partial_trace(a, 3, 4) - want).max() <= 1e-12


# -- hermitian basis -----------------------------------------------------------


def test_herm_coords_roundtrip_and_isometry(rng):
    for d in (1, 2, 5):
        h = random_hermitian(rng, d)
        c = herm_to_coords(h)
        assert c.dtype == float and c.size == d * d
        assert np.allclose(coords_to_herm(c, d), h, atol=1e-14)
        assert abs(np.linalg.norm(c) - np.linalg.norm(h)) <= 1e-13


def test_herm_coords_on_stacks_equal_per_matrix_calls(rng):
    for d in (1, 3, 16):
        hs = np.stack([random_hermitian(rng, d) for _ in range(4)])
        c = herm_to_coords(hs)
        assert c.shape == (4, d * d)
        assert np.array_equal(c, np.stack([herm_to_coords(h) for h in hs]))
        back = coords_to_herm(c, d)
        assert back.shape == (4, d, d)
        assert np.array_equal(back, np.stack([coords_to_herm(ci, d) for ci in c]))
        # Any number of leading axes.
        assert np.array_equal(herm_to_coords(hs.reshape(2, 2, d, d)), c.reshape(2, 2, d * d))
        assert np.array_equal(coords_to_herm(c.reshape(2, 2, d * d), d), back.reshape(2, 2, d, d))


def test_coords_to_herm_rejects_wrong_coordinate_count():
    with pytest.raises(DimensionMismatchError):
        coords_to_herm(np.zeros(8), 3)
    with pytest.raises(DimensionMismatchError):
        coords_to_herm(np.zeros((2, 8)), 3)
    with pytest.raises(DimensionMismatchError):
        coords_to_herm(np.float64(1.0), 1)


def test_hermitian_basis_orthonormal():
    t = hermitian_basis_matrix(3)
    assert np.allclose(t.conj().T @ t, np.eye(9), atol=1e-14)


# -- space bookkeeping ----------------------------------------------------------


def test_space_validation():
    space = BipartiteSpace(4, 2)
    assert space.total_dim == 8
    with pytest.raises(ValueError):
        BipartiteSpace(0, 2)
    with pytest.raises(DimensionMismatchError):
        space.check_operator(np.eye(4))


def test_orthogonal_complement():
    basis = orthogonal_complement([np.array([1, 0, 0], dtype=complex)], 3)
    assert basis.shape == (3, 2)
    assert np.allclose(basis[0], 0)
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-14)
    assert orthogonal_complement([np.eye(2, dtype=complex)[i] for i in range(2)], 2).shape[1] == 0

"""Property tests of the LP row reduction and the LP feasibility front end
(needs hypothesis, a test extra)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sepdisc.conesolve import LP_RESIDUAL_TOL, independent_rows, solve_lp_feasibility
from sepdisc.states import projector


@st.composite
def sparse_sign_matrices(draw):
    """Up to 11 x 5 matrices of entries -1, 0 and 1, half of them 0."""
    m, n = draw(st.integers(1, 11)), draw(st.integers(1, 5))
    entries = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=float).reshape(m, n)


@settings(max_examples=500, deadline=None, database=None)
@given(sparse_sign_matrices())
@example(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
def test_independent_rows_keeps_each_rank_increment(rows):
    # Row i is kept exactly when it raises the rank of the rows before it.
    ranks = [0] + [np.linalg.matrix_rank(rows[: i + 1]) for i in range(rows.shape[0])]
    expected = [i for i in range(rows.shape[0]) if ranks[i + 1] > ranks[i]]
    assert independent_rows(rows).tolist() == expected


KETS = [
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, -1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j], dtype=complex) / np.sqrt(2),
]

# (x ket, y ket, weight) per column: a product of two of KETS on C^2 (x) C^2.
product_terms = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=6
)


@settings(max_examples=100, deadline=None, database=None)
@given(product_terms)
@example([(0, 1, 1), (1, 0, 1)])  # |01> and |10>, target their sum
def test_lp_positive_product_combination_is_feasible(terms):
    columns = [projector(np.kron(KETS[i], KETS[j])) for i, j, _ in terms]
    target = sum(c * col for (_, _, c), col in zip(terms, columns))
    res = solve_lp_feasibility(columns, target)
    assert res.feasible and res.farkas is None
    fit = sum(w * col for w, col in zip(res.weights, columns))
    assert np.linalg.norm(fit - target) <= LP_RESIDUAL_TOL

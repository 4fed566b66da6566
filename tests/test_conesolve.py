import numpy as np
import pytest

from sepdisc.conesolve import (
    DualCertificate,
    _add_schur_term,
    _block_gathers,
    _schur_block,
    IllPosedProblemError,
    SDPProblem,
    format_iterate_log,
    independent_rows,
    solve_lp_feasibility,
    solve_sdp,
    span_residual,
    verify_farkas,
    weak_duality_ok,
)
from sepdisc.discrimination import optimal_global, optimal_ppt
from sepdisc.linalg import coords_to_herm, herm_to_coords, hermitian_basis_matrix
from sepdisc.states import catalog, extend_ensemble


def forced_point_problem():
    return SDPProblem(
        block_dims=(1,),
        objective=(np.ones((1, 1), dtype=complex),),
        rows=np.array([[1.0]]),
        rhs=np.array([1.0]),
    )


def test_forced_point():
    sol = solve_sdp(forced_point_problem())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) <= 1e-8
    assert abs(sol.dual_value - 1.0) <= 1e-8


def test_solution_invariants_small():
    # maximize <A, X> s.t. Tr(X) = 1, X >= 0 on one 3x3 block: value = max eig
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (g + g.conj().T) / 2
    prob = SDPProblem(
        block_dims=(3,),
        objective=(a,),
        rows=herm_to_coords(np.eye(3, dtype=complex))[None, :],
        rhs=np.array([1.0]),
        primal_start=(np.eye(3, dtype=complex) / 3,),
        dual_start=np.array([2.0 + float(np.abs(np.linalg.eigvalsh(a)).max())]),
    )
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    top = np.linalg.eigvalsh(a)[-1]
    assert abs(sol.primal_value - top) <= 1e-7 * (1 + abs(top))
    assert abs(sol.primal_value - sol.dual_value) <= 1e-7 * (1 + abs(sol.dual_value))
    assert np.linalg.eigvalsh(sol.x_blocks[0]).min() >= -1e-9
    assert np.linalg.eigvalsh(sol.z_blocks[0]).min() >= -1e-9
    ok, worst = weak_duality_ok(sol.log)
    assert ok, worst


def test_deterministic_logs():
    a = solve_sdp(forced_point_problem())
    b = solve_sdp(forced_point_problem())
    assert len(a.log) == len(b.log)
    for ra, rb in zip(a.log, b.log):
        assert ra == rb
    text = format_iterate_log(a.log)
    assert text.splitlines()[0].startswith("iter\t")
    assert len(text.splitlines()) == len(a.log) + 1


def test_redundant_rows_dropped():
    # The LP has one row per Hermitian coordinate of the 2 x 2 target. With
    # columns 1 and 1, the two diagonal rows are duplicates and the two
    # off-diagonal rows are zero; with e0, e0, e1 only the zero rows go. The
    # LP drops the dependent rows itself, and solve_sdp sees only the rest.
    eye = np.eye(2, dtype=complex)
    res = solve_lp_feasibility([eye, eye], 3.0 * eye)
    assert res.feasible
    assert res.solution.y.size == 1
    assert res.solution.kept_rows.tolist() == [0]
    assert abs(res.weights.sum() - 3.0) <= 1e-8

    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    res = solve_lp_feasibility([e0, e0, e1], eye)
    assert res.feasible and res.solution.y.size == 2
    fit = sum(w * c for w, c in zip(res.weights, [e0, e0, e1]))
    assert np.abs(fit - eye).max() <= 1e-8

    # The Farkas witness is read back on all d^2 coordinates.
    target = np.diag([1.0, -1.0]).astype(complex)
    res = solve_lp_feasibility([e0, e0, e1], target)
    assert not res.feasible and res.farkas.shape == (2, 2)
    assert verify_farkas([e0, e0, e1], target, res.farkas)


def test_inconsistent_rows_raise():
    # solve_sdp takes independent rows only: a duplicated row makes the Schur
    # matrix singular at the first iterate, with a consistent rhs or not.
    for rhs in ([1.0, 1.0], [1.0, 2.0]):
        prob = SDPProblem(
            block_dims=(1,),
            objective=(np.ones((1, 1), dtype=complex),),
            rows=np.array([[1.0], [1.0]]),
            rhs=np.array(rhs),
        )
        with pytest.raises(IllPosedProblemError):
            solve_sdp(prob)


def test_independent_rows_selection():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    kept = independent_rows(rows)
    assert kept.tolist() == [0, 1]


def test_independent_rows_matches_greedy_reference(rng):
    def greedy(rows, tol=1e-10):
        kept, basis = [], np.zeros((0, rows.shape[1]))
        for i, r in enumerate(rows):
            x = r - basis.T @ (basis @ r)
            x = x - basis.T @ (basis @ x)
            nx = np.linalg.norm(x)
            if nx >= tol * max(1.0, np.linalg.norm(r)):
                basis = np.vstack([basis, x / nx])
                kept.append(i)
        return kept

    def mixed(m, n, r):
        base = rng.standard_normal((r, n))
        mix = rng.standard_normal((m, base.shape[0])) @ base
        mask = rng.random(m) < 0.5
        return np.where(mask[:, None], mix, rng.standard_normal((m, n)))

    for _ in range(100):
        m = int(rng.integers(1, 40))
        rows = mixed(m, int(rng.integers(1, 12)), max(1, m // 2))
        assert independent_rows(rows).tolist() == greedy(rows)

    # Wider than one 256-row chunk: m <= n is a single QR, m > n spans
    # several chunks of n rows.
    for m, n in ((300, 300), (200, 290), (650, 270)):
        rows = mixed(m, n, m // 4)
        kept = independent_rows(rows)
        assert kept.tolist() == greedy(rows)
        assert 0 < kept.size < m


def _random_psd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d + np.eye(d)


def _dense_schur_block(x, zinv):
    t = hermitian_basis_matrix(x.shape[0])
    return (t.conj().T @ np.kron(x, zinv.T) @ t).real


def test_schur_block_matches_dense_reference(rng):
    for d in (1, 2, 3, 9, 16):
        x, zinv = _random_psd(rng, d), _random_psd(rng, d)
        got = _schur_block(x, zinv, {})
        assert np.abs(got - _dense_schur_block(x, zinv)).max() <= 1e-12


def test_schur_block_workspace_shared_across_sizes(rng):
    # One workspace serves every block size; each result is consumed before
    # the next call, as in the solver.
    work = {}
    for d in (16, 9, 16, 1):
        x, zinv = _random_psd(rng, d), _random_psd(rng, d)
        got = _schur_block(x, zinv, work)
        assert got.shape == (d * d, d * d)
        assert np.abs(got - _dense_schur_block(x, zinv)).max() <= 1e-12
    assert sorted(work) == [1, 9, 16]


def test_schur_assembly_matches_dense_reference(rng):
    # Rows with 1, 2 and more than 2 nonzeros per block, and -1/+1 entries.
    dims = (3, 2, 1, 4)
    sizes = [d * d for d in dims]
    offsets = np.cumsum([0] + sizes)
    slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    m = 40
    rows = np.zeros((m, offsets[-1]))
    for i in range(m):
        for sl, size in zip(slices, sizes):
            nnz = int(rng.integers(0, size + 1))
            cols = rng.choice(size, size=nnz, replace=False)
            rows[i, sl.start + cols] = rng.standard_normal(nnz)
    per_row = {int(c) for sl in slices for c in np.count_nonzero(rows[:, sl], axis=1)}
    assert {1, 2} <= per_row and max(per_row) > 2
    single = np.zeros_like(rows)  # one +-1 per touched row and block
    for sl, size in zip(slices, sizes):
        touched = rng.random(m) < 0.6
        single[touched, sl.start + rng.integers(0, size, touched.sum())] = rng.choice(
            [-1.0, 1.0], touched.sum()
        )
    work = {}  # shared by both row sets, as by every block of one solve
    for c_rows in (rows, single):
        w_blocks = []
        for d in dims:
            g = rng.standard_normal((d * d, d * d))
            w_blocks.append(g + g.T)
        gathers = _block_gathers(c_rows, slices)
        assert all(g is not None for g in gathers)
        m_flat = np.zeros(m * m)
        dense = np.zeros((m, m))
        for w, g, sl in zip(w_blocks, gathers, slices):
            _add_schur_term(m_flat, w, *g, work)
            dense += c_rows[:, sl] @ w @ c_rows[:, sl].T
        got = m_flat.reshape(m, m).T  # the destinations are column-major
        if c_rows is rows:
            assert np.abs(got - dense).max() <= 1e-12 * (1.0 + np.abs(dense).max())
        else:
            assert all(g[0].shape[1] == 1 for g in gathers)
            assert np.array_equal(got, dense)


def test_newton_solve_gets_f_contiguous_dense_schur_matrix(rng, monkeypatch):
    # Strictly feasible random starts fix the first iterate, so the first
    # Schur matrix can be rebuilt densely from X_0 and Z_0.
    dims = (3, 2, 1)
    slices = [slice(0, 9), slice(9, 13), slice(13, 14)]
    m = 7
    rows = rng.standard_normal((m, 14))
    x0 = [_random_psd(rng, d) for d in dims]
    z0 = [_random_psd(rng, d) for d in dims]
    y0 = rng.standard_normal(m)
    a_coords = rows.T @ y0 - np.concatenate([herm_to_coords(z) for z in z0])
    prob = SDPProblem(
        block_dims=dims,
        objective=tuple(coords_to_herm(a_coords[sl], d) for sl, d in zip(slices, dims)),
        rows=rows,
        rhs=rows @ np.concatenate([herm_to_coords(x) for x in x0]),
        primal_start=tuple(x0),
        dual_start=y0,
    )
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        if a.shape == (m, m) and not np.iscomplexobj(a):
            seen.append((a.flags.f_contiguous, a.copy()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    sol = solve_sdp(prob)
    monkeypatch.undo()
    assert sol.status == "optimal"
    assert seen and all(f_contiguous for f_contiguous, _ in seen)
    dense = sum(
        rows[:, sl] @ _dense_schur_block(x, np.linalg.inv(z)) @ rows[:, sl].T
        for x, z, sl in zip(x0, z0, slices)
    )
    assert np.abs(seen[0][1] - dense).max() <= 1e-12 * (1.0 + np.abs(dense).max())


def test_no_workspace_state_leaks_between_solves():
    first = optimal_ppt(catalog("bell4"))  # 4-dimensional blocks
    optimal_global(extend_ensemble(catalog("bell4"), 0.6))  # 16-dimensional blocks
    again = optimal_ppt(catalog("bell4"))
    a, b = first.solution, again.solution
    assert a.log == b.log
    for u, v in zip(a.x_blocks + a.z_blocks + [a.y], b.x_blocks + b.z_blocks + [b.y]):
        assert u.tobytes() == v.tobytes()


def test_dual_certificate_trace():
    h = np.diag([0.25, 0.5]).astype(complex)
    cert = DualCertificate(h, "sep-dual")
    assert cert.claimed_value == 0.75
    assert cert.cone_tag == "sep-dual"


# -- LP feasibility -----------------------------------------------------------


def test_lp_diagonal_weights():
    cols = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    res = solve_lp_feasibility(cols, np.eye(2, dtype=complex))
    assert res.feasible
    assert res.farkas is None
    assert np.allclose(res.weights, [1.0, 1.0], atol=1e-7)
    fit = res.weights[0] * cols[0] + res.weights[1] * cols[1]
    assert np.linalg.norm(fit - np.eye(2)) <= 1e-8
    ok, worst = weak_duality_ok(res.solution.log)
    assert ok, worst


def test_lp_zero_column_leaves_block_untouched():
    # The zero column's 1x1 block appears in no constraint row.
    cols = [
        np.diag([1.0, 0.0]).astype(complex),
        np.zeros((2, 2), dtype=complex),
        np.diag([0.0, 1.0]).astype(complex),
    ]
    res = solve_lp_feasibility(cols, np.eye(2, dtype=complex))
    assert res.feasible
    assert np.allclose(res.weights[[0, 2]], [1.0, 1.0], atol=1e-7)
    ok, worst = weak_duality_ok(res.solution.log)
    assert ok, worst


def test_lp_infeasible_target_outside_span():
    cols = [np.diag([1.0, 0.0]).astype(complex)]
    target = np.diag([0.0, 1.0]).astype(complex)
    res = solve_lp_feasibility(cols, target)
    assert not res.feasible
    assert res.weights is None
    assert verify_farkas(cols, target, res.farkas)


def test_lp_infeasible_inside_span():
    # target = I - P needs a negative coefficient on P
    p = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    target = eye - p
    assert span_residual([p, eye], target) <= 1e-12
    res = solve_lp_feasibility([p, eye], target)
    assert not res.feasible
    assert verify_farkas([p, eye], target, res.farkas)
    w = res.farkas
    assert np.sum(w.conj() * target).real < 0


def test_lp_branches_mutually_exclusive():
    cols = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    res = solve_lp_feasibility(cols, np.eye(2, dtype=complex))
    assert (res.weights is None) != (res.farkas is None)


def test_lp_empty_columns():
    with pytest.raises(ValueError):
        solve_lp_feasibility([], np.eye(2, dtype=complex))


def test_span_residual():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert span_residual([p], np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-12)
    assert span_residual([p, np.eye(2, dtype=complex)], np.eye(2, dtype=complex)) <= 1e-12

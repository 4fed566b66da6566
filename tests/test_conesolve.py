import importlib
import inspect

import numpy as np
import pytest

from sepdisc import conesolve
from sepdisc.conesolve import (
    BOUNDARY_FRACTION,
    ConvergenceError,
    DualCertificate,
    _add_schur_term,
    _block_gathers,
    _max_step,
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
    # maximize X s.t. X = 1: the start X = 1 is the optimum, y = 2 gives Z = 1.
    return SDPProblem(
        block_dims=(1,),
        objective=(np.ones((1, 1), dtype=complex),),
        rows=np.array([[1.0]]),
        rhs=np.array([1.0]),
        primal_start=(np.ones((1, 1), dtype=complex),),
        dual_start=np.array([2.0]),
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
    # solve_sdp takes independent rows only: a duplicated row with a
    # consistent rhs makes the Schur matrix singular at the first iterate.
    # With an inconsistent rhs no primal start exists, and the start check
    # rejects the one given.
    data = dict(
        block_dims=(1,),
        objective=(np.ones((1, 1), dtype=complex),),
        rows=np.array([[1.0], [1.0]]),
        primal_start=(np.ones((1, 1), dtype=complex),),
        dual_start=np.array([1.0, 1.0]),
    )
    with pytest.raises(IllPosedProblemError):
        solve_sdp(SDPProblem(**data, rhs=np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match=r"primal start violates the rows by 1.00e\+00") as info:
        solve_sdp(SDPProblem(**data, rhs=np.array([1.0, 2.0])))
    assert not isinstance(info.value, IllPosedProblemError)


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

    # Hundreds of rows, at most (m <= n) and more (m > n) than the columns.
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


def _check_first_schur_matrix(rng, monkeypatch, dims, m):
    """Solves a random problem with strictly feasible random starts, which
    fix the first iterate, so the first Schur matrix can be rebuilt densely
    from X_0 and Z_0; checks it, and that every Schur matrix reaches
    np.linalg.solve F-contiguous."""
    ends = np.cumsum([d * d for d in dims]).tolist()
    slices = [slice(e - d * d, e) for d, e in zip(dims, ends)]
    rows = rng.standard_normal((m, ends[-1]))
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


def test_newton_solve_gets_f_contiguous_dense_schur_matrix(rng, monkeypatch):
    _check_first_schur_matrix(rng, monkeypatch, (3, 2, 1), 7)


def test_multi_run_first_schur_matrix_matches_dense(rng, monkeypatch):
    # Runs of equal dimension (3, 3), (2,) and (1, 1) next to each other.
    _check_first_schur_matrix(rng, monkeypatch, (3, 3, 2, 1, 1), 12)


def test_stacked_step_length_matches_per_block_reference(rng):
    def reference(blocks, dblocks):
        alpha = 1.0
        for s, ds in zip(blocks, dblocks):
            try:
                ell = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                return 0.0
            w = np.linalg.solve(ell, ds)
            t = np.linalg.solve(ell, w.conj().T).conj().T
            lam = float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[0])
            if lam < 0.0:
                alpha = min(alpha, -BOUNDARY_FRACTION / lam)
        return alpha

    def herm(d, scale):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return scale * (g + g.conj().T)

    for runs in (((1, 5),), ((3, 4),), ((16, 3),), ((3, 2), (2, 1), (1, 2))):
        blocks = [_random_psd(rng, d) for d, k in runs for _ in range(k)]
        # A small direction keeps alpha at 1; one that shrinks X hits the boundary.
        for scale, shrink in ((1e-3, 0.0), (1.0, 0.0), (1.0, 10.0)):
            dblocks = [herm(b.shape[0], scale) - shrink * b for b in blocks]
            stacks, dstacks, i = [], [], 0
            for _, k in runs:
                stacks.append(np.stack(blocks[i : i + k]))
                dstacks.append(np.stack(dblocks[i : i + k]))
                i += k
            want = reference(blocks, dblocks)
            assert _max_step(stacks, dstacks) == want
            if shrink:
                assert want < 1.0
        # One block that is not positive definite: no step at all.
        stacks[-1][-1] = -np.eye(stacks[-1].shape[-1])
        assert _max_step(stacks, dstacks) == 0.0


# maximize <diag(1, 0), X> s.t. Tr X = 1 on one 2 x 2 block: value 1, with
# the strictly feasible starts X = 1/2 and y = 2 (Z = diag(1, 2)).
_TRACE_ONE = dict(
    block_dims=(2,),
    objective=(np.diag([1.0, 0.0]).astype(complex),),
    rows=herm_to_coords(np.eye(2, dtype=complex))[None, :],
    rhs=np.array([1.0]),
)


@pytest.mark.parametrize(
    "starts, message",
    [
        ({"primal_start": None}, "primal start is missing"),
        ({"primal_start": (np.eye(3, dtype=complex) / 3,)},
         r"primal start blocks \[\(3, 3\)\] do not match \(2,\)"),
        ({"primal_start": (np.eye(2) / 2, np.eye(2) / 2)},
         r"primal start blocks \[\(2, 2\), \(2, 2\)\] do not match \(2,\)"),
        ({"primal_start": (np.array([[0.5, 0.1], [0.0, 0.5]]),)},
         "primal start is not Hermitian: Hermiticity violation"),
        ({"primal_start": (np.diag([1.0, 0.0]),)}, "primal start is not positive definite"),
        ({"primal_start": (np.eye(2) / 3,)}, "primal start violates the rows by 3.33e-01"),
        ({"dual_start": None}, "dual start is missing"),
        ({"dual_start": np.array([2.0, 0.0])}, r"dual start has shape \(2,\), not \(1,\)"),
        ({"dual_start": np.array([[2.0]])}, r"dual start has shape \(1, 1\), not \(1,\)"),
        ({"dual_start": np.array([1.0])}, "dual start's slack Z is not positive definite"),
    ],
    ids=["primal-missing", "primal-block-shape", "primal-block-count", "primal-not-hermitian",
         "primal-not-definite", "primal-rows-violated", "dual-missing", "dual-wrong-length",
         "dual-not-a-vector", "dual-slack-not-definite"],
)
def test_invalid_start_raises(starts, message):
    # Every start is verified; there is no fallback start to solve from.
    valid = dict(primal_start=(np.eye(2, dtype=complex) / 2,), dual_start=np.array([2.0]))
    sol = solve_sdp(SDPProblem(**_TRACE_ONE, **valid))
    assert sol.status == "optimal" and abs(sol.primal_value - 1.0) <= 1e-8
    with pytest.raises(ValueError, match=message):
        solve_sdp(SDPProblem(**_TRACE_ONE, **{**valid, **starts}))


def test_starts_are_required_fields():
    with pytest.raises(TypeError):
        SDPProblem(**_TRACE_ONE)


def test_no_workspace_state_leaks_between_solves():
    first = optimal_ppt(catalog("bell4"))  # 4-dimensional blocks
    optimal_global(extend_ensemble(catalog("bell4"), 0.6))  # 16-dimensional blocks
    again = optimal_ppt(catalog("bell4"))
    a, b = first.solution, again.solution
    assert a.log == b.log
    for u, v in zip(a.x_blocks + a.z_blocks + [a.y], b.x_blocks + b.z_blocks + [b.y]):
        assert u.tobytes() == v.tobytes()


def test_failed_solve_is_labelled_by_its_stop_reason(monkeypatch):
    # With every step length 0 the iteration collapses at iterate 0, which is
    # not within ACCEPT_*: the status says so, not max-iterations.
    monkeypatch.setattr(conesolve, "_max_step", lambda stacks, dstacks: 0.0)
    for solve, label in ((optimal_global, "global"), (optimal_ppt, "ppt")):
        message = f"^{label} discrimination solve ended with status step-collapse$"
        with pytest.raises(ConvergenceError, match=message) as info:
            solve(catalog("bell3"))
        sol = info.value.solution
        assert (sol.status, sol.stop_reason, sol.iterations) == ("step-collapse", "step-collapse", 0)


def test_dual_certificate_trace():
    h = np.diag([0.25, 0.5]).astype(complex)
    cert = DualCertificate(h, "sep-dual")
    assert cert.claimed_value == 0.75
    assert cert.cone_tag == "sep-dual"
    # The claimed value is the trace, never an argument.
    with pytest.raises(TypeError):
        DualCertificate(h, "sep-dual", claimed_value=0.5)


@pytest.mark.parametrize(
    "module, function, parameters",
    [
        ("conesolve", "weak_duality_ok", ["records"]),
        ("conesolve", "independent_rows", ["rows"]),
        ("conesolve", "verify_farkas", ["columns", "target", "w"]),
        ("conesolve", "solve_lp_feasibility", ["columns", "target"]),
        ("certificates", "block_positivity_search", ["h", "space", "restarts", "seed"]),
        ("certificates", "breuer_hall_witness", ["u", "v"]),
        ("linalg", "require_hermitian", ["a"]),
        ("conesolve", "solve_sdp", ["problem"]),
        ("linalg", "orthogonal_complement", ["vectors", "dim"]),
        ("states", "fix_phase", ["v"]),
    ],
)
def test_tolerances_are_module_constants(module, function, parameters):
    # Tolerances and iteration limits are fixed constants of their module,
    # not keywords: no caller in the package sets one.
    fn = getattr(importlib.import_module(f"sepdisc.{module}"), function)
    assert list(inspect.signature(fn).parameters) == parameters


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
    # A zero column's dual slack is 0 for every y, so it would admit no
    # strictly feasible dual start: it gets no block and weight 0.
    cols = [
        np.diag([1.0, 0.0]).astype(complex),
        np.zeros((2, 2), dtype=complex),
        np.diag([0.0, 1.0]).astype(complex),
    ]
    res = solve_lp_feasibility(cols, np.eye(2, dtype=complex))
    assert res.feasible
    assert len(res.solution.x_blocks) == 3  # two columns and the artificial one
    assert res.weights[1] == 0.0
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


def test_lp_only_zero_columns():
    zero = np.zeros((2, 2), dtype=complex)
    res = solve_lp_feasibility([zero, zero], np.eye(2, dtype=complex))
    assert not res.feasible and res.weights is None
    assert verify_farkas([zero, zero], np.eye(2, dtype=complex), res.farkas)


@pytest.mark.parametrize("column", [np.diag([1.0, -1.0]), np.diag([-1.0, 0.0])])
def test_lp_rejects_column_without_positive_trace(column):
    # The phase-1 dual start c * identity has slack c * Tr(column).
    cols = [np.eye(2, dtype=complex), column.astype(complex)]
    with pytest.raises(ValueError, match="every nonzero column must have positive trace"):
        solve_lp_feasibility(cols, np.eye(2, dtype=complex))


def test_lp_empty_columns():
    with pytest.raises(ValueError):
        solve_lp_feasibility([], np.eye(2, dtype=complex))


def test_span_residual():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert span_residual([p], np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-12)
    assert span_residual([p, np.eye(2, dtype=complex)], np.eye(2, dtype=complex)) <= 1e-12

import dataclasses
import importlib
import inspect
from itertools import chain

import numpy as np
import pytest

from sepdisc import conesolve
from sepdisc.conesolve import (
    BOUNDARY_FRACTION,
    ConvergenceError,
    DualCertificate,
    _add_schur_terms,
    _cholesky,
    _max_step,
    _schur_slices,
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
from sepdisc.discrimination import _program, optimal_global, optimal_ppt
from sepdisc.linalg import (
    coords_to_herm,
    herm_to_coords,
    hermitian_basis_matrix,
    hermitian_basis_support,
)
from sepdisc.states import catalog, extend_ensemble
from sepdisc.ups import separable_perfect_discrimination


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


# The per-block Schur assembly that the run-level one replaced, kept as a
# bitwise oracle: the same formula, one block and one np.add.at at a time.


def _oracle_gathers(c_rows, dims):
    m = c_rows.shape[0]
    ends = np.cumsum([d * d for d in dims]).tolist()
    out = []
    for d, e in zip(dims, ends):
        nz = c_rows[:, e - d * d : e] != 0.0
        counts = nz.sum(axis=1)
        tb = np.flatnonzero(counts)
        if tb.size == 0:
            out.append(None)
            continue
        r_loc, c_loc = np.nonzero(nz[tb])
        counts = counts[tb]
        pos = np.arange(r_loc.size) - (np.cumsum(counts) - counts)[r_loc]
        col = np.zeros((tb.size, int(counts.max())), dtype=np.intp)
        val = np.zeros(col.shape)
        col[r_loc, pos] = c_loc
        val[r_loc, pos] = c_rows[tb[r_loc], e - d * d + c_loc]
        out.append((col, val, (tb[:, None] * m + tb[None, :]).reshape(-1)))
    return out


def _oracle_block(xb, zinv):
    d = xb.shape[0]
    i1, i2, v1, v2 = hermitian_basis_support(d)
    zt = zinv.T
    parts = []
    for i, v in ((i1, v1), (i2, v2)):
        c, e = np.divmod(i, d)
        parts.append((xb[:, c][:, None] * (zt[:, e] * v)[None]).reshape(d * d, d * d))
    kt = parts[0]
    kt += 0.0
    kt += parts[1]
    g = v1.conj()[:, None] * kt[i1]
    g += v2.conj()[:, None] * kt[i2]
    w = g.real + g.real.T
    w /= 2.0
    return w


def _oracle_add_term(m_flat, w, col, val, dest):
    cw_t = val[:, 0] * w[:, col[:, 0]]
    for p in range(1, col.shape[1]):
        cw_t += val[:, p] * w[:, col[:, p]]
    term_t = val[:, 0, None] * cw_t[col[:, 0]]
    for p in range(1, col.shape[1]):
        term_t += val[:, p, None] * cw_t[col[:, p]]
    np.add.at(m_flat, dest, term_t.reshape(-1))


def _oracle_add_schur_terms(m_flat, x_stacks, zinv_stacks, gathers, work):
    for xb, zinv, g in zip(chain(*x_stacks), chain(*zinv_stacks), gathers):
        if g is not None:
            _oracle_add_term(m_flat, _oracle_block(xb, zinv), *g)


def _use_oracle(monkeypatch):
    """Makes solve_sdp assemble its Schur matrices with the oracle."""
    monkeypatch.setattr(
        conesolve, "_schur_slices",
        lambda c_rows, runs: _oracle_gathers(c_rows, [d for d, k in runs for _ in range(k)]),
    )
    monkeypatch.setattr(conesolve, "_add_schur_terms", _oracle_add_schur_terms)


def _schur_pair(rng, dims, c_rows, work=None):
    """M from the run-level assembly and from the oracle, on random X and
    Z^-1 blocks, as m x m arrays in the layout solve_sdp gives LAPACK."""
    runs = conesolve._runs(dims)
    blocks = [(_random_psd(rng, d), _random_psd(rng, d)) for d in dims]
    x_stacks = conesolve._stack([x for x, _ in blocks], runs)
    zinv_stacks = conesolve._stack([z for _, z in blocks], runs)
    m = c_rows.shape[0]
    got, want = np.zeros(m * m + 1), np.zeros(m * m)
    slices = _schur_slices(c_rows, runs)
    _add_schur_terms(got, x_stacks, zinv_stacks, slices, {} if work is None else work)
    _oracle_add_schur_terms(want, x_stacks, zinv_stacks, _oracle_gathers(c_rows, dims), None)
    dense = sum(
        c_rows[:, sl] @ _dense_schur_block(x, z) @ c_rows[:, sl].T
        for (x, z), sl in zip(blocks, _block_slices(dims))
    )
    assert np.abs(got[:-1] - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    assert np.abs(want.reshape(m, m).T - dense).max() <= 1e-12 * (1.0 + np.abs(dense).max())
    return got[:-1].reshape(m, m).T, want.reshape(m, m).T, slices


def _block_slices(dims):
    ends = np.cumsum([d * d for d in dims]).tolist()
    return [slice(e - d * d, e) for d, e in zip(dims, ends)]


def _sparse_rows(rng, dims, m, density=0.3, untouched=()):
    """Rows with 0 to all nonzeros per row and block, -1/+1 and real entries;
    the blocks at positions ``untouched`` get no nonzero."""
    rows = np.zeros((m, sum(d * d for d in dims)))
    for j, sl in enumerate(_block_slices(dims)):
        if j in untouched:
            continue
        size = sl.stop - sl.start
        mask = rng.random((m, size)) < density
        vals = np.where(rng.random((m, size)) < 0.5, rng.choice([-1.0, 1.0], (m, size)),
                        rng.standard_normal((m, size)))
        rows[:, sl] = np.where(mask, vals, 0.0)
    return rows


def test_schur_block_matches_dense_reference(rng):
    # With one row per coordinate of a single block, M is that block's W.
    for d in (1, 2, 3, 9, 16):
        got, want, _ = _schur_pair(rng, (d,), np.eye(d * d))
        assert np.array_equal(got, want)
        assert got.shape == (d * d, d * d)


def test_schur_block_workspace_shared_across_sizes(rng):
    # One workspace serves every slice shape of every solve; each slice is
    # consumed before the next one uses the same buffers.
    work = {}
    for d in (16, 9, 16, 1):
        dims = (d,) * 3
        got, want, _ = _schur_pair(rng, dims, _sparse_rows(rng, dims, 20), work)
        assert np.array_equal(got, want)
    # Buffers up to W per (d, s), after it per (d^2, s, t).
    assert {key[0] for key in work if len(key) == 2} == {1, 9, 16}
    assert {key[0] for key in work if len(key) == 3} == {1, 81, 256}


def test_schur_assembly_matches_dense_reference(rng):
    # Rows with 1, 2 and more than 2 nonzeros per block, and -1/+1 entries,
    # across runs of different sizes; then one +-1 per touched row and block.
    dims = (3, 2, 1, 4)
    m = 40
    rows = _sparse_rows(rng, dims, m)
    per_row = {int(c) for sl in _block_slices(dims) for c in np.count_nonzero(rows[:, sl], axis=1)}
    assert {1, 2} <= per_row and max(per_row) > 2
    single = np.zeros_like(rows)
    for sl in _block_slices(dims):
        size = sl.stop - sl.start
        touched = rng.random(m) < 0.6
        single[touched, sl.start + rng.integers(0, size, touched.sum())] = rng.choice(
            [-1.0, 1.0], touched.sum()
        )
    work = {}  # shared by both row sets, as by every slice of one solve
    for c_rows in (rows, single):
        got, want, _ = _schur_pair(rng, dims, c_rows, work)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d, k, m", [(1, 40, 30), (2, 24, 40), (3, 6, 30), (9, 4, 60), (16, 3, 80)])
def test_run_schur_terms_equal_per_block_oracle(rng, d, k, m):
    dims = (d,) * k
    got, want, slices = _schur_pair(rng, dims, _sparse_rows(rng, dims, m))
    assert np.array_equal(got, want)
    if d <= 2:
        assert len(slices) == 1  # the whole run is one slice
    if d == 16:
        assert [s[1] for s in slices] == [slice(0, 1), slice(1, 2), slice(2, 3)]  # one per slice


def test_run_longer_than_one_slice_equals_oracle(rng, monkeypatch):
    # Shrinking the slice budget cuts one run of 3-dim blocks into several
    # slices, the last one shorter; rows repeat across slices, so the sums
    # into M cross slice boundaries.
    monkeypatch.setattr(conesolve, "SCHUR_SLICE_BYTES", 40_000)
    dims = (3,) * 7 + (1,) * 5
    got, want, slices = _schur_pair(rng, dims, _sparse_rows(rng, dims, 25, density=0.5))
    assert np.array_equal(got, want)
    sizes = [s[1].stop - s[1].start for s in slices if s[0] == 0]
    assert len(sizes) > 2 and sizes[-1] < sizes[0]


def test_untouched_blocks_are_left_out(rng):
    dims = (2,) * 6 + (3,) * 2
    rows = _sparse_rows(rng, dims, 20, untouched=(0, 3, 5, 7))
    got, want, slices = _schur_pair(rng, dims, rows)
    assert np.array_equal(got, want)
    # Slices hold consecutive blocks only, so an untouched block ends one.
    assert [(s[0], s[1]) for s in slices] == [(0, slice(1, 3)), (0, slice(4, 5)), (1, slice(0, 1))]
    # A run that no row touches has no slice at all.
    rows[:, -18:] = 0.0
    assert [s[0] for s in _schur_slices(rows, conesolve._runs(dims))] == [0, 0]


def test_mixed_gather_shapes_in_one_run_equal_oracle(rng):
    # Blocks touched by 1 to all rows, with 1 to all nonzeros per row: the
    # slice pads them to one shape, and the padding goes to the sink entry.
    dims = (2,) * 8
    m = 30
    rows = np.zeros((m, 32))
    for j, sl in enumerate(_block_slices(dims)):
        t = 1 + (j * 29) // 7
        rows[rng.choice(m, t, replace=False), sl.start + rng.integers(0, 4, t)] = 1.0
        if j % 2:
            rows[:t, sl] += rng.standard_normal((t, 4))
    gathers = _oracle_gathers(rows, dims)
    assert len({g[0].shape for g in gathers}) > 4
    got, want, slices = _schur_pair(rng, dims, rows)
    assert np.array_equal(got, want)
    [(_, _, _, _, vals, dest)] = slices
    assert vals.shape[0] == 4 and (dest == m * m).any()


def test_lp_shaped_run_of_1x1_blocks_equals_oracle(rng):
    # The LP's phase-1 program: one 1x1 block per column, rows = independent
    # coordinate rows of the columns, dense where a column is.
    cols = [rng.standard_normal((6, 6)) for _ in range(30)]
    coords = np.stack([herm_to_coords((c + c.T) * (rng.random((6, 6)) < 0.2)) for c in cols], axis=1)
    rows = coords[independent_rows(coords)]
    dims = (1,) * rows.shape[1]
    got, want, slices = _schur_pair(rng, dims, rows)
    assert np.array_equal(got, want)
    assert len(slices) == 1 and slices[0][1] == slice(0, len(dims))


def test_real_programs_bit_identical_to_per_block_assembly(monkeypatch):
    """The reduced bell4 x tau(0.6) PPT program, the reduced ydy global
    program and the feng separable LP: every iterate, X, y and Z equal those
    of the per-block oracle to the byte."""
    runs = (
        lambda: optimal_ppt(extend_ensemble(catalog("bell4"), 0.6)).solution,
        lambda: optimal_global(catalog("ydy")).solution,
        lambda: separable_perfect_discrimination(catalog("feng")).lp.solution,
    )
    shipped = [run() for run in runs]
    _use_oracle(monkeypatch)
    for run, a in zip(runs, shipped):
        b = run()
        assert format_iterate_log(a.log) == format_iterate_log(b.log)
        assert (a.status, a.stop_reason, a.iterations) == (b.status, b.stop_reason, b.iterations)
        assert a.y.tobytes() == b.y.tobytes()
        for u, v in zip(a.x_blocks + a.z_blocks, b.x_blocks + b.z_blocks, strict=True):
            assert u.tobytes() == v.tobytes()


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
            assert _max_step(_cholesky(stacks), dstacks) == want
            if shrink:
                assert want < 1.0
        # One block that is not positive definite: no factors, no step at all.
        stacks[-1][-1] = -np.eye(stacks[-1].shape[-1])
        blocks[-1] = stacks[-1][-1]
        assert _cholesky(stacks) is None
        assert reference(blocks, dblocks) == _max_step(_cholesky(stacks), dstacks) == 0.0


def test_each_iterate_is_factored_once(monkeypatch):
    # Two Cholesky calls per run check the starts; each step then factors the
    # new X and Z once per run, and Z^-1 and the four step lengths share them.
    e = extend_ensemble(catalog("bell4"), 0.6)
    problem, _ = _program(e, ppt=True)
    runs = len(conesolve._runs(problem.block_dims))
    assert runs == 2
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    sol = solve_sdp(problem)
    assert sol.stop_reason == "converged"
    assert len(calls) == 2 * runs * (sol.iterations + 1)


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


@pytest.mark.parametrize("block", ["X", "Z"])
def test_iterate_that_cannot_be_factored(monkeypatch, block):
    # _cholesky's calls: the starts' X and Z, then each step's new X and Z.
    # After the first step, an X without factors gets a primal step of 0 and
    # the solve goes on; a Z without factors ends it as factorization-failed.
    calls = []
    cholesky = conesolve._cholesky

    def fail_once(stacks):
        calls.append(len(calls))
        return None if len(calls) == {"X": 3, "Z": 4}[block] else cholesky(stacks)

    monkeypatch.setattr(conesolve, "_cholesky", fail_once)
    valid = dict(primal_start=(np.eye(2, dtype=complex) / 2,), dual_start=np.array([2.0]))
    sol = solve_sdp(SDPProblem(**_TRACE_ONE, **valid))
    if block == "Z":
        assert (sol.status, sol.stop_reason, sol.iterations) == (
            "factorization-failed", "factorization-failed", 1)
    else:
        assert sol.status == "optimal" and sol.iterations > 2
        assert sol.log[1].alpha_primal > 0.0 and sol.log[2].alpha_primal == 0.0
        assert sol.log[2].alpha_dual > 0.0


def test_starts_are_required_fields():
    with pytest.raises(TypeError):
        SDPProblem(**_TRACE_ONE)


def test_no_workspace_state_leaks_between_solves():
    # The full forms, without symmetry blocks: one workspace serves the
    # 4-dimensional blocks, then the 16-dimensional ones, then the 4 again.
    bell4 = dataclasses.replace(catalog("bell4"), symmetry=())
    first = optimal_ppt(bell4)  # 4-dimensional blocks
    optimal_global(dataclasses.replace(extend_ensemble(catalog("bell4"), 0.6), symmetry=()))
    again = optimal_ppt(bell4)
    assert {x.shape for x in first.solution.x_blocks} == {(4, 4)}
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
        # The split search's rank cutoff, NULL_SPACE_RTOL, is no keyword either.
        ("ups", "is_unextendable", ["s"]),
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sepdisc
from feng_fixture import EXPECTED_REPLACEMENTS
from sepdisc.certificates import (
    DEFAULT_SEED,
    block_positivity_search,
    breuer_hall_witness,
    three_bell_resource_certificate,
    three_bell_slack_conjugations,
    three_bell_slack_map_residual,
    two_qubit_positive_map,
    ydy_certificate,
)
from sepdisc.conesolve import verify_farkas, weak_duality_ok
from sepdisc.discrimination import (
    local_guess_measurement,
    measurement_value,
    optimal_global,
    optimal_ppt,
    three_bell_value,
    four_bell_value,
)
from sepdisc.linalg import BipartiteSpace, PAULI, kron
from sepdisc.states import (
    Ensemble,
    ProductVector,
    catalog,
    extend_ensemble,
    projector,
    tiles_orthogonal_state,
    ydy_unitaries,
)
from sepdisc.ups import (
    is_unextendable,
    replacement_projections,
    separable_perfect_discrimination,
    tiles_overlap_constant,
    ups_plus_state_bound,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed_ppt(ensemble):
    t0 = time.perf_counter()
    result = optimal_ppt(ensemble)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def four_bell_curve():
    return {
        eps: _timed_ppt(extend_ensemble(catalog("bell4"), eps))
        for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    }


@pytest.fixture(scope="module")
def three_bell_points():
    return {
        eps: _timed_ppt(extend_ensemble(catalog("bell3"), eps))
        for eps in (0.1, 0.2, 0.33, 0.5, 0.8)
    }


@pytest.fixture(scope="module")
def domino_ppt():
    return optimal_ppt(catalog("domino"))


def test_criterion_1_bare_bell_families():
    r4, dt4 = _timed_ppt(catalog("bell4"))
    r3, dt3 = _timed_ppt(catalog("bell3"))
    err4 = abs(r4.value - 0.5)
    err3 = abs(r3.value - 2 / 3)
    ok = err4 <= 1e-6 and err3 <= 1e-6 and dt4 < 5.0 and dt3 < 5.0
    _report(
        1, ok,
        f"ppt(bell4) = {r4.value:.9f} (err {err4:.1e}, {dt4:.2f}s); "
        f"ppt(bell3) = {r3.value:.9f} (err {err3:.1e}, {dt3:.2f}s)",
    )


def test_criterion_2_four_bell_resource_curve(four_bell_curve):
    details = []
    ok = True
    for eps, (result, dt) in four_bell_curve.items():
        expected = four_bell_value(eps)
        err = abs(result.value - expected)
        ok = ok and err <= 1e-5 and dt < 30.0
        details.append(f"eps={eps}: {result.value:.8f} vs {expected:.8f} ({dt:.1f}s)")
    _report(2, ok, "; ".join(details))


def test_criterion_3_three_bell_resource_points(three_bell_points):
    details = []
    ok = True
    for eps in (0.1, 0.2, 0.33):
        value = three_bell_points[eps][0].value
        ok = ok and abs(value - 1.0) <= 1e-6
        details.append(f"eps={eps}: {value:.8f} (=1)")
    for eps in (0.5, 0.8):
        value = three_bell_points[eps][0].value
        floor = three_bell_value(eps)
        ok = ok and value >= floor - 1e-6
        details.append(f"eps={eps}: {value:.8f} >= {floor:.8f}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_three_bell_certificates():
    space = BipartiteSpace(4, 4)
    ok = True
    details = []
    for eps in (0.2, 0.6, 0.9):
        cert, slacks = three_bell_resource_certificate(eps)
        trace_err = abs(cert.claimed_value - three_bell_value(eps))
        link = three_bell_slack_map_residual(slacks[0], eps)
        conj = max(three_bell_slack_conjugations(slacks))
        worst = min(
            block_positivity_search(q, space, restarts=1000, seed=DEFAULT_SEED).min_overlap
            for q in slacks
        )
        ok = ok and trace_err <= 1e-12 and link <= 1e-12 and conj <= 1e-12 and worst >= -1e-9
        details.append(
            f"eps={eps}: trace_err {trace_err:.1e}, link {link:.1e}, "
            f"conj {conj:.1e}, search_min {worst:.1e}"
        )
    _report(4, ok, "; ".join(details))


def test_criterion_5_ydy(ydy_ppt, rng):
    value_err = abs(ydy_ppt.value - 7 / 8)
    cert = ydy_certificate()
    v = 1j * kron(PAULI[2], PAULI[3])
    skew = max(float(np.abs((v.T @ u).T + v.T @ u).max()) for u in ydy_unitaries())
    proj_resid = 0.0
    witness = breuer_hall_witness(ydy_unitaries()[0], v)
    for _ in range(100):
        raw = rng.standard_normal(8)
        y = raw[:4] + 1j * raw[4:]
        y /= np.linalg.norm(y)
        iy = kron(np.eye(4, dtype=complex), y.reshape(-1, 1))
        m = iy.conj().T @ witness @ iy
        proj_resid = max(proj_resid, float(np.abs(m @ m - m).max()))
    ydy, standard = catalog("ydy"), np.eye(4)
    baseline = measurement_value(ydy, local_guess_measurement(ydy, standard, standard))
    ok = (
        value_err <= 1e-6
        and cert.claimed_value == 0.75
        and skew <= 1e-12
        and proj_resid <= 1e-10
        and baseline == 0.75
    )
    _report(
        5, ok,
        f"ppt value err {value_err:.1e}; cert trace {cert.claimed_value!r}; "
        f"skew {skew:.1e}; compression residual {proj_resid:.1e}; "
        f"local baseline {baseline!r} closes the bracket",
    )


def test_criterion_6_ups_suite():
    tiles = catalog("tiles")
    feng = catalog("feng")
    ok = is_unextendable(tiles).unextendable and is_unextendable(feng).unextendable

    reps = replacement_projections(feng)
    ok = ok and reps.counts == [6] * 8
    match = 1.0
    for k, expected in enumerate(EXPECTED_REPLACEMENTS):
        for cu, cv in expected:
            x = np.zeros(4, dtype=complex)
            y = np.zeros(4, dtype=complex)
            for i, c in cu:
                x[i] = c
            for i, c in cv:
                y[i] = c
            exp = ProductVector(x / np.linalg.norm(x), y / np.linalg.norm(y))
            match = min(match, max(exp.overlap(g) for g in reps.per_index[k]))
    ok = ok and match >= 1 - 1e-9

    tiles_rep = separable_perfect_discrimination(tiles)
    cross = 0.0
    for k, member in enumerate(tiles.members):
        rho = projector(member.vector)
        for ell, op in enumerate(tiles_rep.measurement.operators):
            if ell != k:
                cross = max(cross, float(np.sum(rho.conj() * op).real))
    ok = ok and tiles_rep.feasible and cross <= 1e-9

    feng_rep = separable_perfect_discrimination(feng)
    cols = [pv.projection for pv in feng_rep.replacements.all_vectors()]
    eye16 = np.eye(16, dtype=complex)
    farkas_ok = (not feng_rep.feasible) and verify_farkas(cols, eye16, feng_rep.farkas)
    from sepdisc.conesolve import span_residual

    resid = span_residual(cols, eye16)
    ok = ok and farkas_ok and resid > 1e-3
    _report(
        6, ok,
        f"unextendable both; feng counts {reps.counts} match >= {match:.12f}; "
        f"tiles feasible (cross {cross:.1e}); feng farkas verified; "
        f"identity span residual {resid:.4f}",
    )


def test_criterion_7_tiles_plus_state():
    tiles = catalog("tiles")
    z = tiles_orthogonal_state()
    lam = tiles_overlap_constant()
    report = ups_plus_state_bound(tiles, z, lam)
    delta_err = abs(report.delta - np.cos(np.pi / 8) ** 2)
    formula_err = abs(report.bound - (1 - lam / (6 * report.delta)))
    estimate = block_positivity_search(tiles.projector_sum(), tiles.space, 1000, DEFAULT_SEED)
    ok = (
        delta_err <= 1e-12
        and formula_err <= 1e-14
        and report.bound < 1 - 1.647e-4
        and report.psd_margin >= -1e-10
        and estimate.min_overlap >= lam
    )
    _report(
        7, ok,
        f"delta err {delta_err:.1e}; bound {report.bound!r} < 1-1.647e-4; "
        f"psd margin {report.psd_margin:.1e}; overlap estimate "
        f"{estimate.min_overlap:.6f} >= lambda {lam:.6f}",
    )


def test_ppt_solve_iteration_counts(four_bell_curve, three_bell_points, ydy_ppt, domino_ppt):
    # The predictor-corrector takes 8-12 iterations on each of these (12 for
    # bell3 at eps = 0.33, next to the kink at 1/3); the fixed-sigma
    # direction it replaced took 16-27. Each ends on the DEFAULT_* test, not
    # on the stall exit, which would stop at the looser ACCEPT_* accuracy.
    solutions = {f"bell4 eps={eps}": r for eps, (r, _) in four_bell_curve.items()}
    solutions.update({f"bell3 eps={eps}": r for eps, (r, _) in three_bell_points.items()})
    solutions.update(ydy=ydy_ppt, domino=domino_ppt)
    counts = {name: r.solution.iterations for name, r in solutions.items()}
    assert max(counts.values()) <= 12, counts
    reasons = {name: r.solution.stop_reason for name, r in solutions.items()}
    assert set(reasons.values()) == {"converged"}, reasons


def test_ppt_iteration_count_on_one_blas_thread():
    # Where a solve stops depends on BLAS roundoff, which depends on the
    # thread count. Before the Schur solve was refined against the applied
    # operator, bell4 x tau(0.8) took 16 iterations on one OpenBLAS thread
    # and 9 on two, because its primal residual jumped to 7e-8.
    code = (
        "from sepdisc.discrimination import optimal_ppt\n"
        "from sepdisc.states import catalog, extend_ensemble\n"
        "s = optimal_ppt(extend_ensemble(catalog('bell4'), 0.8)).solution\n"
        "print(s.iterations, s.stop_reason)\n"
    )
    src = os.path.dirname(os.path.dirname(sepdisc.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    iterations, reason = out.stdout.split()
    assert int(iterations) <= 12 and reason == "converged", out.stdout


def test_criterion_8_property_suites(
    four_bell_curve, three_bell_points, domino_ppt, bell4_ppt, bell3_ppt, ydy_ppt, ydy_global, rng
):
    # weak duality on every logged iterate of every solve exercised here
    solutions = [bell4_ppt, bell3_ppt, ydy_ppt, ydy_global, domino_ppt]
    solutions += [r for r, _ in four_bell_curve.values()]
    solutions += [r for r, _ in three_bell_points.values()]
    duality_ok = True
    worst_margin = -np.inf
    for res in solutions:
        ok_i, margin = weak_duality_ok(res.solution.log)
        duality_ok = duality_ok and ok_i
        worst_margin = max(worst_margin, margin)

    # positive-map battery: 1e4 random PSD inputs x 5 parameter values
    min_eig = np.inf
    mats = rng.standard_normal((10_000, 4, 4)) + 1j * rng.standard_normal((10_000, 4, 4))
    psd = mats @ np.conj(np.swapaxes(mats, 1, 2))
    for t in (0.1, 0.5, 1.0, 2.0, 10.0):
        outs = np.empty_like(psd)
        for i in range(psd.shape[0]):
            outs[i] = two_qubit_positive_map(psd[i], t)
        outs = (outs + np.conj(np.swapaxes(outs, 1, 2))) / 2
        min_eig = min(min_eig, float(np.linalg.eigvalsh(outs)[:, 0].min()))
    maps_ok = min_eig >= -1e-10

    # vector-isometry identities behind the rank-one positivity argument
    iso_resid = 0.0
    from sepdisc.certificates import adjugate_map

    for _ in range(50):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mu = np.array([[np.conj(u[0]), np.conj(u[1])], [-u[1], u[0]]])
        mw = np.array([[np.conj(w[0]), np.conj(w[1])], [-w[1], w[0]]])
        lhs = mu.conj().T @ mw
        rhs = np.outer(u, w.conj()) + adjugate_map(np.outer(w, u.conj()))
        iso_resid = max(iso_resid, float(np.abs(lhs - rhs).max()))
        iso_resid = max(
            iso_resid,
            float(np.abs(mu.conj().T @ mu - np.vdot(u, u).real * np.eye(2)).max()),
        )
    iso_ok = iso_resid <= 1e-12

    # class monotonicity and the domino value
    mono_ok = (
        bell4_ppt.value <= optimal_global(catalog("bell4")).value + 1e-7
        and bell3_ppt.value <= optimal_global(catalog("bell3")).value + 1e-7
        and ydy_ppt.value <= ydy_global.value + 1e-7
        and domino_ppt.value <= optimal_global(catalog("domino")).value + 1e-7
    )
    domino_ok = abs(domino_ppt.value - 1.0) <= 1e-6

    # solver vs the closed-form two-state oracle on random instances
    helstrom_worst = 0.0
    space = BipartiteSpace(2, 2)
    for _ in range(20):
        gs = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        rhos = [g @ g.conj().T for g in gs]
        rhos = [r / np.trace(r).real for r in rhos]
        p = float(rng.uniform(0.1, 0.9))
        ens = Ensemble(space, tuple(rhos), np.array([p, 1 - p]))
        solved = optimal_global(ens).value
        oracle = (1 + np.abs(np.linalg.eigvalsh(p * rhos[0] - (1 - p) * rhos[1])).sum()) / 2
        helstrom_worst = max(helstrom_worst, abs(solved - oracle))
    helstrom_ok = helstrom_worst <= 1e-6

    ok = duality_ok and maps_ok and iso_ok and mono_ok and domino_ok and helstrom_ok
    _report(
        8, ok,
        f"weak duality on {sum(len(r.solution.log) for r in solutions)} iterates "
        f"(worst margin {worst_margin:.1e}); map battery min eig {min_eig:.1e}; "
        f"isometry residual {iso_resid:.1e}; monotonicity {mono_ok}; "
        f"domino {domino_ppt.value:.9f}; helstrom worst err {helstrom_worst:.1e}",
    )

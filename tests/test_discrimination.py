import dataclasses
import math

import numpy as np
import pytest

from sepdisc.conesolve import ROW_DROP_TOL, weak_duality_ok
from sepdisc.discrimination import (
    Measurement,
    _program,
    four_bell_value,
    local_guess_measurement,
    measurement_value,
    optimal_global,
    optimal_ppt,
    sep_bound_from_certificate,
    three_bell_value,
)
from sepdisc.cli import BELL_BASIS
from sepdisc.conesolve import DualCertificate
from sepdisc.linalg import BipartiteSpace, partial_transpose
from sepdisc.states import Ensemble, bell, catalog, extend_ensemble, projector


def helstrom_value(p1, rho1, p2, rho2):
    """Independent closed-form oracle: (1 + ||p1 rho1 - p2 rho2||_1) / 2."""
    w = np.linalg.eigvalsh(p1 * rho1 - p2 * rho2)
    return (1.0 + np.abs(w).sum()) / 2.0


def two_state_ensemble(v1, v2, p=0.5):
    space = BipartiteSpace(v1.size, 1)
    return Ensemble(space, (projector(v1), projector(v2)), np.array([p, 1 - p]))


PROGRAM_ENSEMBLES = {
    "bell3": lambda: catalog("bell3"),
    "bell4": lambda: catalog("bell4"),
    "bell3-tau": lambda: extend_ensemble(catalog("bell3"), 0.6),
    "bell4-tau": lambda: extend_ensemble(catalog("bell4"), 0.6),
    "ydy": lambda: catalog("ydy"),
    "domino": lambda: catalog("domino"),
    "tiles_psi": lambda: catalog("tiles_psi"),
}


def full_form(e):
    """The same ensemble without its symmetry: the program over full matrices."""
    return dataclasses.replace(e, symmetry=())


@pytest.mark.parametrize("name", PROGRAM_ENSEMBLES)
@pytest.mark.parametrize("ppt", [True, False], ids=["ppt", "global"])
def test_discrimination_programs_have_independent_rows(ppt, name):
    # solve_sdp does not reduce rows, so every program it gets from this
    # package must have linearly independent rows: the program in the
    # ensemble's symmetry blocks and the one over full matrices. While every
    # diagonal entry of R in rows.T = QR passes, |R_ii| is row i's residual
    # against the rows before it, so this is independent_rows' test keeping
    # every row, and one QR costs far less than its row-by-row pass on 1280 rows.
    e = PROGRAM_ENSEMBLES[name]()
    for form in (e, full_form(e)):
        rows = _program(form, ppt)[0].rows
        resid = np.abs(np.diag(np.linalg.qr(rows.T, mode="r")))
        assert np.all(resid >= ROW_DROP_TOL * np.maximum(1.0, np.linalg.norm(rows, axis=1)))


def test_symmetry_blocks_are_built_once_per_ensemble(monkeypatch):
    # The ensemble owns its bases: the first solve builds those of G, the
    # first PPT solve those of G', and every later solve of the object reads them.
    from sepdisc import states

    calls = []
    build = states._symmetry_blocks
    monkeypatch.setattr(states, "_symmetry_blocks", lambda *a: calls.append(a) or build(*a))
    e = extend_ensemble(catalog("bell4"), 0.6)
    optimal_global(e)
    optimal_ppt(e)
    optimal_ppt(e)
    assert len(calls) == 2
    assert e.block_bases is e.block_bases and e.pt_block_bases is e.pt_block_bases


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement((np.eye(2, dtype=complex),) * 2)  # sums to 2I
    with pytest.raises(ValueError):
        Measurement((np.diag([2.0, 0.0]).astype(complex), np.diag([-1.0, 1.0]).astype(complex)))


def test_global_two_state_matches_helstrom_closed_form():
    zero = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    e = two_state_ensemble(zero, plus)
    r = optimal_global(e)
    expected = (1 + 1 / np.sqrt(2)) / 2
    assert abs(expected - helstrom_value(0.5, e.states[0], 0.5, e.states[1])) <= 1e-15
    assert abs(r.value - expected) <= 1e-6
    assert abs(r.gap) <= 1e-7 * (1 + abs(r.solution.dual_value))
    # global dual certificate: H - p_k rho_k PSD
    for p, rho in zip(e.probs, e.states):
        assert np.linalg.eigvalsh(r.certificate.matrix - p * rho).min() >= -1e-8
    assert r.certificate.cone_tag == "psd-dual"


def test_global_orthonormal_ensembles_reach_one():
    r = optimal_global(catalog("bell4"))
    assert abs(r.value - 1.0) <= 1e-6


def test_ppt_bell4(bell4_ppt):
    assert abs(bell4_ppt.value - 0.5) <= 1e-6
    ok, worst = weak_duality_ok(bell4_ppt.solution.log)
    assert ok, worst


def test_ppt_bell3(bell3_ppt):
    assert abs(bell3_ppt.value - 2 / 3) <= 1e-6


def test_ppt_ydy(ydy_ppt):
    assert abs(ydy_ppt.value - 7 / 8) <= 1e-6


def test_ppt_tiles_psi_stalls_out_early():
    # The tiles members plus their orthogonal state: the primal residual
    # climbs to about 1e-7, falls back to a few 1e-9 and stops improving
    # there, so the solve ends on the stall exit, not after MAX_ITERATIONS.
    r = optimal_ppt(catalog("tiles_psi"))
    sol = r.solution
    assert sol.status == "optimal"
    assert sol.stop_reason == "stalled"
    assert 1 - 1e-6 <= r.value <= 1 + 1e-7
    assert sol.iterations <= 40
    ok, worst = weak_duality_ok(sol.log)
    assert ok, worst


def test_ppt_measurement_is_ppt(bell4_ppt):
    e = catalog("bell4")
    for op in bell4_ppt.measurement.operators:
        pt = partial_transpose(op, 2, 2)
        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2).min() >= -1e-8


def test_ppt_certificate_decomposition(bell4_ppt):
    e = catalog("bell4")
    h = bell4_ppt.certificate.matrix
    assert bell4_ppt.certificate.cone_tag == "ppt-dual"
    assert abs(bell4_ppt.certificate.claimed_value - bell4_ppt.solution.dual_value) <= 1e-9
    for k, (s_psd, s_pt) in enumerate(bell4_ppt.certificate_parts):
        assert np.linalg.eigvalsh(s_psd).min() >= -1e-9
        assert np.linalg.eigvalsh(s_pt).min() >= -1e-9
        recon = s_psd + partial_transpose(s_pt, 2, 2)
        target = h - e.probs[k] * e.states[k]
        assert np.abs(recon - target).max() <= 1e-7


def test_monotonicity_global_vs_ppt(bell4_ppt, bell3_ppt, ydy_ppt, ydy_global):
    assert bell4_ppt.value <= optimal_global(catalog("bell4")).value + 1e-7
    assert bell3_ppt.value <= optimal_global(catalog("bell3")).value + 1e-7
    assert ydy_ppt.value <= ydy_global.value + 1e-7
    assert abs(ydy_global.value - 1.0) <= 1e-6


def test_closed_forms():
    assert three_bell_value(0.0) == 1.0
    assert four_bell_value(0.0) == 1.0
    assert abs(three_bell_value(1.0) - 2 / 3) <= 1e-15
    assert abs(four_bell_value(1.0) - 0.5) <= 1e-15
    assert abs(three_bell_value(0.6) - 14 / 15) <= 1e-15
    assert abs(four_bell_value(0.6) - 0.9) <= 1e-15
    for fn in (three_bell_value, four_bell_value):
        with pytest.raises(ValueError):
            fn(-0.01)
        with pytest.raises(ValueError):
            fn(1.01)


def test_sep_bound_three_bell_certificate():
    from sepdisc.certificates import three_bell_resource_certificate
    cert, _ = three_bell_resource_certificate(0.6)
    ens = extend_ensemble(catalog("bell3"), 0.6)
    report = sep_bound_from_certificate(ens, cert, restarts=200, seed=3)
    assert abs(report.bound - 14 / 15) <= 1e-12
    assert report.unrefuted


def test_sep_bound_ydy_certificate():
    from sepdisc.certificates import ydy_certificate

    report = sep_bound_from_certificate(catalog("ydy"), ydy_certificate(), restarts=200, seed=3)
    assert report.bound == 0.75
    assert report.unrefuted
    assert len(report.reports) == 4


def test_sep_bound_trivial_certificate():
    e = catalog("bell4")
    p_max = float(e.probs.max())
    cert = DualCertificate(p_max * np.eye(4, dtype=complex), "sep-dual")
    report = sep_bound_from_certificate(e, cert, restarts=50, seed=7)
    assert abs(report.bound - 4 * p_max) <= 1e-12
    assert report.unrefuted
    for r in report.reports:
        assert r.min_overlap >= -1e-9


# Measure-and-compare on the plain Bell families: agreeing bits answer the
# first state, disagreeing bits the third.
AGREE = np.diag([1.0, 0.0, 0.0, 1.0])
DISAGREE = np.diag([0.0, 1.0, 1.0, 0.0])
ZERO = np.zeros((4, 4))
RESOURCE_EPSILONS = (0.0, 0.2, 0.28, 0.6, 0.9, 1.0, *np.random.default_rng(17).uniform(0, 1, 20))


def _local_guess_cases():
    """(family, epsilon, prior, local basis, value, tolerance, operators or None)."""
    yield pytest.param("bell3", None, None, np.eye(2), 2 / 3, 1e-15, (AGREE, ZERO, DISAGREE),
                       id="bell3")
    yield pytest.param("bell4", None, None, np.eye(2), 0.5, 1e-15,
                       (AGREE, ZERO, DISAGREE, ZERO), id="bell4")
    yield pytest.param("ydy", None, None, np.eye(4), 0.75, 0.0, None, id="ydy")
    for eps in RESOURCE_EPSILONS:
        r = math.sqrt(1.0 - eps * eps)
        yield pytest.param("bell3", eps, None, BELL_BASIS, (2 + r) / 3, 1e-12, None,
                           id=f"bell3-tau-{eps:.6g}")
        yield pytest.param("bell4", eps, None, BELL_BASIS, (1 + r) / 2, 1e-12, None,
                           id=f"bell4-tau-{eps:.6g}")
    for prior in ((0.5, 0.3, 0.2), (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)):
        yield pytest.param("bell3", 0.6, prior, BELL_BASIS, 0.92, 1e-12, None,
                           id="bell3-tau-0.6-prior-" + "-".join(map(str, prior)))


@pytest.mark.parametrize("family, eps, prior, basis, value, tol, operators", _local_guess_cases())
def test_local_guess_measurement(family, eps, prior, basis, value, tol, operators):
    # Local measurements in the named bases plus the best guess per outcome
    # pair meet the exact separable (and LOCC) values: 2/3, 1/2 and 3/4 without
    # the resource, (2 + r)/3 and (1 + r)/2 with tau(eps), r = sqrt(1 - eps^2).
    e = catalog(family) if eps is None else extend_ensemble(catalog(family), eps)
    if prior is not None:
        e = dataclasses.replace(e, probs=np.array(prior))
    m = local_guess_measurement(e, basis, basis)
    assert abs(measurement_value(e, m) - value) <= tol
    if operators is not None:
        assert len(m.operators) == len(operators)
        assert all(np.array_equal(a, b) for a, b in zip(m.operators, operators))


def test_certificate_dominates_locc_baseline(bell4_ppt, bell3_ppt, ydy_ppt):
    # the dual bound can never fall below an achievable LOCC value
    assert bell4_ppt.certificate.claimed_value >= 0.5 - 1e-7
    assert bell3_ppt.certificate.claimed_value >= 2 / 3 - 1e-7
    assert ydy_ppt.certificate.claimed_value >= 0.75 - 1e-7


def test_nonuniform_prior():
    # two orthogonal states: any prior still discriminated perfectly
    e = Ensemble(
        catalog("bell4").space,
        (projector(bell(1)), projector(bell(4))),
        np.array([0.7, 0.3]),
    )
    r = optimal_global(e)
    assert abs(r.value - 1.0) <= 1e-6


# -- the programs in symmetry blocks against the programs over full matrices --

REDUCED_CASES = {
    f"bell{n}-tau{eps}": (n, eps) for n in (3, 4) for eps in (0.2, 0.6, 0.9)
}
REDUCED_CASES.update({"bell3": (3, None), "bell4": (4, None), "ydy": (None, None)})


def _relative_gap(sol):
    return abs(sol.primal_value - sol.dual_value) / (1.0 + abs(sol.dual_value))


@pytest.mark.parametrize("name", REDUCED_CASES)
@pytest.mark.parametrize("ppt", [True, False], ids=["ppt", "global"])
def test_reduced_program_matches_full_program(ppt, name):
    n, eps = REDUCED_CASES[name]
    e = catalog("ydy") if n is None else catalog(f"bell{n}")
    if eps is not None:
        e = extend_ensemble(e, eps)
    solve = optimal_ppt if ppt else optimal_global
    red, full = solve(e), solve(full_form(e))
    rs, fs = red.solution, full.solution
    assert rs.y.size < fs.y.size
    assert rs.stop_reason == "converged"
    assert abs(red.value - full.value) <= 1e-9
    dx, dy = e.space.dim_x, e.space.dim_y
    if ppt:
        # The lifted measurement is PPT, and the lifted parts decompose H.
        h = red.certificate.matrix
        for op, (s, s_pt), p, rho in zip(
            red.measurement.operators, red.certificate_parts, e.probs, e.states
        ):
            pt = partial_transpose(op, dx, dy)
            assert np.linalg.eigvalsh((pt + pt.conj().T) / 2).min() >= -1e-8
            assert np.abs(s + partial_transpose(s_pt, dx, dy) - (h - p * rho)).max() <= 1e-8
    if ppt and eps is not None:
        # With the resource, both PPT solves end on a numerically singular
        # Schur matrix (condition above 1e16 at the last iterates), so where
        # each stops is decided by roundoff. Over full matrices bell3 x
        # tau(0.6) takes 14 iterations on one OpenBLAS thread and 12 on two;
        # in blocks it takes 12 on both, and its gap and measurement differ
        # from the full solve's by up to 19% and 9e-4. So only what holds
        # for any roundoff is checked for these programs.
        return
    assert rs.iterations == fs.iterations
    assert abs(_relative_gap(rs) - _relative_gap(fs)) <= 0.01 * _relative_gap(fs)
    for a, b in zip(red.measurement.operators, full.measurement.operators):
        assert np.abs(a - b).max() <= 1e-7

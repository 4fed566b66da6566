import numpy as np
import pytest

from sepdisc.conesolve import independent_rows, weak_duality_ok
from sepdisc.discrimination import (
    Measurement,
    _global_problem,
    _ppt_problem,
    bell_compare_measurement,
    four_bell_value,
    measurement_value,
    optimal_global,
    optimal_ppt,
    sep_bound_from_certificate,
    three_bell_value,
    ydy_local_measurement,
)
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


@pytest.mark.parametrize("name", PROGRAM_ENSEMBLES)
@pytest.mark.parametrize("build", [_ppt_problem, _global_problem], ids=["ppt", "global"])
def test_discrimination_programs_have_independent_rows(build, name):
    # solve_sdp does not reduce rows, so every program it gets from this
    # package must have linearly independent rows.
    rows = build(PROGRAM_ENSEMBLES[name]()).rows
    assert independent_rows(rows).tolist() == list(range(rows.shape[0]))


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
        pt = partial_transpose(op, e.space, "x")
        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2).min() >= -1e-8


def test_ppt_certificate_decomposition(bell4_ppt):
    e = catalog("bell4")
    h = bell4_ppt.certificate.matrix
    assert bell4_ppt.certificate.cone_tag == "ppt-dual"
    assert abs(bell4_ppt.certificate.claimed_value - bell4_ppt.solution.dual_value) <= 1e-9
    for k, (s_psd, s_pt) in enumerate(bell4_ppt.certificate_parts):
        assert np.linalg.eigvalsh(s_psd).min() >= -1e-9
        assert np.linalg.eigvalsh(s_pt).min() >= -1e-9
        recon = s_psd + partial_transpose(s_pt, e.space, "x")
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
    from sepdisc.states import extend_with_resource

    cert, _ = three_bell_resource_certificate(0.6)
    ens = extend_with_resource([bell(k) for k in (1, 2, 3)], 0.6)
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


def test_ydy_local_baseline_exact():
    m = ydy_local_measurement()
    assert measurement_value(catalog("ydy"), m) == 0.75


def test_bell_compare_baselines_exact():
    assert measurement_value(catalog("bell3"), bell_compare_measurement(3)) == pytest.approx(
        2 / 3, abs=1e-15
    )
    assert measurement_value(catalog("bell4"), bell_compare_measurement(4)) == pytest.approx(
        0.5, abs=1e-15
    )
    with pytest.raises(ValueError):
        bell_compare_measurement(5)


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

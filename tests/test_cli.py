import json
import sys

import numpy as np
import pytest

from sepdisc import certificates
from sepdisc.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_SOLVER,
    InputError,
    decode_matrix,
    decode_vector,
    encode,
    load_ensemble,
    main,
)
from sepdisc.linalg import BipartiteSpace, orthogonal_complement
from sepdisc.states import catalog, extend_ensemble


def save_ensemble(path: str, e) -> None:
    """Write an ensemble file in the schema that load_ensemble reads."""
    data = {
        "kind": "ensemble",
        "space": {"dim_x": e.space.dim_x, "dim_y": e.space.dim_y},
        "probs": [float(p) for p in e.probs],
        "states": [encode(s) for s in e.states],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def run_or_exit(tmp_path, *argv):
    """run, with argparse's own rejection (SystemExit) returned as the code."""
    try:
        return run(tmp_path, *argv)
    except SystemExit as exc:
        return exc.code, None


def test_complex_codec_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(decode_matrix(encode(m)), m)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(decode_vector(encode(v)), v)
    # A stack of matrices is the list of its encoded matrices.
    assert encode(np.stack([m, m.T])) == [encode(m), encode(m.T)]
    assert encode(v) == [[float(c.real), float(c.imag)] for c in v]


def test_codec_roundtrips_through_json(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    again = decode_matrix(json.loads(json.dumps(encode(m))))
    assert np.array_equal(again, m)


def test_discriminate_bell4_ppt(tmp_path):
    code, report = run(tmp_path, "discriminate", "bell4", "--class", "ppt")
    assert code == EXIT_OK
    assert abs(report["outputs"]["value"] - 0.5) <= 1e-6
    assert report["outputs"]["certificate"]["cone"] == "ppt-dual"
    assert report["tool"]["name"] == "sepdisc"
    assert report["command"] == "discriminate"


def test_discriminate_global_from_file(tmp_path):
    path = tmp_path / "ensemble.json"
    save_ensemble(str(path), catalog("bell3"))
    loaded = load_ensemble(str(path))
    assert len(loaded) == 3
    code, report = run(tmp_path, "discriminate", str(path), "--class", "global")
    assert code == EXIT_OK
    assert abs(report["outputs"]["value"] - 1.0) <= 1e-6


def test_discriminate_iterate_log(tmp_path):
    log = tmp_path / "iters.tsv"
    code, report = run(
        tmp_path, "discriminate", "bell3", "--class", "ppt", "--log-iterates", str(log)
    )
    assert code == EXIT_OK
    lines = log.read_text().splitlines()
    assert lines[0].split("\t") == [
        "iter", "primal", "dual", "gap", "primal_residual", "dual_residual",
        "mu", "sigma", "alpha_primal", "alpha_dual",
    ]
    assert len(lines) == report["outputs"]["iterations"] + 2


def test_discriminate_prior(tmp_path):
    code, report = run(
        tmp_path, "discriminate", "bell4", "--class", "global", "--prior", "0.4,0.3,0.2,0.1"
    )
    assert code == EXIT_OK
    assert abs(report["outputs"]["value"] - 1.0) <= 1e-6
    code, _ = run(tmp_path, "discriminate", "bell4", "--prior", "0.5,0.5")
    assert code == EXIT_INPUT


def test_discriminate_prior_keeps_the_symmetry(tmp_path, monkeypatch):
    # Every symmetry element fixes every state, so the reduced program holds
    # for any prior: bell4's PPT program has 20 rows in its symmetry blocks
    # and 80 over full matrices, and both give the same value.
    from sepdisc import conesolve
    from sepdisc.discrimination import optimal_ppt
    from sepdisc.states import Ensemble

    solve, rows = conesolve.solve_sdp, []

    def recording(problem):
        rows.append(problem.rows.shape[0])
        return solve(problem)

    monkeypatch.setattr(conesolve, "solve_sdp", recording)
    prior = np.array([0.4, 0.3, 0.2, 0.1])
    argv = ["discriminate", "bell4", "--class", "ppt", "--prior", "0.4,0.3,0.2,0.1"]
    code, report = run(tmp_path, *argv)
    assert code == EXIT_OK
    full = optimal_ppt(Ensemble(catalog("bell4").space, catalog("bell4").states, prior))
    assert rows == [20, 80]
    assert abs(report["outputs"]["value"] - full.value) <= 1e-9


def test_ensemble_files_carry_no_symmetry(tmp_path):
    path = tmp_path / "ensemble.json"
    save_ensemble(str(path), catalog("bell4"))
    assert "symmetry" not in json.loads(path.read_text())
    assert load_ensemble(str(path)).symmetry == ()


@pytest.mark.parametrize(
    "prior, message",
    [
        ("a,b,c,d", "bad --prior value 'a,b,c,d'"),
        ("0.25,0.25,0.25,nan", "probs must be finite"),
    ],
)
def test_discriminate_rejects_bad_prior(tmp_path, capsys, prior, message):
    code, report = run(tmp_path, "discriminate", "bell4", "--class", "ppt", "--prior", prior)
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == f"error: {message}\n"


def test_discriminate_takes_no_see_saw_flags(tmp_path, capsys):
    # discriminate runs no see-saw search: --restarts and --seed are unknown
    # flags there, and its report does not list them.
    for flag in ("--restarts", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["discriminate", "bell4", flag, "1"])
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    code, report = run(tmp_path, "discriminate", "bell4", "--class", "global")
    assert code == EXIT_OK
    assert report["inputs"] == {"family": "bell4", "measurement_class": "global"}


def test_epsilon_only_for_bell_families(tmp_path):
    code, _ = run(tmp_path, "discriminate", "ydy", "--epsilon", "0.5")
    assert code == EXIT_INPUT
    code, _ = run(tmp_path, "discriminate", "bell4", "--epsilon", "1.5")
    assert code == EXIT_INPUT


def test_unknown_family(tmp_path):
    code, _ = run(tmp_path, "discriminate", "nonsense-family")
    assert code == EXIT_INPUT
    code, _ = run(tmp_path, "ups", "bell4")
    assert code == EXIT_INPUT


def test_certify_requires_epsilon(tmp_path, capsys):
    code, _ = run(tmp_path, "certify", "bell3")
    assert code == EXIT_INPUT
    # the three-Bell construction excludes eps = 1, where r = 0
    code, report = run(tmp_path, "certify", "bell3", "--epsilon", "1")
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err.endswith("error: epsilon must lie in [0, 1), got 1.0\n")


def test_certify_bell4_rejects_epsilon_out_of_range(tmp_path, capsys):
    code, report = run(tmp_path, "certify", "bell4", "--epsilon", "1.5")
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == "error: epsilon must lie in [0, 1], got 1.5\n"


def test_certify_ydy_rejects_epsilon(tmp_path, capsys):
    # ydy has no resource parameter; the flag is rejected, not ignored.
    code, report = run(tmp_path, "certify", "ydy", "--epsilon", "0.5")
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == "error: certify ydy takes no --epsilon\n"


def test_certify_bell3(tmp_path):
    code, report = run(tmp_path, "certify", "bell3", "--epsilon", "0.6")
    assert code == EXIT_OK
    out = report["outputs"]
    assert abs(out["claimed_trace"] - 14 / 15) <= 1e-12
    assert out["map_link_residual"] <= 1e-12
    assert max(out["conjugation_residuals"]) <= 1e-12
    assert out["outcome"] == "unrefuted"


def test_certify_four_bell_endpoint(tmp_path):
    code, report = run(tmp_path, "certify", "bell4", "--epsilon", "0")
    assert code == EXIT_OK
    assert abs(report["outputs"]["claimed_trace"] - 1.0) <= 1e-12
    assert report["outputs"]["outcome"] == "unrefuted"


@pytest.mark.parametrize(
    "argv",
    [[name, "--epsilon", eps] for name in ("bell3", "bell4") for eps in ("0.2", "0.6", "0.9")]
    + [["ydy"]],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_certify_reports_its_bracket(tmp_path, argv):
    # The local protocol's value is the lower end, the certificate's trace the
    # upper end, and for these families the two meet.
    code, report = run(tmp_path, "certify", *argv)
    assert code == EXIT_OK
    out = report["outputs"]
    assert list(out)[:2] == ["claimed_trace", "protocol_value"]
    assert out["protocol_value"] <= out["claimed_trace"] + 1e-12
    assert abs(out["protocol_value"] - out["claimed_trace"]) <= 1e-12


def _count_calls(monkeypatch, home, name):
    """The argument tuples of every call of ``home.name`` during the test, in
    whichever sepdisc module the caller looks the function up."""
    original, calls = getattr(home, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sepdisc") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_certify_bell3_builds_its_certificate_once(tmp_path, monkeypatch):
    builds = _count_calls(monkeypatch, certificates, "three_bell_resource_certificate")
    code, _ = run(tmp_path, "certify", "bell3", "--epsilon", "0.6")
    assert code == EXIT_OK
    assert builds == [(0.6,)]


def test_certify_bell4_builds_its_certificate_once(tmp_path, monkeypatch):
    from sepdisc import states

    builds = _count_calls(monkeypatch, certificates, "four_bell_resource_certificate")
    extensions = _count_calls(monkeypatch, states, "extend_ensemble")
    code, _ = run(tmp_path, "certify", "bell4", "--epsilon", "0.6")
    assert code == EXIT_OK
    assert builds == [(0.6,)]
    # Its extended ensemble is built once, for the slacks and the protocol's value.
    assert [eps for _, eps in extensions] == [0.6]


@pytest.mark.parametrize("argv", [["bell3", "--epsilon", "0.6"],
                                  ["bell4", "--epsilon", "0.6"], ["ydy"]])
def test_certify_runs_no_search(tmp_path, monkeypatch, argv):
    # The outcome comes from the certificate's own identity checks.
    searches = _count_calls(monkeypatch, certificates, "block_positivity_search")
    code, report = run(tmp_path, "certify", *argv)
    assert code == EXIT_OK and report["outputs"]["outcome"] == "unrefuted"
    assert searches == []
    # --seed is not read, so the report lists it only when given.
    assert "seed" not in report["inputs"]
    code, report = run(tmp_path, "certify", *argv, "--seed", "3")
    assert code == EXIT_OK
    assert report["inputs"]["seed"] == 3


def _scaled(cert, factor):
    return certificates.DualCertificate(factor * cert.matrix, cert.cone_tag)


def test_scaled_bell3_certificate_is_refuted(tmp_path, monkeypatch):
    # H scaled by 1 - 1e-6 has trace below the achievable 14/15; its slacks
    # (1 - 1e-6) H - rho_k / 3 miss the map identity by about 1e-7. certify
    # forms the slacks from the certificate it reports.
    original = certificates.three_bell_resource_certificate
    monkeypatch.setattr(certificates, "three_bell_resource_certificate",
                        lambda eps: _scaled(original(eps), 1 - 1e-6))
    code, report = run(tmp_path, "certify", "bell3", "--epsilon", "0.6")
    assert code == EXIT_REFUTED
    out = report["outputs"]
    assert out["outcome"] == "refuted"
    assert out["map_link_residual"] > 1e-8
    assert max(out["slack_margin_bounds"]) < -1e-7


def test_scaled_ydy_certificate_is_refuted(tmp_path, monkeypatch):
    original = certificates.ydy_certificate
    monkeypatch.setattr(certificates, "ydy_certificate", lambda: _scaled(original(), 1 - 1e-6))
    code, report = run(tmp_path, "certify", "ydy")
    assert code == EXIT_REFUTED
    out = report["outputs"]
    assert out["outcome"] == "refuted"
    assert min(out["witness_identity_residuals"]) > 1e-8
    assert max(out["slack_margin_bounds"]) < -1e-7


@pytest.mark.parametrize("eps", ["0.2", "0.6", "0.9"])
def test_scaled_bell4_certificate_is_refuted(tmp_path, monkeypatch, eps):
    # H scaled by 1 - 1e-6 has trace below the achievable (1 + r)/2; some
    # transposed slack (1 - 1e-6) H - rho_k / 4 has an eigenvalue of about
    # -1e-7. Scaled by 1 + 1e-6, H stays a certificate.
    original = certificates.four_bell_resource_certificate
    for factor, want in ((1 - 1e-6, EXIT_REFUTED), (1 + 1e-6, EXIT_OK)):
        monkeypatch.setattr(certificates, "four_bell_resource_certificate",
                            lambda e: _scaled(original(e), factor))
        code, report = run(tmp_path, "certify", "bell4", "--epsilon", eps)
        assert code == want
        out = report["outputs"]
        assert out["outcome"] == ("refuted" if want == EXIT_REFUTED else "unrefuted")
        if want == EXIT_REFUTED:
            assert min(out["transposed_slack_min_eigenvalues"]) < -5e-8


def test_certify_bell4_checks_the_ensemble_it_reports(tmp_path, monkeypatch):
    # The slacks are H - rho_k / 4 for the reported ensemble's states: with
    # the ensemble of eps + 0.1 in place of eps's, H no longer dominates them.
    original = certificates.extend_ensemble
    monkeypatch.setattr(certificates, "extend_ensemble", lambda e, eps: original(e, eps + 0.1))
    code, report = run(tmp_path, "certify", "bell4", "--epsilon", "0.6")
    assert code == EXIT_REFUTED
    assert report["outputs"]["outcome"] == "refuted"
    assert min(report["outputs"]["transposed_slack_min_eigenvalues"]) < -1e-3


@pytest.mark.parametrize("eps", ["0", "1e-9", "0.9999999", "0.99999999", "0.9999999995"])
def test_certify_bell3_near_the_ends(tmp_path, eps):
    # Near eps = 1 the map-link reference cancels in 1 - eps^2; taken as
    # (1 + eps) / r its residual stays at roundoff (1e-14 or less) instead
    # of reaching 4.6e-11 at 0.99999999 and refuting a valid certificate.
    # At eps = 0 the certificate is valid too, with t = 1.
    code, report = run(tmp_path, "certify", "bell3", "--epsilon", eps)
    assert code == EXIT_OK
    out = report["outputs"]
    assert out["outcome"] == "unrefuted"
    assert out["map_link_residual"] < 1e-13
    assert min(out["slack_margin_bounds"]) >= -certificates.PSD_MARGIN_TOL


def test_certify_ydy_deterministic(tmp_path):
    code1, rep1 = run(tmp_path, "certify", "ydy", "--seed", "77")
    code2, rep2 = run(tmp_path, "certify", "ydy", "--seed", "77")
    assert code1 == code2 == EXIT_OK
    assert rep1["outputs"] == rep2["outputs"]
    assert rep1["outputs"]["claimed_trace"] == 0.75
    assert max(rep1["outputs"]["skew_symmetry_residuals"]) <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "bell3", "--epsilon", "0.5", "--restarts", "0"],
         "restarts must be at least 1, got 0"),
        (["certify", "bell3", "--epsilon", "0.5", "--restarts", "-5"],
         "restarts must be at least 1, got -5"),
        (["certify", "bell3", "--epsilon", "0.5", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
        (["ups", "tiles", "--action", "bound", "--lambda", "analytic", "--restarts", "0"],
         "restarts must be at least 1, got 0"),
        # Start vectors larger than the address space: the library refuses
        # them before any memory is touched.
        (["certify", "ydy", "--restarts", "1000000000000000"],
         "restarts must fit in memory, got 1000000000000000"),
        (["ups", "tiles", "--action", "bound", "--lambda", "analytic",
          "--restarts", "1000000000000000"],
         "restarts must fit in memory, got 1000000000000000"),
        (["certify", "bell4", "--epsilon", "0.5", "--restarts", "0"],
         "restarts must be at least 1, got 0"),
        (["certify", "bell4", "--epsilon", "0.5", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
        (["certify", "ydy", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
        (["ups", "tiles", "--action", "bound", "--lambda", "analytic", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
    ],
)
def test_see_saw_flags_rejected(tmp_path, capsys, argv, message):
    # No command runs a see-saw. --seed is checked but read by nothing, with
    # block_positivity_search's message; --restarts is no flag at all, so
    # argparse refuses it. Each ends in exit 2 with no report, and the value
    # is still refused with the message by block_positivity_search itself.
    flag, value = argv[-2], argv[-1]
    code, report = run_or_exit(tmp_path, *argv)
    assert code == EXIT_INPUT and report is None
    err = capsys.readouterr().err
    if flag == "--seed":
        assert err == f"error: {message}\n"
    else:
        assert err.endswith(f"error: unrecognized arguments: --restarts {value}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        certificates.block_positivity_search(
            np.eye(4, dtype=complex), BipartiteSpace(2, 2), **{flag[2:]: int(value)}
        )


def _bare_number_ensemble(path):
    save_ensemble(str(path), catalog("bell3"))
    data = json.loads(path.read_text())
    data["states"][0] = [[1.0, 0.0, 0.0, 0.0]] * 4  # rows of numbers, not pairs
    path.write_text(json.dumps(data))


def _float_factor_ensemble(path):
    save_ensemble(str(path), catalog("bell3"))
    data = json.loads(path.read_text())
    data["space"]["factors_x"] = [2.0]  # older files' factor keys are still checked
    path.write_text(json.dumps(data))


def _factor_product_ensemble(path):
    save_ensemble(str(path), catalog("bell3"))
    data = json.loads(path.read_text())
    data["space"]["factors_x"] = [2, 2]  # multiplies to 4, not dim_x = 2
    path.write_text(json.dumps(data))


def _bool_factor_product_set(path):
    write_product_set(path, (2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
    data = json.loads(path.read_text())
    data["space"]["factors_x"] = [True, 2]  # JSON true is not the dimension 1
    path.write_text(json.dumps(data))


def _probs_ensemble(probs):
    """Writes bell3 with its probs replaced; a string or bool is not a number,
    although float() would take it."""
    def write(path):
        save_ensemble(str(path), catalog("bell3"))
        data = json.loads(path.read_text())
        data["probs"] = probs
        path.write_text(json.dumps(data))
    return write


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["ups", "tiles", "--action", "bound", "--lambda", "analytic", "--z", "{path}"],
         [1, 2], "expected a list of [re, im] number pairs"),
        (["ups", "{path}", "--action", "check"],
         [[1, 2]], "expected a JSON object of kind 'product_set'"),
        (["discriminate", "{path}", "--class", "global"],
         [[1, 2]], "expected a JSON object of kind 'ensemble'"),
        (["discriminate", "{path}", "--class", "global"],
         _bare_number_ensemble, "expected a list of [re, im] number pairs"),
        (["discriminate", "{path}", "--class", "global"],
         {"kind": "ensemble", "states": [], "probs": []}, "'space'"),
        (["ups", "{path}", "--action", "check"],
         {"kind": "product_set", "space": {"dim_x": 3, "dim_y": 3}, "members": 5},
         "'int' object is not iterable"),
        (["discriminate", "{path}", "--class", "ppt"],
         _float_factor_ensemble,
         "bad space header: 'float' object cannot be interpreted as an integer"),
        (["discriminate", "{path}", "--class", "global"],
         _factor_product_ensemble,
         "bad space header: nested factor dims must multiply to the side dim"),
        (["discriminate", "{path}", "--class", "global"],
         {"kind": "ensemble", "space": {"dim_x": 2.9, "dim_y": 2}, "states": [], "probs": []},
         "bad space header: 'float' object cannot be interpreted as an integer"),
        (["discriminate", "{path}", "--class", "global"],
         {"kind": "ensemble", "space": {"dim_x": True, "dim_y": 2},
          "states": [encode(np.diag([1.0, 0.0])), encode(np.diag([0.0, 1.0]))],
          "probs": [0.5, 0.5]},
         "bad space header: dims must be integers, not True"),
        (["ups", "{path}", "--action", "check"],
         _bool_factor_product_set, "bad space header: dims must be integers, not True"),
        (["discriminate", "{path}", "--class", "global"],
         _probs_ensemble(["0.5", "0.25", "0.25"]), "probs must be a list of numbers"),
        (["discriminate", "{path}", "--class", "global"],
         _probs_ensemble([True, 0, 0]), "probs must be a list of numbers"),
        (["discriminate", "{path}", "--class", "global"],
         _probs_ensemble(0.5), "probs must be a list of numbers"),
        (["discriminate", "{path}", "--class", "global"],
         {"kind": "ensemble", "space": {"dim_x": 2, "dim_y": 2}, "probs": [1.0],
          "states": [encode(np.diag([1.5, -0.5, 0.0, 0.0]))]},
         "ensemble states must be positive semidefinite"),
        (["ups", "{path}"],
         {"kind": "product_set", "space": {"dim_x": 2, "dim_y": 2},
          "members": [{"x": encode(np.eye(3)[0]), "y": encode(np.eye(2)[0])}]},
         "member factors do not match the space dims"),
        (["ups", "tiles", "--action", "bound", "--lambda", "analytic", "--z", "{path}"],
         encode(np.array([1.0, 0.0])), "z does not live on the set's space"),
    ],
    ids=["ups-bound-z", "ups-check", "discriminate-list", "discriminate-bare-rows",
         "discriminate-no-space", "ups-members-number", "discriminate-float-factor",
         "discriminate-factor-product", "discriminate-float-dim", "discriminate-bool-dim",
         "ups-bool-factor", "discriminate-string-probs", "discriminate-bool-probs",
         "discriminate-number-probs", "discriminate-not-psd", "ups-factor-length",
         "ups-bound-z-dim"],
)
def test_malformed_json_input_rejected(tmp_path, capsys, argv, content, message):
    # exit 2 with a one-line message and no traceback
    path = tmp_path / "input.json"
    if callable(content):
        content(path)
    else:
        path.write_text(json.dumps(content))
    code, report = run(tmp_path, *(a.format(path=path) for a in argv))
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_legacy_factor_keys_still_load(tmp_path):
    # earlier versions wrote each side's nested factors into the space header
    path = tmp_path / "ext.json"
    ens = extend_ensemble(catalog("bell3"), 0.6)
    save_ensemble(str(path), ens)
    data = json.loads(path.read_text())
    assert data["space"] == {"dim_x": 4, "dim_y": 4}
    data["space"].update(factors_x=[2, 2], factors_y=[2, 2])
    path.write_text(json.dumps(data))
    loaded = load_ensemble(str(path))
    assert (loaded.space.dim_x, loaded.space.dim_y) == (4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.states, ens.states))
    assert np.array_equal(loaded.probs, ens.probs)


@pytest.fixture(params=["discriminate", "ups", "ups-bound-z"])
def file_argv(request):
    """argv template of each command that reads a JSON file named {path}."""
    return {
        "discriminate": ["discriminate", "{path}", "--class", "global"],
        "ups": ["ups", "{path}", "--action", "check"],
        "ups-bound-z": ["ups", "tiles", "--action", "bound", "--lambda", "analytic",
                        "--z", "{path}"],
    }[request.param]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe[1, 2]", b"[" * 100000, b'{"kind": '],
    ids=["not-utf8", "deep-nesting", "truncated"],
)
def test_undecodable_json_input_rejected(tmp_path, capsys, file_argv, content):
    # exit 2 with one line naming the file, not a traceback
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, report = run(tmp_path, *(a.format(path=path) for a in file_argv))
    assert code == EXIT_INPUT and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e999, 10**400],
                         ids=["nan", "inf", "1e999", "huge-int"])
def test_non_finite_entries_rejected(tmp_path, capsys, file_argv, bad):
    # json.load takes NaN, Infinity, 1e999 and any int, and an entry must
    # be finite as a float: each of these exits 2 naming the file.
    path = tmp_path / "input.json"
    if file_argv[0] == "discriminate":
        save_ensemble(str(path), catalog("bell3"))
        data = json.loads(path.read_text())
        data["states"][0][0][0] = [bad, 0]
    elif "--z" in file_argv:
        data = [[0.5, 0], [0.5, 0], [-0.5, 0], [0, 0], [0, 0], [-0.5, bad]] + [[0, 0]] * 3
    else:
        write_product_set(path, (2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
        data = json.loads(path.read_text())
        data["members"][0]["x"][0] = [1, bad]
    path.write_text(json.dumps(data))
    code, report = run(tmp_path, *(a.format(path=path) for a in file_argv))
    assert code == EXIT_INPUT and report is None
    err = capsys.readouterr().err
    expected = "entry out of range: " if isinstance(bad, int) else "entries must be finite\n"
    assert err.startswith(f"error: {path}: {expected}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [[1, 2], [[1]], [[1, 2, 3]], [["1", 2]], [[True, 0]], [[1, None]], {"re": 1}, 3],
)
def test_decode_vector_rejects_non_pairs(data):
    with pytest.raises(InputError):
        decode_vector(data)
    with pytest.raises(InputError):
        decode_matrix([data])


def test_decode_matrix_rejects_non_list():
    with pytest.raises(InputError):
        decode_matrix({"rows": [[1.0, 0.0]]})


def test_ups_check_and_enumerate(tmp_path):
    code, report = run(tmp_path, "ups", "feng", "--action", "check")
    assert code == EXIT_OK
    assert report["outputs"]["unextendable"] is True
    code, report = run(tmp_path, "ups", "feng", "--action", "enumerate")
    assert code == EXIT_OK
    assert report["outputs"]["counts"] == [6] * 8


def test_ups_separable(tmp_path):
    code, report = run(tmp_path, "ups", "feng", "--action", "separable")
    assert code == EXIT_OK
    out = report["outputs"]
    assert out["feasible"] is False
    assert out["identity_span_residual"] > 1e-3
    assert "farkas" in out

    code, report = run(tmp_path, "ups", "tiles", "--action", "separable")
    assert code == EXIT_OK
    assert report["outputs"]["feasible"] is True
    assert min(report["outputs"]["weights"]) >= 0


def test_ups_bound_analytic(tmp_path):
    code, report = run(tmp_path, "ups", "tiles", "--action", "bound", "--lambda", "analytic")
    assert code == EXIT_OK
    out = report["outputs"]
    assert out["bound"] < 1 - 1.647e-4
    assert abs(out["delta"] - (2 + np.sqrt(2)) / 4) <= 1e-12
    # The cited constant bounds the slack against z; no search is reported.
    assert "extra_state_search" not in out
    assert -1e-13 < out["extra_state_margin_bound"] <= 0
    assert out["outcome"] == "unrefuted"


def _z_in_tiles_complement(path):
    """A unit vector orthogonal to the tiles members, other than the built-in
    extra state, written as a --z file."""
    basis = orthogonal_complement([m.vector for m in catalog("tiles").members], 9)
    z = basis @ np.array([0.5, -0.5j, 0.5, 0.5])
    path.write_text(json.dumps(encode(z / np.linalg.norm(z))))
    return str(path)


@pytest.mark.parametrize("flags", [[], ["--seed", "7"], ["--z", "{z}"]],
                         ids=["defaults", "seed", "z-file"])
def test_ups_bound_analytic_runs_no_search(tmp_path, monkeypatch, flags):
    searches = _count_calls(monkeypatch, certificates, "block_positivity_search")
    z = _z_in_tiles_complement(tmp_path / "z.json")
    argv = [f.format(z=z) for f in flags]
    code, report = run(tmp_path, "ups", "tiles", "--action", "bound", "--lambda", "analytic",
                       *argv)
    assert code == EXIT_OK and report["outputs"]["outcome"] == "unrefuted"
    assert searches == []
    # --seed is checked but not read, so the report lists it only when given.
    assert ("seed" in report["inputs"]) == ("--seed" in argv)


def test_ups_bound_analytic_refutes_a_scaled_certificate(tmp_path, monkeypatch):
    # H scaled by 1 + 1e-6 moves the slack against z off (Pi - (lam/delta)
    # zz*) / 6 by about 1e-7, which the margin bound reports as a refutation.
    # The scaling happens where ups_plus_state_bound builds H, so the margins
    # are taken of the scaled certificate.
    from sepdisc import ups

    monkeypatch.setattr(ups, "DualCertificate",
                        lambda h, tag: certificates.DualCertificate((1 + 1e-6) * h, tag))
    code, report = run(tmp_path, "ups", "tiles", "--action", "bound", "--lambda", "analytic")
    assert code == EXIT_REFUTED and report["outputs"]["outcome"] == "refuted"
    assert report["outputs"]["extra_state_margin_bound"] < -1e-7


def test_ups_bound_requires_lambda(tmp_path, capsys):
    code, _ = run(tmp_path, "ups", "tiles", "--action", "bound")
    assert code == EXIT_INPUT
    # Only tiles has a cited constant (and a built-in extra state).
    code, report = run(tmp_path, "ups", "feng", "--action", "bound", "--lambda", "analytic")
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err.endswith(
        "error: --lambda analytic is only defined for the tiles set\n")


@pytest.mark.parametrize("lam", ["0.1", "0.01", "nan", "inf", "1e300", "nonsense"])
def test_ups_bound_lambda_takes_only_analytic(tmp_path, capsys, lam):
    # A typed-in constant is not cited, so no value but 'analytic' is taken.
    code, report = run_or_exit(tmp_path, "ups", "tiles", "--action", "bound", f"--lambda={lam}")
    assert code == EXIT_INPUT and report is None
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"error: argument --lambda: invalid choice: '{lam}'" in last


def _flag_case(flag, value, message):
    return pytest.param(flag, value, message, id=f"{flag}-{value}")


@pytest.mark.parametrize("action", ["check", "enumerate", "separable"])
@pytest.mark.parametrize("flag, value, message", [
    _flag_case("--lambda", "analytic", None),
    _flag_case("--z", "missing.json", None),
    _flag_case("--seed", "3", None),
    # argparse itself rejects a --lambda other than 'analytic', and
    # --restarts, which no command takes, whatever the action.
    _flag_case("--lambda", "nonsense", "argument --lambda: invalid choice: 'nonsense'"),
    _flag_case("--restarts", "2", "unrecognized arguments: --restarts 2"),
])
def test_bound_flags_rejected_by_other_ups_actions(tmp_path, capsys, action, flag, value,
                                                   message):
    # --lambda, --z and --seed act only with --action bound; elsewhere they
    # are rejected, not ignored and recorded.
    code, report = run_or_exit(tmp_path, "ups", "tiles", "--action", action, flag, value)
    assert code == EXIT_INPUT and report is None
    err = capsys.readouterr().err
    if message is None:
        assert err == f"error: ups --action {action} takes no {flag}\n"
    else:
        assert f"error: {message}" in err.splitlines()[-1]


def write_product_set(path, dims, pairs):
    """A product set of standard-basis pairs (i, j) -> |i> (x) |j>."""
    ex, ey = np.eye(dims[0]), np.eye(dims[1])
    members = [{"x": encode(ex[i]), "y": encode(ey[j])} for i, j in pairs]
    space = {"dim_x": dims[0], "dim_y": dims[1]}
    path.write_text(json.dumps({"kind": "product_set", "space": space, "members": members}))


@pytest.mark.parametrize("action", ["enumerate", "separable"])
def test_ups_extendable_file_rejected(tmp_path, capsys, action):
    path = tmp_path / "set.json"
    write_product_set(path, (2, 2), [(0, 0), (1, 1)])
    code, report = run(tmp_path, "ups", str(path), "--action", action)
    assert code == EXIT_INPUT and report is None
    message = "input is not unextendable: a subset leaves a degree of freedom"
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("action", ["check", "enumerate", "separable"])
def test_ups_oversized_file_rejected(tmp_path, capsys, action):
    path = tmp_path / "set.json"
    write_product_set(path, (5, 5), [(i, j) for i in range(5) for j in range(5)][:21])
    code, report = run(tmp_path, "ups", str(path), "--action", action)
    assert code == EXIT_INPUT and report is None
    message = "subset enumeration is capped at 20 members, got 21"
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("name", ["bell3", "bell4", "ydy", "domino", "tiles_psi"])
def test_ups_rejects_ensemble_names(tmp_path, capsys, name):
    code, report = run(tmp_path, "ups", name)
    assert code == EXIT_INPUT and report is None
    message = f"{name!r} is an ensemble; use the 'discriminate' command"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["tiles", "feng"])
def test_discriminate_rejects_product_set_names(tmp_path, capsys, name):
    code, report = run(tmp_path, "discriminate", name)
    assert code == EXIT_INPUT and report is None
    message = f"{name!r} is a product set; use the 'ups' command"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ups_measurement_failure_is_not_an_input_error(monkeypatch):
    # A measurement that fails its own check is a numerical fault, not bad
    # input: it must not be reported as exit 2.
    from sepdisc import cli

    def bad_measurement(_):
        raise ValueError("measurement operators must sum to the identity")

    monkeypatch.setattr(cli, "separable_perfect_discrimination", bad_measurement)
    with pytest.raises(ValueError, match="sum to the identity"):
        main(["ups", "tiles", "--action", "separable"])


@pytest.mark.parametrize("measurement_class", ["ppt", "global"])
def test_accepted_solve_with_invalid_measurement_exits_3(monkeypatch, capsys, measurement_class):
    # X blocks that fail the Measurement checks after an accepted solve are a
    # non-convergence: exit 3 with the iterate log, not a traceback.
    from sepdisc import conesolve

    solve = conesolve.solve_sdp

    def scaled(problem):
        sol = solve(problem)
        sol.x_blocks = [1.01 * x for x in sol.x_blocks]
        return sol

    monkeypatch.setattr(conesolve, "solve_sdp", scaled)
    assert main(["discriminate", "bell4", "--class", measurement_class]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        f"error: {measurement_class} discrimination solve was accepted, "
        "but measurement operators must sum to the identity"
    )
    assert err[1].startswith("iter\tprimal\tdual\t")
    assert len(err) > 2


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    from sepdisc import cli
    from sepdisc.conesolve import ConvergenceError

    def boom(_):
        raise ConvergenceError("did not converge")

    monkeypatch.setattr(cli, "optimal_ppt", boom)
    code = main(["discriminate", "bell4", "--class", "ppt"])
    assert code == 3


def test_report_roundtrip_and_determinism(tmp_path):
    code1, rep1 = run(tmp_path, "discriminate", "bell4", "--class", "ppt")
    code2, rep2 = run(tmp_path, "discriminate", "bell4", "--class", "ppt")
    assert code1 == code2 == EXIT_OK
    assert rep1["outputs"] == rep2["outputs"]
    assert json.loads(json.dumps(rep1)) == rep1


def test_unwritable_output_paths(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    for argv in (
        ["ups", "tiles", "--action", "check", "--out", str(tmp_path)],
        ["ups", "tiles", "--action", "check", "--out", str(missing)],
        ["discriminate", "bell3", "--class", "global", "--log-iterates", str(tmp_path)],
    ):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

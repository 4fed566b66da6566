import json

import numpy as np
import pytest

from sepdisc.certificates import _initial_directions
from sepdisc.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUTED,
    InputError,
    decode_matrix,
    decode_vector,
    encode_matrix,
    encode_vector,
    load_ensemble,
    main,
    save_ensemble,
)
from sepdisc.states import catalog


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_complex_codec_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(decode_vector(encode_vector(v)), v)


def test_codec_roundtrips_through_json(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    again = decode_matrix(json.loads(json.dumps(encode_matrix(m))))
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


def test_certify_requires_epsilon(tmp_path):
    code, _ = run(tmp_path, "certify", "bell3")
    assert code == EXIT_INPUT
    # the three-Bell construction excludes the endpoints
    code, _ = run(tmp_path, "certify", "bell3", "--epsilon", "0")
    assert code == EXIT_INPUT


def test_certify_ydy_rejects_epsilon(tmp_path, capsys):
    # ydy has no resource parameter; the flag is rejected, not ignored.
    code, report = run(tmp_path, "certify", "ydy", "--epsilon", "0.5")
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == "error: certify ydy takes no --epsilon\n"


def test_certify_bell3(tmp_path):
    code, report = run(
        tmp_path, "certify", "bell3", "--epsilon", "0.6", "--restarts", "60"
    )
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


def test_certify_ydy_deterministic(tmp_path):
    code1, rep1 = run(tmp_path, "certify", "ydy", "--restarts", "50", "--seed", "77")
    code2, rep2 = run(tmp_path, "certify", "ydy", "--restarts", "50", "--seed", "77")
    assert code1 == code2 == EXIT_OK
    assert rep1["outputs"] == rep2["outputs"]
    assert rep1["outputs"]["claimed_trace"] == 0.75
    assert max(rep1["outputs"]["skew_symmetry_residuals"]) <= 1e-12


def test_certify_ydy_cold_and_warm_direction_cache(tmp_path):
    _initial_directions.cache_clear()
    code1, rep1 = run(tmp_path, "certify", "ydy")
    assert _initial_directions.cache_info().misses == 1
    code2, rep2 = run(tmp_path, "certify", "ydy")
    assert _initial_directions.cache_info().misses == 1
    assert code1 == code2 == EXIT_OK
    assert json.dumps(rep1["outputs"]) == json.dumps(rep2["outputs"])


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
    ],
)
def test_see_saw_flags_rejected(tmp_path, capsys, argv, message):
    # exit 2 with a one-line message and no traceback
    code, report = run(tmp_path, *argv)
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == f"error: {message}\n"


def _bare_number_ensemble(path):
    save_ensemble(str(path), catalog("bell3"))
    data = json.loads(path.read_text())
    data["states"][0] = [[1.0, 0.0, 0.0, 0.0]] * 4  # rows of numbers, not pairs
    path.write_text(json.dumps(data))


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
         None, "expected a list of [re, im] number pairs"),
        (["discriminate", "{path}", "--class", "global"],
         {"kind": "ensemble", "states": [], "probs": []}, "'space'"),
        (["ups", "{path}", "--action", "check"],
         {"kind": "product_set", "space": {"dim_x": 3, "dim_y": 3}, "members": 5},
         "'int' object is not iterable"),
    ],
    ids=["ups-bound-z", "ups-check", "discriminate-list", "discriminate-bare-rows",
         "discriminate-no-space", "ups-members-number"],
)
def test_malformed_json_input_rejected(tmp_path, capsys, argv, content, message):
    # exit 2 with a one-line message and no traceback
    path = tmp_path / "input.json"
    if content is None:
        _bare_number_ensemble(path)
    else:
        path.write_text(json.dumps(content))
    code, report = run(tmp_path, *(a.format(path=path) for a in argv))
    assert code == EXIT_INPUT and report is None
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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
    code, report = run(
        tmp_path, "ups", "tiles", "--action", "bound", "--lambda", "analytic",
        "--restarts", "100",
    )
    assert code == EXIT_OK
    out = report["outputs"]
    assert out["bound"] < 1 - 1.647e-4
    assert abs(out["delta"] - (2 + np.sqrt(2)) / 4) <= 1e-12
    assert out["outcome"] == "unrefuted"


def test_ups_bound_oversized_lambda_is_refuted(tmp_path):
    # a constant far above the true minimum must be caught by the search
    code, report = run(
        tmp_path, "ups", "tiles", "--action", "bound", "--lambda", "0.5",
        "--restarts", "100",
    )
    assert code == EXIT_REFUTED
    assert report["outputs"]["outcome"] == "refuted"
    assert report["outputs"]["extra_state_search"]["min_overlap"] < -1e-9


def test_ups_bound_requires_lambda(tmp_path):
    code, _ = run(tmp_path, "ups", "tiles", "--action", "bound")
    assert code == EXIT_INPUT
    code, _ = run(tmp_path, "ups", "feng", "--action", "bound", "--lambda", "analytic")
    assert code == EXIT_INPUT


def test_ups_bound_rejects_non_finite_lambda(tmp_path, capsys):
    for lam in ("nan", "inf"):
        code, report = run(tmp_path, "ups", "tiles", "--action", "bound", "--lambda", lam)
        assert code == EXIT_INPUT and report is None
        err = capsys.readouterr().err
        assert err == f"error: lam must be finite and positive, got {lam}\n"


def write_product_set(path, dims, pairs):
    """A product set of standard-basis pairs (i, j) -> |i> (x) |j>."""
    ex, ey = np.eye(dims[0]), np.eye(dims[1])
    members = [{"x": encode_vector(ex[i]), "y": encode_vector(ey[j])} for i, j in pairs]
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


def test_ups_measurement_failure_is_not_an_input_error(monkeypatch):
    # A measurement that fails its own check is a numerical fault, not bad
    # input: it must not be reported as exit 2.
    from sepdisc import cli

    def bad_measurement(_):
        raise ValueError("measurement operators must sum to the identity")

    monkeypatch.setattr(cli, "separable_perfect_discrimination", bad_measurement)
    with pytest.raises(ValueError, match="sum to the identity"):
        main(["ups", "tiles", "--action", "separable"])


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

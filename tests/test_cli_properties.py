"""Property tests of the CLI on generated input files (needs hypothesis, a
test extra)."""

import contextlib
import io
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sepdisc.cli import EXIT_INPUT, EXIT_OK, EXIT_REFUTED, EXIT_SOLVER, main
from test_cli import write_product_set


@st.composite
def standard_basis_sets(draw):
    """(dims, pairs): distinct standard-basis pairs on a d_x x d_y space, d <= 3."""
    dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, dx - 1), st.integers(0, dy - 1))
    pairs = draw(st.lists(pair, min_size=1, max_size=dx * dy, unique=True))
    return (dx, dy), pairs


@settings(max_examples=60, deadline=None, database=None)
@given(standard_basis_sets(), st.sampled_from(["check", "enumerate", "separable"]))
def test_ups_file_actions_end_in_an_exit_code(product_set, action):
    # Complete bases are unextendable; every other such set is extendable,
    # which enumerate and separable reject. Either way the run ends in an
    # exit code, with one line on stderr for bad input, never an exception.
    dims, pairs = product_set
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "set.json"
        write_product_set(path, dims, pairs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ups", str(path), "--action", action])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER)
    if code == EXIT_INPUT:
        assert err.getvalue().startswith(f"error: {path}: ")
        assert err.getvalue().count("\n") == 1


# Flag values: every kind of float as Python prints it (nan, +-inf, subnormal,
# huge), spellings that float() takes or rejects, and arbitrary text.
flag_values = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e309", "-0", "5e-324", "0x1p-2", "", " 1 ", "1_0", "one"]),
    st.text(max_size=6),
)
unit_floats = st.floats(0.0, 1.0).map(repr)


def assert_clean_exit(argv):
    """Runs the CLI in process: it must end in a documented exit code, and an
    input error (argparse's own included) must print exactly one error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER, EXIT_REFUTED), (argv, code)
    if code == EXIT_INPUT:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, err.getvalue()


def _normalized(ps):
    return ",".join(repr(p / sum(ps)) for p in ps)


# bell3 has three states: valid priors, three numbers of any kind, and lists
# of any length of anything.
priors = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda ps: sum(ps) > 0).map(_normalized),
    st.lists(st.one_of(unit_floats, st.floats().map(repr)), min_size=3, max_size=3).map(",".join),
    st.lists(flag_values, min_size=1, max_size=4).map(",".join),
)


# Each flag goes through the cheapest command that reads it (a 4-dim global
# solve, two see-saw restarts); each test takes under a second on a 2-vCPU host.
@settings(max_examples=40, deadline=None, database=None)
@given(priors)
def test_prior_values_end_in_an_exit_code(prior):
    assert_clean_exit(["discriminate", "bell3", "--class", "global", f"--prior={prior}"])


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["bell3", "bell4"]), st.one_of(unit_floats, flag_values))
def test_epsilon_values_end_in_an_exit_code(name, epsilon):
    assert_clean_exit(["certify", name, f"--epsilon={epsilon}", "--restarts", "2"])


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(unit_floats, flag_values))
def test_lambda_values_end_in_an_exit_code(lam):
    assert_clean_exit(["ups", "tiles", "--action", "bound", f"--lambda={lam}", "--restarts", "2"])

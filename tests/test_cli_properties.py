"""Property tests of the CLI on generated input files (needs hypothesis, a
test extra)."""

import contextlib
import io
import json
import math
import pathlib
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sepdisc.cli import EXIT_INPUT, EXIT_OK, EXIT_REFUTED, EXIT_SOLVER, main
from sepdisc.states import tiles_orthogonal_state
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
    """Runs the CLI in process: it must end in a documented exit code, without
    a RuntimeWarning (numpy's overflow and invalid-value warnings), and an
    input error (argparse's own included) must print exactly one error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
# solve, a certificate check); each test takes under a second on a 2-vCPU host.
@settings(max_examples=40, deadline=None, database=None)
@given(priors)
@example("0.0,1.0,2.225073858507203e-309")  # a subnormal step-length eigenvalue
def test_prior_values_end_in_an_exit_code(prior):
    assert_clean_exit(["discriminate", "bell3", "--class", "global", f"--prior={prior}"])


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["bell3", "bell4"]), st.one_of(unit_floats, flag_values))
def test_epsilon_values_end_in_an_exit_code(name, epsilon):
    assert_clean_exit(["certify", name, f"--epsilon={epsilon}"])


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(unit_floats, flag_values))
def test_lambda_values_end_in_an_exit_code(lam):
    assert_clean_exit(["ups", "tiles", "--action", "bound", f"--lambda={lam}"])


# -- Fuzzed ensemble and product-set files --------------------------------------

# Any JSON value: NaN and +-Infinity (json.dumps writes them as literals),
# ints beyond the float range, bools, strings, and nested lists and objects.
json_scalars = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**63, 0, 1, -1]),
    st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=4),
)
json_values = st.one_of(json_scalars, st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=8,
))


def _pair(c):
    return [c.real, c.imag]


# The smallest valid files: two orthogonal states on C^1 (x) C^2, whose global
# and PPT solves take a few milliseconds, the standard basis of C^2 (x) C^2,
# and the tiles set's orthogonal state as a --z file.
VALID_FILES = {
    "ensemble": {
        "kind": "ensemble",
        "space": {"dim_x": 1, "dim_y": 2, "factors_x": [1], "factors_y": [2]},
        "probs": [0.5, 0.5],
        "states": [
            [[_pair(1), _pair(0)], [_pair(0), _pair(0)]],
            [[_pair(0), _pair(0)], [_pair(0), _pair(1)]],
        ],
    },
    "product_set": {
        "kind": "product_set",
        "space": {"dim_x": 2, "dim_y": 2},
        "members": [
            {"x": [_pair(i == 0), _pair(i == 1)], "y": [_pair(j == 0), _pair(j == 1)]}
            for i in range(2) for j in range(2)
        ],
    },
    "z": [_pair(c) for c in tiles_orthogonal_state()],
}
# Each command that reads a file, with the kind of file it reads.
FILE_ARGV = [
    ("ensemble", ["discriminate", "{path}", "--class", "global"]),
    ("ensemble", ["discriminate", "{path}", "--class", "ppt"]),
    ("product_set", ["ups", "{path}", "--action", "check"]),
    ("z", ["ups", "tiles", "--action", "bound", "--lambda", "analytic", "--z", "{path}"]),
]


def _paths(value, prefix=()):
    """Every position in a JSON value, the value itself first."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _substituted(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _substituted(value[path[0]], path[1:], new)
    return out


@st.composite
def fuzzed_files(draw):
    """(argv, file bytes): a command and a valid file of its kind with one
    position replaced by any JSON value, truncated, or raw bytes."""
    kind, argv = draw(st.sampled_from(FILE_ARGV))
    valid = VALID_FILES[kind]
    text = json.dumps(valid)
    content = draw(st.one_of(
        st.tuples(st.sampled_from(list(_paths(valid))), json_values).map(
            lambda pv: json.dumps(_substituted(valid, *pv)).encode()),
        st.integers(0, len(text) - 1).map(lambda n: text[:n].encode()),
        st.binary(max_size=24),
    ))
    return argv, content


# An imaginary part near the float limit: its Hermiticity deviation overflows.
HUGE_IMAGINARY = _substituted(VALID_FILES["ensemble"], ("states", 1, 1, 1, 1), 8.98846567431158e307)


@settings(max_examples=200, deadline=None, database=None)
@given(fuzzed_files())
@example((FILE_ARGV[0][1], json.dumps(HUGE_IMAGINARY).encode()))
def test_fuzzed_input_files_end_in_an_exit_code(fuzzed):
    # A file in any shape ends in an exit code, with exactly one line
    # naming the file on exit 2, never an exception.
    argv, content = fuzzed
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(path=path) for a in argv])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER, EXIT_REFUTED), (content, code)
    if code == EXIT_INPUT:
        assert err.getvalue().startswith(f"error: {path}: "), (content, err.getvalue())
        assert err.getvalue().count("\n") == 1, (content, err.getvalue())

"""Property tests of the CLI on generated input files (needs hypothesis, a
test extra)."""

import contextlib
import io
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sepdisc.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
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

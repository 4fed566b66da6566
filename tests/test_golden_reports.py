"""The README CLI examples against stored reports.

``golden/readme_outputs.json`` maps each example's argv to the ``outputs``
block of its report. Keys, their order, list lengths, strings, bools and
integer counts must match exactly. Floats match to ``SCALAR_TOL``, except the
matrices read off an interior-point solve (the PPT dual certificate, the
measurement and the Farkas witness), which match to ``SOLVER_MATRIX_TOL``:
the bell4 (x) tau(0.6) certificate moves 1.5e-5 between one and two BLAS
threads. Solver iteration counts are not compared, and see-saw witness
vectors are checked for length and unit norm only, since which restart wins
is decided by roundoff.

Regenerate the file, after a deliberate change of a report, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import math
import pathlib

import pytest

from sepdisc.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "readme_outputs.json"
SCALAR_TOL = 1e-8
SOLVER_MATRIX_TOL = 1e-4

README_EXAMPLES = (
    "discriminate bell4 --class ppt",
    "discriminate bell4 --class ppt --epsilon 0.6",
    "discriminate ydy --class ppt",
    "certify bell3 --epsilon 0.6",
    "certify ydy",
    "ups feng --action enumerate",
    "ups feng --action separable",
    "ups tiles --action bound --lambda analytic",
)


def outputs_of(command: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    return code, json.loads(buf.getvalue())["outputs"]


def _solver_matrix(command: str, key: str) -> bool:
    return key in ("measurement", "farkas") or (
        key == "certificate" and command.startswith("discriminate")
    )


def _compare(got, want, path: str, tol: float) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", tol)
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= tol, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _compare_search(got: dict, want: dict, path: str) -> None:
    assert list(got) == list(want), path
    for key in want:
        if key in ("witness_x", "witness_y"):
            assert len(got[key]) == len(want[key]), f"{path}.{key}"
            norm = math.sqrt(sum(re * re + im * im for re, im in got[key]))
            assert abs(norm - 1.0) <= SCALAR_TOL, (f"{path}.{key}", norm)
        elif key == "iterations":
            assert isinstance(got[key], int), f"{path}.{key}"
        else:
            _compare(got[key], want[key], f"{path}.{key}", SCALAR_TOL)


def compare_outputs(command: str, got: dict, want: dict) -> None:
    assert list(got) == list(want), command
    for key in want:
        path = f"{command}: {key}"
        if key == "iterations":
            assert isinstance(got[key], int), path
        elif key == "searches":
            assert len(got[key]) == len(want[key]), path
            for i, (g, w) in enumerate(zip(got[key], want[key])):
                _compare_search(g, w, f"{path}[{i}]")
        elif key == "extra_state_search":
            _compare_search(got[key], want[key], path)
        else:
            tol = SOLVER_MATRIX_TOL if _solver_matrix(command, key) else SCALAR_TOL
            _compare(got[key], want[key], path, tol)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_readme_examples(golden):
    assert tuple(golden) == README_EXAMPLES


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example_matches_golden_report(golden, command):
    code, outputs = outputs_of(command)
    assert code == golden[command]["exit_code"]
    compare_outputs(command, outputs, golden[command]["outputs"])


if __name__ == "__main__":
    reports = {}
    for command in README_EXAMPLES:
        code, outputs = outputs_of(command)
        reports[command] = {"exit_code": code, "outputs": outputs}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, separators=(",", ":")) + "\n")

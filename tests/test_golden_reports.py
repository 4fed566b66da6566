"""The README CLI examples against stored reports.

``golden/readme_outputs.json`` maps each example's argv to the ``outputs``
block of its report. Keys, their order, list lengths, strings, bools and
integer counts must match exactly. Floats match to ``SCALAR_TOL``, except the
matrices read off an interior-point solve (the PPT dual certificate, the
measurement and the Farkas witness), which match to ``SOLVER_MATRIX_TOL``:
the bell4 (x) tau(0.6) certificate moves 1.5e-5 between one and two BLAS
threads. Solver iteration counts are not compared.

Regenerate the file, after a deliberate change of a report, with
``PYTHONPATH=src python tests/test_golden_reports.py``. It rewrites only the
entries that no longer match, so the diff shows the change and nothing else.
"""

import contextlib
import io
import json
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


def compare_outputs(command: str, got: dict, want: dict) -> None:
    assert list(got) == list(want), command
    for key in want:
        path = f"{command}: {key}"
        if key == "iterations":
            assert isinstance(got[key], int), path
        else:
            tol = SOLVER_MATRIX_TOL if _solver_matrix(command, key) else SCALAR_TOL
            _compare(got[key], want[key], path, tol)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def runs() -> dict:
    return {command: outputs_of(command) for command in README_EXAMPLES}


def test_golden_file_covers_the_readme_examples(golden):
    assert tuple(golden) == README_EXAMPLES


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example_matches_golden_report(golden, runs, command):
    code, outputs = runs[command]
    assert code == golden[command]["exit_code"]
    compare_outputs(command, outputs, golden[command]["outputs"])


def test_regeneration_keeps_matching_entries(runs):
    # On unchanged reports the regeneration script writes the file back byte
    # for byte, so a deliberate report change shows as that change alone.
    text = GOLDEN.read_text()
    assert regenerated(json.loads(text), runs) == text


def matches(command: str, code: int, outputs: dict, entry: dict) -> bool:
    try:
        assert code == entry["exit_code"], command
        compare_outputs(command, outputs, entry["outputs"])
    except AssertionError:
        return False
    return True


def regenerated(stored: dict, runs: dict) -> str:
    """The golden file's text for the (exit code, outputs) ``runs`` of the
    README examples, keeping every ``stored`` entry that still matches."""
    reports = {}
    for command in README_EXAMPLES:
        code, outputs = runs[command]
        entry = stored.get(command)
        if entry is None or not matches(command, code, outputs, entry):
            entry = {"exit_code": code, "outputs": outputs}
        reports[command] = entry
    return json.dumps(reports, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    if not __debug__:
        raise SystemExit("run without -O: the comparison is made of assert statements")
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(regenerated(stored, {c: outputs_of(c) for c in README_EXAMPLES}))

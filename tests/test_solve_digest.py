"""tools/solve_digest.py, which every bit-identity claim rests on."""

import importlib.util
import pathlib

from sepdisc import conesolve

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("solve_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_repeatable_and_restores_the_solver():
    tool = _load_tool()
    original = conesolve.solve_sdp
    first = tool.digest("certify-ups", 0)
    assert conesolve.solve_sdp is original
    second = tool.digest("certify-ups", 0)
    assert conesolve.solve_sdp is original
    assert len(first) == 18
    assert first == second
    # One hash per solve and per CLI operation, each a sha256 hex digest.
    labels = [label.split()[0] for label, _ in first]
    assert "solve" in labels and "cli" in labels
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for _, sha in first)

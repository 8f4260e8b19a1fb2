"""Every narrative demo runs to completion against the current library and
prints, byte for byte, the stdout captured in ``tests/golden/demos/``.

A change to a demo's printed bytes is a change to its output; when one is
intended, regenerate the capture and say so in the change log.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden_capture(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    stdout = capsys.readouterr().out
    assert stdout.encode("utf-8") == (GOLDEN / f"{path.stem}.txt").read_bytes()

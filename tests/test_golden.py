"""CLI reports pinned across commits: each invocation's stdout must match the
committed capture in ``tests/golden/`` byte for byte.

A change to a report's bytes is a change to the report contract; when one is
intended, regenerate the capture and say so in the change log. Each
invocation also runs as a fresh ``python -m stoqlift.cli`` process, where no
earlier test has imported a module for the handler.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stoqlift
from stoqlift.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
ENV = dict(os.environ, PYTHONPATH=str(Path(stoqlift.__file__).resolve().parents[1]),
           PYTHONDONTWRITEBYTECODE="1")

#: (capture name, argv with ``@name`` standing for ``demos/data/name.json``, exit code)
INVOCATIONS = [
    ("validate_flip", ["validate", "@flip_kernel"], 0),
    ("validate_identity_channel", ["validate", "@identity_channel"], 0),
    ("lift_flip", ["lift", "@flip_kernel"], 0),
    ("lift_mix_canonical", ["lift", "@mix_kernel", "--method", "canonical"], 0),
    ("lift_mix_theta", ["lift", "@mix_kernel", "--method", "theta",
                        "--theta", "@hadamard_theta"], 0),
    ("lift_mix_barandes", ["lift", "@mix_kernel", "--method", "barandes",
                           "--theta", "@hadamard_theta"], 0),
    ("classical_mix_flip", ["divisibility", "--mode", "classical",
                            "@mix_kernel", "@flip_kernel"], 0),
    ("classical_flip_mix", ["divisibility", "--mode", "classical",
                            "@flip_kernel", "@mix_kernel"], 0),
    ("quantum_hadamard_identity", ["divisibility", "--mode", "quantum",
                                   "@hadamard_conjugation", "@identity_channel"], 0),
    ("theorem1_hadamard_identity", ["divisibility", "--mode", "theorem1",
                                    "@hadamard_conjugation", "@identity_channel"], 0),
    ("demo_ck_unitary", ["demo", "ck-checklist", "--kind", "unitary"], 0),
    ("demo_theta_triviality", ["demo", "theta-triviality"], 0),
    ("demo_ck_gksl", ["demo", "ck-checklist", "--kind", "gksl",
                      "--family", "@decay_generator"], 0),
    ("demo_scaling", ["demo", "scaling", "--rate", "@symmetric_rate"], 0),
    ("demo_ck_pairwise_lift", ["demo", "ck-checklist", "--kind", "pairwise-lift"], 1),
    ("demo_phase_memory", ["demo", "phase-memory"], 0),
    ("demo_ctmc_embedding", ["demo", "ctmc-embedding", "--rate", "@symmetric_rate"], 0),
]


def cli_args(argv):
    """``argv`` with each ``@name`` replaced by the path of ``demos/data/name.json``."""
    return [str(DATA / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def run_cli(argv):
    """Exit code and stdout of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(cli_args(argv))
    return code, out.getvalue()


each_invocation = pytest.mark.parametrize("name, argv, code", INVOCATIONS,
                                          ids=[name for name, _, _ in INVOCATIONS])


@each_invocation
def test_stdout_matches_golden_capture(name, argv, code):
    got_code, stdout = run_cli(argv)
    assert got_code == code
    assert stdout.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


@each_invocation
def test_fresh_process_matches_golden_capture(name, argv, code):
    run = subprocess.run([sys.executable, "-m", "stoqlift.cli", *cli_args(argv)],
                         env=ENV, capture_output=True)
    assert run.returncode == code
    assert run.stdout == (GOLDEN / f"{name}.json").read_bytes()

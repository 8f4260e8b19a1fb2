"""CLI reports pinned across commits: each invocation's stdout must match the
committed capture in ``tests/golden/`` byte for byte.

A change to a report's bytes is a change to the report contract; when one is
intended, regenerate the capture and say so in the change log.
"""

import contextlib
import io
from pathlib import Path

import pytest

from stoqlift.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

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


def run_cli(argv):
    """Exit code and stdout of one in-process CLI invocation."""
    args = [str(DATA / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv, code", INVOCATIONS,
                         ids=[name for name, _, _ in INVOCATIONS])
def test_stdout_matches_golden_capture(name, argv, code):
    got_code, stdout = run_cli(argv)
    assert got_code == code
    assert stdout.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()

"""The shipped package holds only what the command line loads: a fresh
``import stoqlift.cli`` imports every module under ``src/stoqlift``, so a
test-only helper (such as ``tests/random_ops.py``) cannot creep back in.
"""

import os
import subprocess
import sys
from pathlib import Path

import stoqlift

PACKAGE = Path(stoqlift.__file__).resolve().parent


def test_cli_import_loads_every_shipped_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stoqlift.cli; "
         "print(*sorted(m for m in sys.modules if m.startswith('stoqlift.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    shipped = {f"stoqlift.{path.stem}" for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"}
    assert set(out.split()) == shipped

"""Print one SHA-256 per benchmark workload over the library's answers.

The answers are what ``op.run()`` returns on perfbench's own seeded inputs:
verdicts, reasons, floats as hex and array bytes, witnesses included, or
the type and message of what it raised. Two checkouts that print the same
digests answered those inputs bit for bit alike. Run from the root of each
checkout::

    python tools/answer_digest.py

The slices are the 8 ``lift-dense`` inputs of seeds 1-5, the first 2000
``divide`` ops of seeds 5-7 and the first 108 ``ck-families`` ops of seed 5.
``perfbench/`` is imported to build the ops and is left as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

if __name__ == "__main__":  # one BLAS thread, as in perfbench, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from inputs import Digest  # noqa: E402  (perfbench's input digest)

#: (workload, its perfbench module, seeds, ops per seed).
SLICES = (("lift-dense", "lift_dense", (1, 2, 3, 4, 5), 8),
          ("divide", "divide", (5, 6, 7), 2000),
          ("ck-families", "ck_families", (5,), 108))
#: Properties that hold the data of a library value that is not a dataclass.
DATA = ("matrix", "operators", "entries")


def feed(h, value) -> None:
    """Update ``h`` with ``value``, its type and shape included."""
    if value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, (float, complex, np.generic)):
        value = complex(value)
        h.update(f"num:{value.real.hex()},{value.imag.hex()};".encode())
    elif isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        h.update(f"array:{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"seq:{len(value)};".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, dict):
        h.update(f"dict:{len(value)};".encode())
        for key, item in value.items():
            feed(h, key)
            feed(h, item)
    else:
        cls = type(value)
        h.update(f"{cls.__name__}{{".encode())
        if dataclasses.is_dataclass(value):
            names = [f.name for f in dataclasses.fields(value)]
            names += [name for name in sorted(dir(cls))
                      if isinstance(getattr(cls, name), property)]
        else:
            names = [name for name in DATA if isinstance(getattr(cls, name, None), property)]
            names += sorted(getattr(value, "__dict__", ()))
        for name in names:
            if not name.startswith("_"):
                feed(h, name)
                feed(h, getattr(value, name))
        h.update(b"}")


def answer(h, op) -> None:
    """Feed ``h`` with the answer of one op, or with what it raised."""
    try:
        out = op.run()
    except Exception as exc:  # a raise is an answer too
        h.update(f"raised:{type(exc).__name__}:{exc};".encode())
    else:
        feed(h, out)


def workload_ops(module_name: str, seed: int) -> list:
    """The ops that perfbench's ``module_name`` builds at ``seed``, in order."""
    ctx = SimpleNamespace(seed=seed, rng=np.random.default_rng(seed), digest=Digest(),
                          root=ROOT, outdir=None, trace=False)
    return importlib.import_module(module_name).build(ctx)[0]


def digest(ops) -> str:
    """SHA-256 over the answers of ``ops``, run in order."""
    h = hashlib.sha256()
    for op in ops:
        answer(h, op)
    return h.hexdigest()


def main() -> int:
    for name, module_name, seeds, count in SLICES:
        ops = [op for seed in seeds for op in workload_ops(module_name, seed)[:count]]
        print(f"{digest(ops)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""JSON file formats for kernels, operators, maps, and scenarios.

Real matrix / vector: ``{"n": N, "rows": [[...], ...]}`` with rows listed top
to bottom; optional time stamps ``{"from_t": ..., "to_t": ...}``, each a
finite number. A column vector is an N x 1 matrix. Complex matrices use
``[re, im]`` pairs for each entry. Kraus maps: ``{"ops": [complex-matrix,
...]}``. Generators: ``{"h": complex-matrix, "jumps": [complex-matrix,
...]}``. All numbers are finite IEEE doubles in decimal text: ``NaN``,
``Infinity`` and literals that overflow a double are rejected, and writing
a non-finite number raises ``ValueError``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import GkslGenerator
from .kernels import ProbabilityVector, RateMatrix, StochasticKernel
from .lifts import KrausMap, SuperOperator, to_superoperator


class SerializationError(ValueError):
    """Malformed or structurally inconsistent input file."""


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SerializationError(f"{path}: top-level JSON value must be an object")
    return obj


def _plain(value):
    """``json.dumps`` hook: a numpy array as nested lists, a numpy scalar as
    a Python number, each complex entry as an ``[re, im]`` pair."""
    if not isinstance(value, (np.ndarray, np.generic)):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if np.iscomplexobj(value):
        value = np.stack((value.real, value.imag), axis=-1)
    return value.tolist()


def _dumps(obj) -> str:
    """The one JSON text of files and reports: indent 2, sorted keys, a final
    newline. NaN or infinity raises ``ValueError``; ``load_json`` refuses both."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain,
                      allow_nan=False) + "\n"


def dump_json(obj: dict, path) -> None:
    """Write ``_dumps(obj)`` to ``path``; if that raises, no file is opened."""
    Path(path).write_text(_dumps(obj), encoding="utf-8")


def _number_rows(obj: dict, columns: int | None = None,
                 pairs: bool = False) -> np.ndarray:
    """The "rows" of a matrix object as a finite float array of shape
    ``(n, columns)`` (``columns`` defaults to n), with a trailing axis of 2
    when the entries are ``[re, im]`` pairs."""
    if not isinstance(obj, dict):
        raise SerializationError(
            f"expected a matrix object, got {type(obj).__name__}")
    if "n" not in obj or "rows" not in obj:
        raise SerializationError('matrix object needs "n" and "rows" keys')
    n = obj["n"]
    rows = obj["rows"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SerializationError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(rows, list) or len(rows) != n:
        raise SerializationError(
            f'"rows" must list exactly n={n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}')
    columns = n if columns is None else columns
    layout = f"an {n} x {columns} matrix" + (" of [re, im] pairs" if pairs else "")
    try:
        m = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"rows do not form {layout}: {exc}") from exc
    if m.shape != ((n, columns, 2) if pairs else (n, columns)):
        raise SerializationError(f"rows do not form {layout}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SerializationError("rows hold a non-finite number (NaN or infinity)")
    return m


def real_matrix_from_json(obj: dict) -> np.ndarray:
    m = _number_rows(obj)
    for key in ("from_t", "to_t"):
        t = obj.get(key, 0.0)  # the bound also rejects integers beyond a double
        if (isinstance(t, bool) or not isinstance(t, (int, float))
                or not abs(t) <= sys.float_info.max):
            raise SerializationError(f'"{key}" must be a finite number, got {t!r}')
    return m


def real_matrix_to_json(matrix, from_time=None, to_time=None) -> dict:
    """A real matrix (N x 1 for a vector) with the time stamps given."""
    m = np.asarray(matrix, dtype=float)
    obj = {"n": len(m), "rows": _plain(m)}
    if from_time is not None:
        obj["from_t"] = float(from_time)
    if to_time is not None:
        obj["to_t"] = float(to_time)
    return obj


def complex_matrix_from_json(obj: dict) -> np.ndarray:
    """A matrix of ``[re, im]`` pairs, each pair's bits kept: the contiguous
    pairs are read as complex numbers, as ``re + 1j * im`` would lose a
    ``-0.0``."""
    return _number_rows(obj, pairs=True).view(complex)[..., 0]


def complex_matrix_to_json(matrix) -> dict:
    """A complex matrix, each entry an ``[re, im]`` pair."""
    m = np.asarray(matrix, dtype=complex)
    return {"n": len(m), "rows": _plain(m)}


def kernel_from_json(obj: dict) -> StochasticKernel:
    return StochasticKernel(real_matrix_from_json(obj),
                            from_time=obj.get("from_t"), to_time=obj.get("to_t"))


def kernel_to_json(kernel: StochasticKernel) -> dict:
    return real_matrix_to_json(kernel.matrix, kernel.from_time, kernel.to_time)


def probability_vector_from_json(obj: dict) -> ProbabilityVector:
    return ProbabilityVector(_number_rows(obj, columns=1)[:, 0])


def probability_vector_to_json(p: ProbabilityVector) -> dict:
    return real_matrix_to_json(p.entries[:, None])


def rate_matrix_from_json(obj: dict) -> RateMatrix:
    return RateMatrix(real_matrix_from_json(obj))


def kraus_from_json(obj: dict) -> KrausMap:
    if "ops" not in obj or not isinstance(obj["ops"], list) or not obj["ops"]:
        raise SerializationError('Kraus object needs a nonempty "ops" list')
    return KrausMap([complex_matrix_from_json(op) for op in obj["ops"]])


def kraus_to_json(kmap: KrausMap) -> dict:
    return {"ops": [complex_matrix_to_json(op) for op in kmap.operators]}


def superoperator_from_json(obj: dict) -> SuperOperator:
    """Accepts either a complex matrix of side N^2 or a Kraus object."""
    if isinstance(obj, dict) and "ops" in obj:
        return to_superoperator(kraus_from_json(obj))
    return SuperOperator(complex_matrix_from_json(obj))


def superoperator_to_json(s: SuperOperator) -> dict:
    return complex_matrix_to_json(s.matrix)


def generator_from_json(obj: dict) -> GkslGenerator:
    if "h" not in obj:
        raise SerializationError('generator object needs an "h" key')
    if not isinstance(obj.get("jumps", []), list):
        raise SerializationError('generator "jumps" must be a list')
    h = complex_matrix_from_json(obj["h"])
    jumps = [complex_matrix_from_json(j) for j in obj.get("jumps", [])]
    return GkslGenerator(h, jumps)


def generator_to_json(gen: GkslGenerator) -> dict:
    return {"h": complex_matrix_to_json(gen.hamiltonian),
            "jumps": [complex_matrix_to_json(op) for op in gen.jump_ops]}


def division_scenario_from_json(obj: dict) -> dict:
    """Parse an environment-division scenario file.

    Expected keys: ``n_sys``, ``n_env``, ``p_env`` (probability vector),
    ``interaction`` (superoperator or Kraus object on the joint space),
    ``post_sys`` and ``post_env`` (superoperator or Kraus objects on the
    factors). The returned dict feeds
    :func:`stoqlift.division.environment_division_scenario` directly.
    """
    for key in ("n_sys", "n_env", "p_env", "interaction", "post_sys", "post_env"):
        if key not in obj:
            raise SerializationError(f'scenario object needs a "{key}" key')
    n_sys, n_env = obj["n_sys"], obj["n_env"]
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
               for d in (n_sys, n_env)):
        raise SerializationError("n_sys and n_env must be positive integers")
    p_env = probability_vector_from_json(obj["p_env"])
    interaction = superoperator_from_json(obj["interaction"])
    post_sys = superoperator_from_json(obj["post_sys"])
    post_env = superoperator_from_json(obj["post_env"])
    if p_env.n != n_env or interaction.n != n_sys * n_env:
        raise SerializationError(
            "scenario dimensions disagree: environment vector has "
            f"{p_env.n} entries, joint map acts on dimension {interaction.n}, "
            f"declared {n_sys} x {n_env}")
    if post_sys.n != n_sys or post_env.n != n_env:
        raise SerializationError(
            "post maps must act on the declared factor dimensions")
    return {"p_env": p_env, "record_interaction": interaction,
            "post_system": post_sys, "post_env": post_env}


def detect_kind(obj: dict) -> str:
    """Infer what a file describes: explicit "kind" wins, else structure decides."""
    kind = obj.get("kind")
    if kind is not None:
        return str(kind)
    if "ops" in obj:
        return "kraus"
    if "h" in obj:
        return "generator"
    if "rows" in obj:
        rows = obj["rows"]
        try:
            first = rows[0][0]
        except (TypeError, IndexError, KeyError):
            raise SerializationError("cannot infer file kind from structure")
        return "complex-matrix" if isinstance(first, list) else "kernel"
    raise SerializationError("cannot infer file kind from structure")

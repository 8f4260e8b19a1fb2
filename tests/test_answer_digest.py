"""``tools/answer_digest.py`` hashes the library's answers on the
benchmark's inputs: the same answers give the same digest, and one flipped
bit of a witness gives another."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from stoqlift import StochasticKernel, kernels

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"
spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
answer_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(answer_digest)

#: A slice of the divide workload that holds classical witnesses.
OPS = answer_digest.workload_ops("divide", 5)[:20]


def test_two_runs_give_the_same_digest():
    assert answer_digest.digest(OPS) == answer_digest.digest(OPS)


def test_one_flipped_witness_bit_changes_the_digest(monkeypatch):
    check = kernels.c_divisibility_check
    flipped = []

    def flip_first_witness(*args, **kwargs):
        result = check(*args, **kwargs)
        if result.witness is None or flipped:
            return result
        matrix = result.witness.matrix.copy()
        matrix.view(np.uint64)[0, 0] ^= 1  # the last bit of one entry
        flipped.append(True)
        return dataclasses.replace(result, witness=StochasticKernel._adopt(matrix))

    before = answer_digest.digest(OPS)
    monkeypatch.setattr(kernels, "c_divisibility_check", flip_first_witness)
    assert answer_digest.digest(OPS) != before
    assert flipped

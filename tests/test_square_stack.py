"""A stack of square operators enters the package as one array copy.

``_arrays.square_stack`` turns a nonempty square stack (an ``(r, N, N)``
array, or a sequence of r N x N matrices) into one complex copy,
and checks operator by operator only what is not one. The loop it replaced
is kept here as the reference: every input gives the same stack, or the
same error and message, through both.
"""

import numpy as np
import pytest

from stoqlift import (DimensionMismatchError, GkslGenerator, KrausMap, LeftRightMap,
                      PovmEffects, StochasticKernel, ValidationError, canonical_lift)
from stoqlift._arrays import square, square_stack

from conftest import outcome


def loop_square_stack(ops, name):
    """Each operator converted and checked on its own, then stacked."""
    mats = [np.asarray(op, dtype=complex) for op in ops]
    distinct = {m.shape: m for m in mats}  # first-seen order
    for m in distinct.values():
        square(m, name)
    if len(distinct) > 1:
        raise DimensionMismatchError(f"{name}s must share one dimension")
    return np.stack(mats) if mats else np.empty((0, 0, 0), dtype=complex)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


RNG = np.random.default_rng(7)
STACK = RNG.normal(size=(3, 4, 4)) + 1j * RNG.normal(size=(3, 4, 4))
#: Each input as a factory, so a generator is fresh for every call.
INPUTS = {
    "complex-stack": lambda: STACK,
    "transposed-stack": lambda: STACK.transpose(0, 2, 1),
    "fortran-stack": lambda: np.asfortranarray(STACK),
    "float-stack": lambda: STACK.real,
    "int-lists": lambda: [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    "list-of-arrays": lambda: list(STACK),
    "tuple-of-arrays": lambda: tuple(STACK),
    "generator": lambda: (op for op in STACK),
    "one-by-one": lambda: [[[2.0]]],
    "non-square-stack": lambda: np.ones((3, 2, 5)),
    "non-square-first": lambda: [np.eye(2), np.ones((2, 3)), np.ones((3, 4))],
    "mixed-dimensions": lambda: [np.eye(2), np.zeros((3, 3))],
    "mixed-dimension-generator": lambda: (np.eye(k) for k in (2, 2, 3)),
    "zero-sized-operators": lambda: np.zeros((2, 0, 0)),
    "four-dimensional": lambda: np.ones((2, 1, 3, 3)),
    "vectors": lambda: [[1.0, 2.0], [3.0, 4.0]],
    "scalars": lambda: [1.0, 2.0],
    "ragged-rows": lambda: [[[1.0, 2.0], [3.0]]],
    "not-a-number": lambda: ["abc"],
    "empty-list": lambda: [],
    "empty-tuple": lambda: (),
    "empty-stack": lambda: np.empty((0, 3, 3)),
    "empty-generator": lambda: iter(()),
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_same_stack_or_error_as_the_loop(name):
    made = INPUTS[name]
    assert (outcome(square_stack, made(), "operator", bits=_bits)
            == outcome(loop_square_stack, made(), "operator", bits=_bits))


@pytest.mark.parametrize("ops, error, message", [
    (np.ones((3, 2, 5)), DimensionMismatchError,
     "Kraus operator must be a nonempty square matrix, got shape (2, 5)"),
    ([np.eye(2), np.eye(3)], DimensionMismatchError,
     "Kraus operators must share one dimension"),
    ([], ValidationError, "Kraus map needs at least one nonzero operator"),
    (np.empty((0, 2, 2)), ValidationError, "Kraus map needs at least one nonzero operator"),
], ids=["non-square-stack", "mixed-dimensions", "empty-list", "empty-stack"])
def test_kraus_map_refusals_keep_their_messages(ops, error, message):
    with pytest.raises(error) as info:
        KrausMap(ops)
    assert str(info.value) == message


def test_stack_is_one_new_array():
    out = square_stack(STACK, "operator")
    assert not np.shares_memory(out, STACK)
    assert out.flags.writeable


@pytest.mark.parametrize("ops", [STACK.copy(), STACK.copy().transpose(0, 2, 1)],
                         ids=["stack", "transposed"])
def test_kraus_map_from_an_array_does_not_alias_it(ops):
    kmap = KrausMap(ops)
    before = np.array(kmap.operators)
    ops[...] = 0.0
    np.testing.assert_array_equal(np.array(kmap.operators), before)
    assert not np.shares_memory(kmap._stack, ops)


def test_canonical_lift_keeps_its_operators_in_entry_order():
    gamma = np.array([[0.5, 0.0, 1.0], [0.5, 0.25, 0.0], [0.0, 0.75, 0.0]])
    lift = canonical_lift(StochasticKernel(gamma))
    assert lift.rank == 5
    for op, (j, i) in zip(lift.operators, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2)]):
        expected = np.zeros((3, 3), dtype=complex)
        expected[j, i] = np.sqrt(gamma[j, i])
        np.testing.assert_array_equal(op, expected)


def test_left_right_map_accepts_lists():
    x = [[0.0, 1.0], [1.0, 0.0]]
    lr = LeftRightMap([x, np.eye(2)], [x, [[1.0, 0.0], [0.0, 1.0]]])
    assert lr.n == 2 and len(lr.left_ops) == 2
    np.testing.assert_array_equal(lr.right_ops[1], np.eye(2))


def test_gksl_generator_accepts_a_list_of_lists():
    gen = GkslGenerator(np.zeros((2, 2)), [[[0.0, 1.0], [0.0, 0.0]]])
    assert len(gen.jump_ops) == 1
    np.testing.assert_array_equal(gen.jump_ops[0], [[0.0, 1.0], [0.0, 0.0]])
    assert len(GkslGenerator(np.zeros((2, 2)), []).jump_ops) == 0


def test_povm_effects_accept_lists():
    povm = PovmEffects([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    assert len(povm.effects) == 2
    np.testing.assert_array_equal(povm.effects[1], np.diag([0.0, 1.0]))

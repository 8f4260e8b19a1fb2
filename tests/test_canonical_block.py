"""The canonical lift's superoperator, Choi asymmetry and induced kernel come
from its N x N block ``fl(sqrt(gamma))^2``, scattered, and agree bit for bit
with what the general Kraus product path forms from the same operators."""

import numpy as np
import pytest

from stoqlift import (KernelFamily, KrausMap, StochasticKernel, SuperOperatorFamily,
                      canonical_lift, check_cptp, compatibility_check,
                      dictionary_kernel, induced_kernel, to_superoperator)
from stoqlift import lifts
from stoqlift._arrays import KRAUS_DROP_NORM

from random_ops import random_stochastic


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def _sparse_kernel(rng, n, zeros, tiny):
    """A random column-stochastic kernel with exact zeros and entries just
    below and above ``KRAUS_DROP_NORM^2`` (too small to move a column sum)."""
    m = random_stochastic(rng, n).matrix.copy()
    flat = m.reshape(-1)
    picks = rng.permutation(n * n)
    flat[picks[:zeros]] = 0.0
    flat[picks[zeros:zeros + tiny]] = KRAUS_DROP_NORM ** 2 * np.resize(
        [0.999, 1.001, 0.5, 2.0, 1.0], tiny)
    m[m.argmax(axis=0), np.arange(n)] += 1.0 - m.sum(axis=0)  # columns sum to 1
    return StochasticKernel(m)


def _kernels():
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 4, 6, 8, 16):
        yield f"identity-{n}", StochasticKernel(np.eye(n))
        yield f"permutation-{n}", StochasticKernel(np.eye(n)[rng.permutation(n)])
        yield f"dense-{n}", random_stochastic(rng, n)
        # Column-major, as a Dirichlet draw transposed is: the induced kernel
        # stays C-ordered, so its column sums round as the stack's sum does.
        yield f"fortran-{n}", StochasticKernel(rng.dirichlet(np.ones(n), size=n).T)
        if n > 1:
            yield f"sparse-{n}", _sparse_kernel(rng, n, zeros=n * n // 3,
                                                tiny=min(n, n * n - n * n // 3 - n))


KERNELS = list(_kernels())


def _assert_same_superoperator(superop, ref):
    np.testing.assert_array_equal(superop.matrix.view(np.uint64),
                                  ref.matrix.view(np.uint64))
    assert _bits(superop._choi_asymmetry) == _bits(ref._choi_asymmetry)
    assert superop._kraus_rank == ref._kraus_rank


@pytest.mark.parametrize("name, kernel", KERNELS, ids=[k[0] for k in KERNELS])
def test_canonical_lift_matches_the_product_path_bit_for_bit(name, kernel):
    kmap = canonical_lift(kernel)
    ref = KrausMap(kmap.operators)  # forms everything from its stack
    assert vars(kmap).keys() >= {"_superoperator", "_induced"}
    assert not vars(ref).keys() & {"_superoperator", "_induced"}
    _assert_same_superoperator(to_superoperator(kmap), to_superoperator(ref))
    (kernel_a, checks_a), (kernel_b, checks_b) = kmap._induced, ref._induced
    np.testing.assert_array_equal(_bits(kernel_a), _bits(kernel_b))
    assert _bits(checks_a["dictionary_residual"]) == _bits(checks_b["dictionary_residual"])
    assert kernel_a.flags.c_contiguous and kernel_b.flags.c_contiguous
    assert induced_kernel(kmap).validation == induced_kernel(ref).validation
    assert _bits(kmap.completeness_residual) == _bits(ref.completeness_residual)
    assert check_cptp(kmap) == check_cptp(ref)
    assert check_cptp(kmap._superoperator) == check_cptp(ref._superoperator)

    family = SuperOperatorFamily.from_kernel_family(KernelFamily(
        [0.0, 1.0], lambda t, s: kernel if t > s else np.eye(kernel.n)))
    _assert_same_superoperator(family.superop(1.0, 0.0), to_superoperator(ref))


def test_dictionary_returns_the_rounded_square_of_each_root(rng):
    gamma = random_stochastic(rng, 6).matrix
    returned = dictionary_kernel(canonical_lift(StochasticKernel(gamma))).matrix
    root = np.sqrt(gamma)
    np.testing.assert_array_equal(_bits(returned), _bits(root * root))
    np.testing.assert_array_max_ulp(returned, gamma, maxulp=1)
    assert (returned != gamma).any()  # not the input identically


def test_entries_below_the_squared_drop_norm_come_back_as_zero():
    gamma = np.array([[1.0 - 1e-30, 0.5], [1e-30, 0.5]])
    kmap = canonical_lift(StochasticKernel(gamma))
    returned = dictionary_kernel(kmap).matrix
    assert kmap.rank == 3
    assert returned[1, 0] == 0.0 and gamma[1, 0] == 1e-30
    half = np.sqrt(0.5) ** 2  # 0.5000000000000001
    np.testing.assert_array_equal(returned, [[1.0, half], [0.0, half]])


def test_canonical_chain_forms_no_product(rng, monkeypatch):
    # N = 16: no reshuffle, no LAPACK or norm call, and no superoperator or
    # induced kernel formed from the stack, through the whole chain.
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lifts, "_reshuffle", counted("_reshuffle", lifts._reshuffle))
    for name in np.linalg.__all__:
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type):
            monkeypatch.setattr(np.linalg, name, counted(name, f))
    for name in ("_superoperator", "_induced"):
        prop = KrausMap.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))

    kernel = random_stochastic(rng, 16)
    kmap = canonical_lift(kernel)
    s = to_superoperator(kmap)
    assert check_cptp(kmap).passed and check_cptp(s).passed
    assert compatibility_check(kmap, kernel).passed
    induced_kernel(kmap)
    dictionary_kernel(kmap)
    assert calls == []

"""No intake check passes on NaN or infinity: each constructor raises or
reports not-passed, and the checks that read files reject the value."""

import numpy as np
import pytest

from stoqlift import (ChoiMatrix, DensityOperator, GkslGenerator,
                      KernelFamily, KrausMap, LeftRightMap, PovmEffects,
                      ProbabilityVector, RateMatrix, StochasticKernel,
                      SuperOperator, SuperOperatorFamily, ValidationError,
                      check_cptp, to_superoperator, validate_kernel)

# numpy warns on inf - inf (an asymmetry or a grid step); that warning is
# the only one these cases may raise.
IGNORE_INF_MINUS_INF = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")
NON_FINITE = [pytest.param(np.nan, id="nan"),
              pytest.param(np.inf, id="inf", marks=IGNORE_INF_MINUS_INF),
              pytest.param(-np.inf, id="-inf", marks=IGNORE_INF_MINUS_INF)]
ENTRIES = [(0, 0), (0, 1)]


def poke(matrix, entry, value):
    m = np.array(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    m[entry] = value
    return m


def cptp_passed(map_) -> bool:
    return check_cptp(map_).passed


# Each case builds its object with one entry replaced by a non-finite value
# and returns the verdict it reports; raising ValidationError counts as
# not passed.
CASES = {
    "DensityOperator": lambda e, v: DensityOperator(poke(np.eye(2) / 2, e, v)) and True,
    "ChoiMatrix": lambda e, v: ChoiMatrix(poke(np.eye(4), e, v)).is_completely_positive(),
    "GkslGenerator.hamiltonian": lambda e, v: GkslGenerator(poke(np.eye(2), e, v)) and True,
    "GkslGenerator.jump": lambda e, v: GkslGenerator(
        np.eye(2), [poke(np.zeros((2, 2)), e, v)]) and True,
    "RateMatrix": lambda e, v: RateMatrix(
        poke([[-1.0, 1.0], [1.0, -1.0]], e, v)) and True,
    "ProbabilityVector": lambda e, v: ProbabilityVector(
        poke([0.5, 0.5], e[1], v)) and True,
    "StochasticKernel": lambda e, v: StochasticKernel(poke(np.eye(2), e, v)) and True,
    "validate_kernel": lambda e, v: validate_kernel(poke(np.eye(2), e, v)).passed,
    "KrausMap": lambda e, v: KrausMap(
        [np.eye(2), poke(np.zeros((2, 2)), e, v)]).trace_preserving,
    "check_cptp(KrausMap)": lambda e, v: cptp_passed(
        KrausMap([poke(np.eye(2), e, v)])),
    "check_cptp(SuperOperator)": lambda e, v: cptp_passed(
        SuperOperator(poke(np.eye(4), e, v))),
    "check_cptp(LeftRightMap)": lambda e, v: cptp_passed(to_superoperator(
        LeftRightMap([poke(np.eye(2), e, v)], [np.eye(2)]))),
    "PovmEffects": lambda e, v: PovmEffects(
        [poke(np.eye(2) / 2, e, v), np.eye(2) / 2]) and True,
    "SuperOperatorFamily.from_hamiltonian": lambda e, v:
        SuperOperatorFamily.from_hamiltonian(poke(np.eye(2), e, v), [0.0, 1.0]) and True,
    "KernelFamily.grid": lambda e, v: KernelFamily(
        poke([0.0, 1.0], e[1], v), lambda t, s: np.eye(2)) and True,
    "SuperOperatorFamily.grid": lambda e, v: SuperOperatorFamily(
        poke([0.0, 1.0], e[1], v), lambda t, s: np.eye(4)) and True,
}


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_non_finite_entry_never_passes(name, entry, value):
    try:
        passed = CASES[name](entry, value)
    except ValidationError:
        passed = False
    assert passed is False


@pytest.mark.parametrize("value", NON_FINITE)
def test_lone_non_finite_grid_time_is_rejected(value):
    with pytest.raises(ValidationError, match="finite and strictly increasing"):
        KernelFamily([value], lambda t, s: np.eye(2))


def test_nan_kraus_operator_is_kept_not_dropped():
    kmap = KrausMap([np.eye(2), np.full((2, 2), np.nan)])
    assert kmap.rank == 2
    assert np.isnan(kmap.completeness_residual)
    assert not kmap.trace_preserving

import numpy as np
import pytest

from stoqlift import GkslGenerator, ProbabilityVector, StochasticKernel
from stoqlift.serialization import (SerializationError,
                                    complex_matrix_from_json,
                                    complex_matrix_to_json, detect_kind,
                                    dump_json, generator_from_json,
                                    generator_to_json,
                                    kernel_from_json, kernel_to_json,
                                    kraus_from_json, kraus_to_json, load_json,
                                    probability_vector_from_json,
                                    probability_vector_to_json,
                                    real_matrix_to_json,
                                    superoperator_from_json,
                                    superoperator_to_json)
from stoqlift.lifts import KrausMap, to_superoperator

from random_ops import (random_kraus_map, random_probability_vector,
                        random_stochastic)


def test_kernel_roundtrip(rng):
    kernel = random_stochastic(rng, 3)
    obj = kernel_to_json(kernel)
    back = kernel_from_json(obj)
    np.testing.assert_array_equal(back.matrix, kernel.matrix)


def test_kernel_with_times_roundtrip():
    kernel = StochasticKernel(np.eye(2), from_time=0.5, to_time=1.5)
    obj = kernel_to_json(kernel)
    assert obj["from_t"] == 0.5 and obj["to_t"] == 1.5
    back = kernel_from_json(obj)
    assert back.from_time == 0.5 and back.to_time == 1.5


def test_complex_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = complex_matrix_from_json(complex_matrix_to_json(m))
    np.testing.assert_array_equal(back, m)


def test_probability_vector_roundtrip():
    p = ProbabilityVector([0.2, 0.3, 0.5])
    obj = probability_vector_to_json(p)
    assert obj["rows"] == [[0.2], [0.3], [0.5]]
    np.testing.assert_array_equal(probability_vector_from_json(obj).entries,
                                  p.entries)


def test_kraus_roundtrip(rng):
    kmap = random_kraus_map(rng, 2, 3)
    back = kraus_from_json(kraus_to_json(kmap))
    assert back.rank == kmap.rank
    for a, b in zip(back.operators, kmap.operators):
        np.testing.assert_array_equal(a, b)


def test_superoperator_roundtrip_and_kraus_acceptance(rng):
    kmap = random_kraus_map(rng, 2, 2)
    s = to_superoperator(kmap)
    np.testing.assert_array_equal(
        superoperator_from_json(superoperator_to_json(s)).matrix, s.matrix)
    # A Kraus object is accepted wherever a superoperator is expected.
    np.testing.assert_allclose(
        superoperator_from_json(kraus_to_json(kmap)).matrix, s.matrix,
        atol=1e-15)


def test_generator_roundtrip():
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GkslGenerator(np.diag([1.0, -1.0]), [jump])
    back = generator_from_json(generator_to_json(gen))
    np.testing.assert_array_equal(back.hamiltonian, gen.hamiltonian)
    np.testing.assert_array_equal(back.jump_ops[0], gen.jump_ops[0])


def test_detect_kind():
    assert detect_kind({"ops": []}) == "kraus"
    assert detect_kind({"h": {}}) == "generator"
    assert detect_kind({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}) == "kernel"
    assert detect_kind({"n": 1, "rows": [[[1.0, 0.0]]]}) == "complex-matrix"
    assert detect_kind({"kind": "density", "n": 1, "rows": []}) == "density"
    with pytest.raises(SerializationError):
        detect_kind({"something": 1})


@pytest.mark.parametrize("bad", [
    {"rows": [[1.0]]},                          # missing n
    {"n": 2, "rows": [[1.0, 0.0]]},             # row count mismatch
    {"n": 2, "rows": [[1.0, "x"], [0.0, 1.0]]},  # non-numeric
    {"n": 0, "rows": []},                       # degenerate size
    5,                                          # not an object
])
def test_malformed_real_matrix(bad):
    with pytest.raises(SerializationError):
        kernel_from_json(bad)


def test_malformed_complex_matrix():
    with pytest.raises(SerializationError):
        complex_matrix_from_json({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]})


def test_division_scenario_roundtrip():
    from stoqlift import environment_division_scenario
    from stoqlift.serialization import division_scenario_from_json

    flip_control = np.zeros((4, 4))
    flip_control[0, 0] = flip_control[1, 1] = 1.0
    flip_control[2, 3] = flip_control[3, 2] = 1.0
    eye2 = complex_matrix_to_json(np.eye(4, dtype=complex))
    obj = {
        "n_sys": 2,
        "n_env": 2,
        "p_env": {"n": 2, "rows": [[1.0], [0.0]]},
        "interaction": complex_matrix_to_json(
            np.kron(flip_control.conj(), flip_control)),
        "post_sys": {"ops": [complex_matrix_to_json(np.eye(2))]},
        "post_env": {"ops": [complex_matrix_to_json(np.eye(2))]},
    }
    parsed = division_scenario_from_json(obj)
    report = environment_division_scenario(**parsed)
    assert report.record_form and report.c_divisible

    bad = dict(obj, n_env=3)
    with pytest.raises(SerializationError):
        division_scenario_from_json(bad)
    missing = {k: v for k, v in obj.items() if k != "interaction"}
    with pytest.raises(SerializationError):
        division_scenario_from_json(missing)


def test_load_json_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SerializationError):
        load_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(SerializationError):
        load_json(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(SerializationError):
        load_json(array)


@pytest.mark.parametrize("key", ["n_sys", "n_env"])
def test_division_scenario_rejects_boolean_dimensions(key):
    from stoqlift.serialization import division_scenario_from_json

    identity = {"ops": [complex_matrix_to_json(np.eye(1))]}
    obj = {"n_sys": 1, "n_env": 1, "p_env": {"n": 1, "rows": [[1.0]]},
           "interaction": identity, "post_sys": identity, "post_env": identity}
    division_scenario_from_json(obj)
    with pytest.raises(SerializationError, match="positive integers"):
        division_scenario_from_json(dict(obj, **{key: True}))


@pytest.mark.parametrize("reader, rows", [
    (kernel_from_json, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    (complex_matrix_from_json, [[[1.0, 0.0]], [[0.0, 0.0]]]),
])
def test_non_square_matrix_is_a_serialization_error(reader, rows):
    with pytest.raises(SerializationError):
        reader({"n": 2, "rows": rows})


@pytest.mark.parametrize("reader, rows", [
    (kernel_from_json, [[1.0, 0.0], [0.0, float("nan")]]),
    (kernel_from_json, [[1.0, 0.0], [0.0, float("inf")]]),
    (complex_matrix_from_json, [[[1.0, float("-inf")]]]),
    (probability_vector_from_json, [[float("nan")]]),
])
def test_non_finite_rows_are_a_serialization_error(reader, rows):
    with pytest.raises(SerializationError, match="non-finite"):
        reader({"n": len(rows), "rows": rows})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_non_json_constants(tmp_path, token):
    path = tmp_path / "constant.json"
    path.write_text(f'{{"n": 1, "rows": [[{token}]]}}', encoding="utf-8")
    with pytest.raises(SerializationError, match=f"{token} is not a JSON number"):
        load_json(path)


@pytest.mark.parametrize("field", ["p_env", "interaction", "post_sys"])
@pytest.mark.parametrize("value", [5, "rows", [1.0], None])
def test_division_scenario_rejects_a_non_object_matrix(field, value):
    from stoqlift.serialization import division_scenario_from_json

    identity = {"ops": [complex_matrix_to_json(np.eye(1))]}
    obj = {"n_sys": 1, "n_env": 1, "p_env": {"n": 1, "rows": [[1.0]]},
           "interaction": identity, "post_sys": identity, "post_env": identity}
    with pytest.raises(SerializationError, match="matrix object"):
        division_scenario_from_json(dict(obj, **{field: value}))


@pytest.mark.parametrize("key", ["from_t", "to_t"])
@pytest.mark.parametrize("stamp", ["noon", float("inf"), float("nan"), True,
                                   None, [1.0], 10 ** 400])
def test_time_stamp_must_be_a_finite_number(key, stamp):
    with pytest.raises(SerializationError, match=key):
        kernel_from_json({"n": 1, "rows": [[1.0]], key: stamp})


def test_integer_time_stamps_are_kept():
    kernel = kernel_from_json({"n": 1, "rows": [[1.0]], "from_t": 0, "to_t": 2})
    assert (kernel.from_time, kernel.to_time) == (0, 2)


def _through_a_file(tmp_path, obj):
    """``load_json`` of what ``dump_json`` wrote, which must equal ``obj``."""
    path = tmp_path / "written.json"
    dump_json(obj, path)
    back = load_json(path)
    assert back == obj
    return back


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_matrix_writers_match_the_per_entry_reference(rng):
    # Per-entry loops are the reference for the writers' tolist rows; repr
    # tells -0.0 from 0.0 and a Python float from a numpy one.
    m = _complex(rng, 3)
    m[0] = [complex(-0.0, 5e-324), complex(1e308, -0.0), complex(-2.5e-308, 0.0)]
    real = [[float(x) for x in row] for row in m.real]
    pairs = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    assert repr(real_matrix_to_json(m.real)["rows"]) == repr(real)
    assert repr(complex_matrix_to_json(m)["rows"]) == repr(pairs)
    column = probability_vector_to_json(ProbabilityVector([0.25, 5e-324, 0.75]))
    assert repr(column) == repr({"n": 3, "rows": [[0.25], [5e-324], [0.75]]})


def test_kernel_with_times_roundtrips_through_a_file(tmp_path, rng):
    kernel = StochasticKernel(random_stochastic(rng, 3).matrix,
                              from_time=0.1, to_time=2.0 / 3.0)
    back = kernel_from_json(_through_a_file(tmp_path, kernel_to_json(kernel)))
    _same_bits(back.matrix, kernel.matrix)
    assert (back.from_time, back.to_time) == (0.1, 2.0 / 3.0)


def test_probability_vector_roundtrips_through_a_file(tmp_path, rng):
    p = random_probability_vector(rng, 4)
    obj = _through_a_file(tmp_path, probability_vector_to_json(p))
    _same_bits(probability_vector_from_json(obj).entries, p.entries)


def test_complex_matrix_roundtrips_through_a_file(tmp_path, rng):
    m = _complex(rng, 3) * np.array([1.0, 1e-300, 1e300])
    obj = _through_a_file(tmp_path, complex_matrix_to_json(m))
    _same_bits(complex_matrix_from_json(obj), m)


def test_superoperator_roundtrips_through_a_file(tmp_path, rng):
    s = to_superoperator(random_kraus_map(rng, 2, 3))
    obj = _through_a_file(tmp_path, superoperator_to_json(s))
    _same_bits(superoperator_from_json(obj).matrix, s.matrix)


def test_kraus_map_roundtrips_through_a_file(tmp_path, rng):
    kmap = random_kraus_map(rng, 3, 2)
    back = kraus_from_json(_through_a_file(tmp_path, kraus_to_json(kmap)))
    _same_bits(back.operators, kmap.operators)


def test_generator_roundtrips_through_a_file(tmp_path, rng):
    a = _complex(rng, 3)
    gen = GkslGenerator((a + a.conj().T) / 2, [_complex(rng, 3), _complex(rng, 3)])
    back = generator_from_json(_through_a_file(tmp_path, generator_to_json(gen)))
    _same_bits(back.hamiltonian, gen.hamiltonian)
    _same_bits(back.jump_ops, gen.jump_ops)


def test_numpy_values_are_written_as_the_matrix_writers_write_them(tmp_path, rng):
    m = _complex(rng, 2)
    path = tmp_path / "numpy.json"
    dump_json({"n": 2, "rows": m}, path)
    assert load_json(path) == complex_matrix_to_json(m)
    dump_json({"n": np.int64(2), "rows": m.real}, path)
    assert load_json(path) == real_matrix_to_json(m.real)


@pytest.mark.parametrize("obj", [
    pytest.param({"n": 1, "rows": [[float("nan")]]}, id="plain-nan"),
    pytest.param(real_matrix_to_json(np.diag([1.0, np.inf])), id="real-inf"),
    pytest.param(real_matrix_to_json(np.eye(1), from_time=-np.inf), id="time-stamp"),
    pytest.param(complex_matrix_to_json(np.array([[1.0 - 1j * np.inf]])),
                 id="complex-inf"),
    pytest.param(kraus_to_json(KrausMap([np.eye(2), np.full((2, 2), np.nan)])),
                 id="kraus-nan"),
    pytest.param({"n": 1, "rows": np.array([[np.nan]])}, id="array-nan"),
    pytest.param({"value": np.float32(np.inf)}, id="scalar-inf"),
])
def test_non_finite_number_is_not_written(tmp_path, obj):
    path = tmp_path / "refused.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json(obj, path)
    assert not path.exists()


def test_complex_matrix_keeps_the_sign_of_each_zero(tmp_path):
    zeros = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                      [complex(-0.0, -0.0), complex(0.0, 0.0)]])
    obj = complex_matrix_to_json(zeros)
    back = complex_matrix_from_json(_through_a_file(tmp_path, obj))
    assert np.signbit(back.real).tolist() == [[True, False], [True, False]]
    assert np.signbit(back.imag).tolist() == [[False, True], [True, False]]
    _same_bits(back, zeros)
    first = (tmp_path / "written.json").read_bytes()
    dump_json(complex_matrix_to_json(back), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == first

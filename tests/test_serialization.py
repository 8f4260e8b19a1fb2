import numpy as np
import pytest

from stoqlift import GkslGenerator, ProbabilityVector, StochasticKernel
from stoqlift.random_ops import random_kraus_map, random_stochastic
from stoqlift.serialization import (SerializationError,
                                    complex_matrix_from_json,
                                    complex_matrix_to_json, detect_kind,
                                    generator_from_json, generator_to_json,
                                    kernel_from_json, kernel_to_json,
                                    kraus_from_json, kraus_to_json, load_json,
                                    probability_vector_from_json,
                                    probability_vector_to_json,
                                    superoperator_from_json,
                                    superoperator_to_json)
from stoqlift.lifts import to_superoperator


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

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stoqlift
from stoqlift import cli
from stoqlift.cli import main
from stoqlift.serialization import (complex_matrix_to_json, dump_json,
                                    kernel_to_json, kraus_from_json)
from stoqlift import StochasticKernel

from conftest import HADAMARD, PAULI_X

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
FLIP = [[0.0, 1.0], [1.0, 0.0]]
MIX = [[0.5, 0.5], [0.5, 0.5]]


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, rows in (("flip", FLIP), ("mix", MIX), ("eye", [[1.0, 0.0], [0.0, 1.0]])):
        paths[name] = tmp_path / f"{name}.json"
        dump_json({"n": 2, "rows": rows}, paths[name])
    paths["bad"] = tmp_path / "bad.json"
    dump_json({"n": 2, "rows": [[1.2, 0.0], [-0.2, 1.0]]}, paths["bad"])
    paths["hadamard"] = tmp_path / "hadamard.json"
    dump_json(complex_matrix_to_json(HADAMARD.astype(complex)), paths["hadamard"])
    paths["broken"] = tmp_path / "broken.json"
    paths["broken"].write_text("{ nope", encoding="utf-8")
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestValidate:
    def test_valid_kernel_exits_zero(self, capsys, files):
        code, report, _ = run(capsys, "validate", files["eye"])
        assert code == 0
        assert report["verdicts"]["passed"] is True
        assert report["tool_version"]

    def test_invalid_kernel_exits_one_with_residual(self, capsys, files):
        code, report, _ = run(capsys, "validate", files["bad"])
        assert code == 1
        assert report["verdicts"]["max_negative_entry"] == pytest.approx(0.2)

    def test_malformed_file_exits_two(self, capsys, files):
        code, _, err = run(capsys, "validate", files["broken"])
        assert code == 2
        assert "error" in err

    def test_kraus_file_validates_as_cptp(self, capsys, files, tmp_path):
        path = tmp_path / "kraus.json"
        dump_json({"ops": [complex_matrix_to_json(np.eye(2))]}, path)
        code, report, _ = run(capsys, "validate", path)
        assert code == 0
        assert report["verdicts"]["trace_preserving"] is True

    def test_density_file(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        dump_json(complex_matrix_to_json(np.diag([0.5, 0.5])), path)
        code, report, _ = run(capsys, "validate", path)
        assert code == 0 and report["kind"] == "density"

    def test_explicit_density_kind_overrides_square_side(self, capsys, tmp_path):
        # A 4 x 4 complex matrix would read as a qubit superoperator; the
        # explicit kind forces the state interpretation.
        path = tmp_path / "rho4.json"
        obj = complex_matrix_to_json(np.eye(4) / 4)
        obj["kind"] = "density"
        dump_json(obj, path)
        code, report, _ = run(capsys, "validate", path)
        assert code == 0 and report["kind"] == "density"

    def test_unphysical_density_exits_one(self, capsys, tmp_path):
        path = tmp_path / "badrho.json"
        dump_json(complex_matrix_to_json(np.diag([1.5, -0.5])), path)
        code, report, _ = run(capsys, "validate", path)
        assert code == 1
        assert report["verdicts"]["passed"] is False


class TestLift:
    def test_canonical_lift_writes_kraus_file(self, capsys, files, tmp_path):
        out = tmp_path / "kraus_out.json"
        code, report, _ = run(capsys, "--out", out, "lift", files["flip"])
        assert code == 0
        assert report["verdicts"]["compatibility_passed"] is True
        kmap = kraus_from_json(json.loads(out.read_text()))
        assert kmap.rank == 2
        assert kmap.trace_preserving

    def test_barandes_lift_of_hadamard(self, capsys, files):
        code, report, _ = run(capsys, "lift", files["mix"],
                              "--method", "barandes",
                              "--theta", files["hadamard"])
        assert code == 0
        assert report["verdicts"]["kraus_rank"] == 2
        np.testing.assert_allclose(report["tables"]["induced_kernel"], MIX,
                                   atol=1e-12)

    def test_theta_lift_against_matching_kernel(self, capsys, files):
        code, report, _ = run(capsys, "lift", files["mix"],
                              "--method", "theta",
                              "--theta", files["hadamard"])
        assert code == 0
        assert report["verdicts"]["trace_preserving"] is True

    def test_incompatible_theta_kernel_pair_fails(self, capsys, files):
        # Hadamard moduli give the mix, not the flip.
        code, report, _ = run(capsys, "lift", files["flip"],
                              "--method", "barandes",
                              "--theta", files["hadamard"])
        assert code == 1
        assert report["verdicts"]["compatibility_passed"] is False

    def test_nonstochastic_theta_exits_one(self, capsys, files, tmp_path):
        theta = tmp_path / "theta.json"
        dump_json(complex_matrix_to_json(2.0 * np.eye(2)), theta)
        code, _, err = run(capsys, "lift", files["eye"],
                           "--method", "barandes", "--theta", theta)
        assert code == 1
        assert "stochastic" in err

    def test_missing_theta_is_usage_error(self, capsys, files):
        code, _, _ = run(capsys, "lift", files["eye"], "--method", "theta")
        assert code == 2


class TestDivisibility:
    def test_classical_indivisible_pair(self, capsys, files):
        code, report, _ = run(capsys, "divisibility", "--mode", "classical",
                              files["flip"], files["mix"])
        assert code == 0
        assert report["verdicts"]["divisible"] is False
        assert report["verdicts"]["violated_constraints"]

    def test_classical_divisible_pair(self, capsys, files):
        code, report, _ = run(capsys, "divisibility", "--mode", "classical",
                              files["mix"], files["flip"])
        assert code == 0
        assert report["verdicts"]["divisible"] is True
        np.testing.assert_allclose(report["tables"]["witness"], MIX, atol=1e-9)

    def test_quantum_rank_obstruction(self, capsys, files, tmp_path):
        dephasing = tmp_path / "dephasing.json"
        proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        dump_json({"ops": [complex_matrix_to_json(p) for p in proj]}, dephasing)
        hada_kraus = tmp_path / "hconj.json"
        dump_json({"ops": [complex_matrix_to_json(HADAMARD)]}, hada_kraus)
        code, report, _ = run(capsys, "divisibility", "--mode", "quantum",
                              hada_kraus, dephasing)
        assert code == 0
        assert report["verdicts"]["verdict"] == "indivisible"

    def test_theorem1_on_identity_pair(self, capsys, files, tmp_path):
        ident = tmp_path / "ident.json"
        dump_json({"ops": [complex_matrix_to_json(np.eye(2))]}, ident)
        code, report, _ = run(capsys, "divisibility", "--mode", "theorem1",
                              ident, ident)
        assert code == 0
        assert report["verdicts"]["theorem_applies"] is True

    def test_dimension_mismatch_exits_one(self, capsys, files, tmp_path):
        big = tmp_path / "eye3.json"
        dump_json(kernel_to_json(StochasticKernel.identity(3)), big)
        code, _, _ = run(capsys, "divisibility", "--mode", "classical",
                         files["flip"], big)
        assert code == 1


class TestDemos:
    def test_scaling_table_has_quarter_ratios(self, capsys):
        code, report, _ = run(capsys, "demo", "scaling")
        assert code == 0
        rows = report["tables"]["scaling"]
        for row in rows[1:]:
            assert row["error_ratio"] == pytest.approx(4.0, abs=1.5)

    def test_scaling_with_zero_errors_reports_null_ratios(self, capsys, tmp_path):
        path = tmp_path / "zero_rate.json"
        dump_json({"n": 2, "rows": [[0.0, 0.0], [0.0, 0.0]]}, path)
        code, report, _ = run(capsys, "demo", "scaling", "--rate", path)
        assert code == 1
        assert report["verdicts"]["errors_decreasing"] is False
        rows = report["tables"]["scaling"]
        assert [row["sup_error"] for row in rows] == [0.0] * 3
        assert [row["error_ratio"] for row in rows] == [None] * 3

    def test_phase_memory_defaults(self, capsys):
        code, report, _ = run(capsys, "demo", "phase-memory")
        assert code == 0
        np.testing.assert_allclose(report["tables"]["two_step_kernel_x"],
                                   np.eye(2), atol=1e-12)
        np.testing.assert_allclose(report["tables"]["two_step_kernel_y"],
                                   MIX, atol=1e-12)

    def test_theta_triviality_bound_decreases_tenfold(self, capsys):
        code, report, _ = run(capsys, "demo", "theta-triviality")
        assert code == 0
        rows = report["tables"]["triviality"]
        for a, b in zip(rows, rows[1:]):
            assert a["bound"] / b["bound"] == pytest.approx(10.0, abs=1.0)

    def test_ctmc_embedding_square_closes(self, capsys):
        code, report, _ = run(capsys, "demo", "ctmc-embedding")
        assert code == 0
        assert report["verdicts"]["square_closes"] is True

    def test_ck_checklist_unitary_passes(self, capsys):
        code, report, _ = run(capsys, "demo", "ck-checklist")
        assert code == 0
        assert report["verdicts"]["passed"] is True

    def test_ck_checklist_pairwise_fails(self, capsys):
        code, report, _ = run(capsys, "demo", "ck-checklist",
                              "--kind", "pairwise-lift")
        assert code == 1
        assert report["verdicts"]["max_composition_residual"] >= 1e-2
        assert report["verdicts"]["min_choi_eigenvalue"] >= 0.0

    def test_ck_checklist_two_time_grid_exits_one(self, capsys):
        code, report, err = run(capsys, "demo", "ck-checklist", "--grid", "0", "1")
        assert (code, report) == (1, None)
        assert "at least 3 times" in err

    def test_unknown_demo_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "nonsense"])
        assert exc.value.code == 2


class TestReportContract:
    def test_reports_are_byte_identical_across_runs(self, capsys, files):
        code1, _, _ = run(capsys, "validate", files["flip"])
        out1 = None
        code1 = main(["validate", str(files["flip"])])
        out1 = capsys.readouterr().out
        code2 = main(["validate", str(files["flip"])])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_and_digest_recorded(self, capsys, files):
        code, report, _ = run(capsys, "--seed", 7, "validate", files["flip"])
        assert report["seed"] == 7
        assert len(report["inputs"]["file"]) == 64

    def test_out_flag_writes_report(self, capsys, files, tmp_path):
        out = tmp_path / "report.json"
        code, report, _ = run(capsys, "--out", out, "validate", files["flip"])
        assert json.loads(out.read_text()) == report

    def test_tol_override_loosens_validation(self, capsys, tmp_path):
        path = tmp_path / "near.json"
        dump_json({"n": 2, "rows": [[1.0, 0.0], [0.001, 1.0]]}, path)
        strict, _, _ = run(capsys, "validate", path)
        loose, _, _ = run(capsys, "--tol", 0.01, "validate", path)
        assert strict == 1 and loose == 0

    def test_zero_tol_is_applied(self, capsys, tmp_path):
        path = tmp_path / "near.json"
        dump_json({"n": 2, "rows": [[0.5, 0.0], [0.5 + 5e-14, 1.0]]}, path)
        default, _, _ = run(capsys, "validate", path)
        zero, report, _ = run(capsys, "--tol", 0, "validate", path)
        assert default == 0 and zero == 1
        assert report["verdicts"]["max_column_sum_error"] > 0

    def test_negative_tol_is_usage_error(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", "-1", "validate", str(files["flip"])])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_tol_override_reaches_divisibility_check(self, capsys, files, monkeypatch):
        passed_tolerances = []
        check = cli.c_divisibility_check

        def recording_check(*args):
            passed_tolerances.append(args[2:])
            return check(*args)

        monkeypatch.setattr(cli, "c_divisibility_check", recording_check)
        argv = ("divisibility", "--mode", "classical", files["mix"], files["flip"])
        run(capsys, *argv)
        run(capsys, "--tol", 1e-6, *argv)
        assert passed_tolerances == [(), (1e-6,)]

    @pytest.mark.parametrize("mode, target", [
        ("quantum", "q_divisibility_check"), ("theorem1", "theorem1_check"),
    ], ids=["quantum", "theorem1"])
    def test_tol_override_reaches_each_divisibility_mode(self, capsys, monkeypatch,
                                                         mode, target):
        passed = []
        check = getattr(cli, target)

        def recording_check(*args, **kwargs):
            passed.append((args[2:], kwargs))
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, target, recording_check)
        argv = ("divisibility", "--mode", mode,
                DATA / "hadamard_conjugation.json", DATA / "identity_channel.json")
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "--tol", 1e-6, *argv)[0] == 0
        assert passed == [((), {}), ((1e-6,), {})]

    @pytest.mark.parametrize("argv", [
        ["divisibility", "--mode", "classical", DATA / "mix_kernel.json",
         DATA / "flip_kernel.json"],
        ["demo", "scaling"],
    ], ids=["divisibility", "demo"])
    def test_out_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(["--out", str(out), *map(str, argv)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("option, demo, obj", [
        ("hamiltonian", "theta-triviality", complex_matrix_to_json(PAULI_X)),
        ("p0", "ctmc-embedding", {"n": 2, "rows": [[1.0], [0.0]]}),
        ("scenario", "phase-memory", {
            "u_x": complex_matrix_to_json(HADAMARD),
            "u_y": complex_matrix_to_json(np.diag([1.0, 1j]) @ HADAMARD),
            "v": complex_matrix_to_json(HADAMARD)}),
    ], ids=["hamiltonian", "p0", "scenario"])
    def test_demo_input_files_are_digested(self, capsys, tmp_path, option,
                                           demo, obj):
        path = tmp_path / f"{option}.json"
        dump_json(obj, path)
        code, report, _ = run(capsys, "demo", demo, f"--{option}", path)
        assert code == 0
        assert report["inputs"] == {
            option: hashlib.sha256(path.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("target, argv, keywords", [
        ("validate_kernel", ["validate", "flip"], ["tol_entry", "tol_colsum"]),
        ("DensityOperator", ["validate", "rho"], ["tol_herm", "tol_psd"]),
        ("check_cptp", ["validate", "kraus"], ["tol_tp", "tol_psd"]),
        ("compatibility_check", ["lift", "flip"], ["tol"]),
        ("ck_checklist", ["demo", "ck-checklist"], ["tolerance"]),
    ], ids=["kernel", "density", "map", "lift", "ck-checklist"])
    def test_tol_override_reaches_each_check(self, capsys, files, tmp_path,
                                             monkeypatch, target, argv, keywords):
        paths = dict(files, rho=tmp_path / "rho.json", kraus=tmp_path / "kraus.json")
        dump_json(complex_matrix_to_json(np.diag([0.5, 0.5])), paths["rho"])
        dump_json({"ops": [complex_matrix_to_json(np.eye(2))]}, paths["kraus"])
        calls = []
        check = getattr(cli, target)

        def recording_check(*args, **kwargs):
            calls.append((len(args), kwargs))
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, target, recording_check)
        argv = [paths.get(a, a) for a in argv]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "--tol", 1e-6, *argv)[0] == 0
        positional = 2 if target == "compatibility_check" else 1
        assert calls == [(positional, {}),
                         (positional, dict.fromkeys(keywords, 1e-6))]


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 19 MB of RSS and 0.3 s in every CLI process.
    src = str(Path(stoqlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stoqlift, stoqlift.cli; "
         "print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_linalg_unloaded():
    # No module imports scipy.linalg: the exponential is _arrays.expm, in
    # numpy. Importing scipy.linalg would add 150-250 ms to each start.
    src = str(Path(stoqlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stoqlift, stoqlift.cli; "
         "print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


NON_SQUARE = {"n": 2, "rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
NON_SQUARE_COMPLEX = {"n": 2, "rows": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}


class TestMalformedShapes:
    @pytest.mark.parametrize("command", [["validate"], ["lift", "--method", "canonical"]])
    def test_non_square_kernel_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "non_square.json"
        dump_json(NON_SQUARE, path)
        code, report, err = run(capsys, *command, path)
        assert code == 2
        assert report is None
        assert "2 x 2" in err

    def test_non_square_complex_matrix_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "non_square_complex.json"
        dump_json(NON_SQUARE_COMPLEX, path)
        code, _, _ = run(capsys, "validate", path)
        assert code == 2

    @pytest.mark.parametrize("obj", [{"n": True, "rows": [[1.0]]},
                                     {"n": True, "rows": [[[1.0, 0.0]]]}])
    def test_boolean_dimension_is_usage_error(self, capsys, tmp_path, obj):
        path = tmp_path / "bool_n.json"
        dump_json(obj, path)
        code, report, err = run(capsys, "validate", path)
        assert code == 2
        assert report is None
        assert '"n" must be a positive integer' in err


class TestNonObjectMatrices:
    """A number where a matrix object belongs is a usage error, not a crash."""

    HERMITIAN = {"n": 1, "rows": [[[1.0, 0.0]]]}
    CASES = {
        "kraus-op": (["validate"], {"ops": [1]}),
        "gksl-h": (["demo", "ck-checklist", "--kind", "gksl", "--family"],
                   {"h": 3}),
        "gksl-jumps": (["demo", "ck-checklist", "--kind", "gksl", "--family"],
                       {"h": HERMITIAN, "jumps": 5}),
        "pairwise-rate": (["demo", "ck-checklist", "--kind", "pairwise-lift",
                           "--family"], {"r": 5}),
        "phase-memory": (["demo", "phase-memory", "--scenario"],
                         {"u_x": 1, "u_y": HERMITIAN, "v": HERMITIAN}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_two(self, capsys, tmp_path, name):
        command, obj = self.CASES[name]
        path = tmp_path / f"{name}.json"
        dump_json(obj, path)
        code, report, err = run(capsys, *command, path)
        assert (code, report) == (2, None)
        assert "error" in err


class TestNonFiniteFiles:
    """A file holding NaN or infinity cannot be parsed (exit 2), and a report
    that would hold one is an error (exit 1) rather than non-JSON output."""

    NON_FINITE_FILES = {
        "density": '{"kind": "density", "n": 2, "rows": '
                   '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NaN, 0.0]]]}',
        "kraus": '{"ops": [{"n": 2, "rows": [[[NaN, 0.0], [0.0, 0.0]], '
                 '[[0.0, 0.0], [1.0, 0.0]]]}]}',
        "kernel": '{"n": 2, "rows": [[1.0, 0.0], [0.0, NaN]]}',
        "kernel-infinity": '{"n": 2, "rows": [[1.0, 0.0], [0.0, Infinity]]}',
        "kernel-overflow": '{"n": 2, "rows": [[1.0, 0.0], [0.0, 1e400]]}',
        "time-stamp": '{"n": 1, "rows": [[1.0]], "from_t": NaN}',
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE_FILES))
    def test_validate_exits_two(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(self.NON_FINITE_FILES[name], encoding="utf-8")
        code, report, err = run(capsys, "validate", path)
        assert code == 2
        assert report is None
        assert "error" in err

    def test_lift_of_overflowing_kernel_exits_two(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(self.NON_FINITE_FILES["kernel-overflow"], encoding="utf-8")
        code, report, _ = run(capsys, "lift", path)
        assert (code, report) == (2, None)

    def test_non_finite_report_value_is_an_error(self, capsys, files, monkeypatch):
        nan_report = cli.validate_kernel(np.full((2, 2), np.nan))
        monkeypatch.setattr(cli, "validate_kernel", lambda *a, **k: nan_report)
        code, report, err = run(capsys, "validate", files["eye"])
        assert code == 1
        assert report is None
        assert "not JSON compliant" in err


class TestTimeStamps:
    """A kernel time stamp is a finite JSON number or absent."""

    BAD = {"text": '"noon"', "overflow": "1e400", "boolean": "true"}

    @pytest.mark.parametrize("command", [["validate"], ["lift", "--method", "canonical"]])
    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_time_stamp_exits_two(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.json"
        path.write_text('{"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]], '
                        f'"from_t": 0, "to_t": {self.BAD[name]}}}', encoding="utf-8")
        code, report, err = run(capsys, *command, path)
        assert (code, report) == (2, None)
        assert "to_t" in err

    def test_numeric_time_stamps_are_kept(self, capsys, tmp_path):
        path = tmp_path / "stamped.json"
        path.write_text('{"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]], '
                        '"from_t": 0, "to_t": 0.5}', encoding="utf-8")
        code, _, _ = run(capsys, "lift", "--method", "canonical", path)
        assert code == 0


class TestUnusableFiles:
    """A missing input file or an unwritable --out path is a usage error
    (exit 2) that writes nothing to stdout."""

    CASES = {
        "lift-kernel": ["lift", "MISSING"],
        "divisibility-later": ["divisibility", "--mode", "classical", "MISSING",
                               DATA / "flip_kernel.json"],
        "scaling-rate": ["demo", "scaling", "--rate", "MISSING"],
        "lift-unused-theta": ["lift", DATA / "mix_kernel.json", "--theta", "MISSING"],
        "out-in-missing-directory": ["--out", "MISSING_DIR", "validate",
                                     DATA / "flip_kernel.json"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_two_with_empty_stdout(self, capsys, tmp_path, name):
        paths = {"MISSING": tmp_path / "missing.json",
                 "MISSING_DIR": tmp_path / "no-such-dir" / "report.json"}
        code = main([str(paths.get(a, a)) for a in self.CASES[name]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestUnusableContents:
    """A file or option set that a subcommand cannot use is a usage error
    (exit 2) whose message says what is missing; stdout stays empty."""

    #: argv (FILE is the written file), the file's content, the message.
    CASES = {
        "validate-generator": (["validate", DATA / "decay_generator.json"], None,
                               "no validator for file kind 'generator'"),
        "gksl-without-family": (["demo", "ck-checklist", "--kind", "gksl"], None,
                                'family kind "gksl" needs a --family file'),
        "pairwise-family-without-h-or-r": (
            ["demo", "ck-checklist", "--kind", "pairwise-lift", "--family", "FILE"],
            {"jumps": []}, 'pairwise-lift family file needs "h" or "r"'),
        "phase-memory-without-v": (
            ["demo", "phase-memory", "--scenario", "FILE"],
            {"u_x": complex_matrix_to_json(HADAMARD.astype(complex)),
             "u_y": complex_matrix_to_json(HADAMARD.astype(complex))},
            'phase-memory scenario needs "v"'),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_two_naming_the_problem(self, capsys, tmp_path, name):
        argv, content, message = self.CASES[name]
        path = tmp_path / "input.json"
        if content is not None:
            dump_json(content, path)
        code, report, err = run(capsys, *(path if a == "FILE" else a for a in argv))
        assert (code, report) == (2, None)
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--t", "--t-star", "--t-span", "--epsilons",
                                    "--diag-h", "--grid"])
def test_non_finite_number_option_is_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "scaling", option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {option}: must be a finite number" in captured.err
    assert captured.out == ""


class TestThetaLiftReadsOneKrausMap:
    """``lift --method theta`` reads its residual and kernel off the one
    Kraus map it reports; both equal the conjugation report's bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_and_kernel_match_the_conjugation_report(self, capsys,
                                                              tmp_path, seed):
        from stoqlift import theta_conjugation_lift
        from random_ops import random_unitary
        theta = random_unitary(np.random.default_rng(seed), 3)
        conj = theta_conjugation_lift(theta)
        theta_file, kernel_file = tmp_path / "theta.json", tmp_path / "kernel.json"
        dump_json(complex_matrix_to_json(theta), theta_file)
        dump_json(kernel_to_json(StochasticKernel(conj.kernel)), kernel_file)
        code, report, _ = run(capsys, "lift", kernel_file, "--method", "theta",
                              "--theta", theta_file)
        assert code == 0
        verdicts = report["verdicts"]
        assert verdicts["tp_residual"] == conj.tp_residual
        assert verdicts["completeness_residual"] == conj.tp_residual
        assert report["tables"]["induced_kernel"] == conj.kernel.tolist()

    def test_nonstochastic_theta_keeps_its_message(self, capsys, files, tmp_path):
        theta = tmp_path / "theta.json"
        dump_json(complex_matrix_to_json(2.0 * np.eye(2)), theta)
        code, report, err = run(capsys, "lift", files["eye"],
                                "--method", "theta", "--theta", theta)
        assert code == 1
        assert report is None
        assert err == "error: squared moduli of theta are not column-stochastic\n"

"""Command-line interface: file-driven validation, lifting, divisibility,
and the named demonstrations.

Every invocation writes one machine-readable JSON report to stdout and a
short human summary to stderr. Exit codes: 0 the analysis passed, 1 a domain
check failed, 2 the invocation or an input file could not be parsed.
Reports are deterministic: the same inputs and seed give byte-identical
output (file digests replace timestamps).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (CK_TOLERANCE, SuperOperatorFamily, ck_checklist,
                       ctmc_embedding, diagonal_preservation_check, propagate)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (TOL_PROB, TOL_STOCH, KernelFamily, ProbabilityVector,
                      RateMatrix, c_divisibility_check, ctmc_propagate,
                      dtmc_to_ctmc_scaling, theta_markov_triviality_demo,
                      validate_kernel)
from .lifts import (TOL_HERM, TOL_PSD, TOL_TP, DensityOperator, KrausMap,
                    barandes_column_lift, canonical_lift, check_cptp,
                    compatibility_check, embed_diagonal, induced_kernel,
                    q_divisibility_check, readout, theta_conjugation_lift)
from .division import theorem1_check
from .memory import mod_square, two_step_kernel
from .serialization import (SerializationError, complex_matrix_from_json,
                            complex_matrix_to_json, detect_kind, dump_json,
                            generator_from_json, kernel_from_json,
                            kraus_from_json, kraus_to_json, load_json,
                            probability_vector_from_json,
                            rate_matrix_from_json, real_matrix_from_json,
                            superoperator_from_json)

from scipy.linalg import expm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
SYMMETRIC_RATE = np.array([[-1.0, 1.0], [1.0, -1.0]])

EXIT_PASS = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_USAGE = 2


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _numpy_json(value):
    """``json.dumps`` hook for the numpy values a report may hold."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return complex_matrix_to_json(value)["rows"]
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(report: dict, args, summary_lines) -> None:
    """Write the report; NaN or infinity in it raises ``ValueError`` (exit 1)
    before anything reaches stdout, since neither is JSON."""
    payload = json.dumps(report, indent=2, sort_keys=True, default=_numpy_json,
                         allow_nan=False)
    sys.stdout.write(payload + "\n")
    for line in summary_lines:
        sys.stderr.write(line + "\n")
    if getattr(args, "out", None) and report.get("command") != "lift":
        Path(args.out).write_text(payload + "\n", encoding="utf-8")


def _tol(args, default: float) -> float:
    """The ``--tol`` override when given (zero included), else ``default``."""
    return default if args.tol is None else args.tol


def _base_report(command: str, args, inputs: dict) -> dict:
    return {
        "command": command,
        "inputs": {name: _digest(path) for name, path in inputs.items()},
        "seed": args.seed,
        "rng": "numpy.random.default_rng (PCG64), seeded from --seed",
        "tool_version": __version__,
        "verdicts": {},
        "tables": {},
    }


# --- validate ---------------------------------------------------------------

def _cmd_validate(args) -> int:
    obj = load_json(args.file)
    kind = detect_kind(obj)
    report = _base_report("validate", args, {"file": args.file})
    report["kind"] = kind
    if kind == "kernel":
        matrix = real_matrix_from_json(obj)
        ker = validate_kernel(matrix,
                              tol_entry=_tol(args, TOL_PROB),
                              tol_colsum=_tol(args, TOL_STOCH))
        report["verdicts"] = {
            "passed": ker.passed,
            "max_negative_entry": ker.max_negative_entry,
            "max_column_sum_error": ker.max_column_sum_error,
        }
        passed = ker.passed
        summary = (f"kernel validation: {'pass' if passed else 'FAIL'} "
                   f"(negativity {ker.max_negative_entry:.3e}, "
                   f"column-sum error {ker.max_column_sum_error:.3e})")
    elif kind in ("kraus", "superoperator", "complex-matrix", "density"):
        if kind != "kraus":
            matrix = complex_matrix_from_json(obj)
            side = matrix.shape[0]
            # A complex matrix with non-square side can only be a state; an
            # explicit "kind": "density" overrides the superoperator reading.
            if kind == "density" or round(side ** 0.5) ** 2 != side:
                report["kind"] = "density"
                try:
                    DensityOperator(matrix, tol_herm=_tol(args, TOL_HERM),
                                    tol_psd=_tol(args, TOL_PSD))
                    passed, reason = True, "valid density operator"
                except ValidationError as exc:
                    passed, reason = False, str(exc)
                report["verdicts"] = {"passed": passed, "reason": reason}
                summary = (f"density validation: "
                           f"{'pass' if passed else 'FAIL'} ({reason})")
                _emit(report, args, [summary])
                return EXIT_PASS if passed else EXIT_DOMAIN_FAILURE
        map_ = (kraus_from_json(obj) if kind == "kraus"
                else superoperator_from_json(obj))
        cptp = check_cptp(map_, tol_tp=_tol(args, TOL_TP),
                          tol_psd=_tol(args, TOL_PSD))
        report["verdicts"] = {
            "passed": cptp.passed,
            "trace_preserving": cptp.trace_preserving,
            "tp_residual": cptp.tp_residual,
            "completely_positive": cptp.completely_positive,
            "min_choi_eigenvalue": cptp.min_choi_eigenvalue,
        }
        passed = cptp.passed
        summary = (f"CPTP validation: {'pass' if passed else 'FAIL'} "
                   f"(trace residual {cptp.tp_residual:.3e}, "
                   f"min Choi eigenvalue {cptp.min_choi_eigenvalue:.3e})")
    else:
        raise SerializationError(f"no validator for file kind {kind!r}")

    _emit(report, args, [summary])
    return EXIT_PASS if passed else EXIT_DOMAIN_FAILURE


# --- lift -------------------------------------------------------------------

def _cmd_lift(args) -> int:
    inputs = {"kernel": args.kernel}
    if args.theta:
        inputs["theta"] = args.theta
    report = _base_report("lift", args, inputs)
    gamma = kernel_from_json(load_json(args.kernel))

    if args.method == "canonical":
        kmap = canonical_lift(gamma)
    elif args.method in ("theta", "barandes"):
        if not args.theta:
            raise SerializationError(
                f"method {args.method!r} needs a --theta matrix file")
        theta = complex_matrix_from_json(load_json(args.theta))
        if args.method == "barandes":
            kmap = barandes_column_lift(theta)
        else:
            conj_report = theta_conjugation_lift(theta)
            report["verdicts"]["trace_preserving"] = conj_report.trace_preserving
            report["verdicts"]["tp_residual"] = conj_report.tp_residual
            if not conj_report.kernel_validation.passed:
                raise ValidationError(
                    "squared moduli of theta are not column-stochastic")
            kmap = KrausMap([theta])
    else:  # pragma: no cover - argparse restricts choices
        raise SerializationError(f"unknown lift method {args.method!r}")

    compat = compatibility_check(kmap, gamma, tol=_tol(args, TOL_PROB))
    ind = induced_kernel(kmap)
    report["verdicts"].update({
        "compatibility_passed": compat.passed,
        "compatibility_max_residual": compat.max_residual,
        "kraus_rank": kmap.rank,
        "trace_preserving": kmap.trace_preserving,
        "completeness_residual": kmap.completeness_residual,
    })
    report["tables"]["induced_kernel"] = ind.kernel
    kraus_json = kraus_to_json(kmap)
    report["kraus"] = kraus_json
    if args.out:
        dump_json(kraus_json, args.out)

    summary = (f"lift method={args.method}: {kmap.rank} Kraus operators, "
               f"compatibility {'pass' if compat.passed else 'FAIL'} "
               f"(residual {compat.max_residual:.3e})")
    _emit(report, args, [summary])
    return EXIT_PASS if compat.passed else EXIT_DOMAIN_FAILURE


# --- divisibility -----------------------------------------------------------

def _cmd_divisibility(args) -> int:
    inputs = {"later": args.later, "earlier": args.earlier}
    report = _base_report("divisibility", args, inputs)
    report["mode"] = args.mode
    # Without --tol each check runs at its own default tolerance.
    tol = () if args.tol is None else (args.tol,)
    later_obj = load_json(args.later)
    earlier_obj = load_json(args.earlier)

    if args.mode == "classical":
        gamma_20 = kernel_from_json(later_obj)
        gamma_10 = kernel_from_json(earlier_obj)
        result = c_divisibility_check(gamma_20, gamma_10, *tol)
        report["verdicts"] = {
            "divisible": result.divisible,
            "route": result.route,
            "violated_constraints": list(result.violated_constraints),
        }
        if result.witness is not None:
            report["tables"]["witness"] = result.witness.matrix
        verdict = "divisible" if result.divisible else "indivisible"
    elif args.mode == "quantum":
        e_20 = superoperator_from_json(later_obj)
        e_10 = superoperator_from_json(earlier_obj)
        result = q_divisibility_check(e_20, e_10, *tol)
        report["verdicts"] = {"verdict": result.verdict, "reason": result.reason}
        if result.cptp_report is not None:
            report["verdicts"]["witness_tp_residual"] = result.cptp_report.tp_residual
            report["verdicts"]["witness_min_choi_eigenvalue"] = \
                result.cptp_report.min_choi_eigenvalue
        if result.witness is not None:
            report["tables"]["witness"] = result.witness.matrix
        verdict = result.verdict
    else:  # theorem1
        e_10 = superoperator_from_json(earlier_obj)
        e_20 = superoperator_from_json(later_obj)
        verdict_obj = theorem1_check(e_10, e_20, *tol)
        report["verdicts"] = {
            "theorem_applies": verdict_obj.theorem_applies,
            "q_divisible": verdict_obj.q_divisible,
            "all_diagonal_at_t1": verdict_obj.all_diagonal_at_t1,
            "max_offdiagonal_mass": verdict_obj.max_offdiagonal_mass,
            "c_divisible": verdict_obj.c_divisible,
            "factorization_residual": verdict_obj.factorization_residual,
        }
        if verdict_obj.c_witness is not None:
            report["tables"]["classical_witness"] = verdict_obj.c_witness.matrix
        verdict = ("theorem applies" if verdict_obj.theorem_applies
                   else "theorem does not apply")

    _emit(report, args, [f"divisibility mode={args.mode}: {verdict}"])
    return EXIT_PASS


# --- demo -------------------------------------------------------------------

def _demo_theta_triviality(args, report):
    h_matrix = (complex_matrix_from_json(load_json(args.hamiltonian))
                if args.hamiltonian else PAULI_X)
    n_values = args.n_values or [10, 100, 1000]
    rows = theta_markov_triviality_demo(
        lambda h: expm(-1j * h_matrix * h), args.t_span, n_values)
    report["tables"]["triviality"] = [
        {"n": r.n_subdivisions, "step": r.step, "alpha": r.alpha,
         "bound": r.bound, "product_distance": r.product_distance}
        for r in rows]
    decreasing = all(rows[i].bound > rows[i + 1].bound for i in range(len(rows) - 1))
    report["verdicts"] = {"bound_decreasing": decreasing}
    return [f"triviality: bound falls from {rows[0].bound:.3e} to "
            f"{rows[-1].bound:.3e} over n={rows[0].n_subdivisions}"
            f"..{rows[-1].n_subdivisions}"], decreasing


def _demo_scaling(args, report):
    rate = (rate_matrix_from_json(load_json(args.rate))
            if args.rate else RateMatrix(SYMMETRIC_RATE))
    epsilons = args.epsilons or [0.1, 0.05, 0.025]
    rows = dtmc_to_ctmc_scaling(rate, args.t_star, args.t, epsilons)
    table = []
    for i, row in enumerate(rows):
        ratio = rows[i - 1].sup_error / row.sup_error if i else None
        table.append({"epsilon": row.epsilon, "n_steps": row.n_steps,
                      "sup_error": row.sup_error, "error_ratio": ratio})
    report["tables"]["scaling"] = table
    decreasing = all(rows[i].sup_error > rows[i + 1].sup_error
                     for i in range(len(rows) - 1))
    report["verdicts"] = {"errors_decreasing": decreasing}
    return [f"scaling: sup-norm error falls from {rows[0].sup_error:.3e} "
            f"to {rows[-1].sup_error:.3e}"], decreasing


def _demo_phase_memory(args, report):
    if args.scenario:
        obj = load_json(args.scenario)
        for key in ("u_x", "u_y", "v"):
            if key not in obj:
                raise SerializationError(f'phase-memory scenario needs "{key}"')
        u_x = complex_matrix_from_json(obj["u_x"])
        u_y = complex_matrix_from_json(obj["u_y"])
        v = complex_matrix_from_json(obj["v"])
    else:
        u_x = HADAMARD.astype(complex)
        u_y = np.diag([1.0, 1j]) @ HADAMARD
        v = HADAMARD.astype(complex)
    one_step_x = mod_square(u_x)
    one_step_y = mod_square(u_y)
    two_x = two_step_kernel(v, u_x)
    two_y = two_step_kernel(v, u_y)
    one_step_gap = float(np.abs(one_step_x - one_step_y).max())
    two_step_gap = float(np.abs(two_x - two_y).max())
    report["tables"].update({
        "one_step_kernel": one_step_x,
        "two_step_kernel_x": two_x,
        "two_step_kernel_y": two_y,
    })
    report["verdicts"] = {
        "one_step_indistinguishable": one_step_gap <= 1e-12,
        "one_step_gap": one_step_gap,
        "two_step_gap": two_step_gap,
        "two_step_distinguishable": two_step_gap > 1e-6,
    }
    ok = one_step_gap <= 1e-12 and two_step_gap > 1e-6
    return [f"phase-memory: one-step gap {one_step_gap:.3e}, "
            f"two-step gap {two_step_gap:.3e}"], ok


def _demo_ctmc_embedding(args, report):
    rate = (rate_matrix_from_json(load_json(args.rate))
            if args.rate else RateMatrix(SYMMETRIC_RATE))
    p0 = (probability_vector_from_json(load_json(args.p0))
          if args.p0 else ProbabilityVector.basis(0, rate.n))
    gen = ctmc_embedding(rate, args.diag_h)
    classical = ctmc_propagate(rate, p0, args.t)
    lifted = readout(propagate(gen, embed_diagonal(p0), args.t))
    deviation = float(np.abs(classical.entries - lifted.entries).max())
    diagonal_ok = diagonal_preservation_check(gen)
    report["tables"]["classical"] = classical.entries
    report["tables"]["lifted"] = lifted.entries
    report["verdicts"] = {
        "max_deviation": deviation,
        "square_closes": deviation <= 1e-10,
        "diagonal_preserving": diagonal_ok,
    }
    ok = deviation <= 1e-10 and diagonal_ok
    return [f"ctmc-embedding: lifted vs classical deviation {deviation:.3e}"], ok


def _build_family(kind: str, obj: dict | None, grid) -> SuperOperatorFamily:
    if kind == "unitary":
        h = complex_matrix_from_json(obj["h"]) if obj else PAULI_X
        return SuperOperatorFamily.from_hamiltonian(h, grid)
    if kind == "gksl":
        if obj is None:
            raise SerializationError('family kind "gksl" needs a --family file')
        return SuperOperatorFamily.from_generator(generator_from_json(obj), grid)
    if kind == "pairwise-lift":
        if obj is None or "h" in obj:
            h = complex_matrix_from_json(obj["h"]) if obj else PAULI_X
            kfam = KernelFamily.from_theta(
                lambda t, s: expm(-1j * h * (t - s)), grid)
        elif "r" in obj:
            kfam = KernelFamily.from_rate_matrix(
                rate_matrix_from_json(obj["r"]), grid)
        else:
            raise SerializationError(
                'pairwise-lift family file needs "h" or "r"')
        return SuperOperatorFamily.from_kernel_family(kfam, lift="canonical")
    raise SerializationError(f"unknown family kind {kind!r}")


def _demo_ck_checklist(args, report):
    obj = load_json(args.family) if args.family else None
    grid = args.grid or [0.0, 0.4, 1.0]
    family = _build_family(args.kind, obj, grid)
    result = ck_checklist(family, fd_step=args.fd_step,
                          tolerance=_tol(args, CK_TOLERANCE))
    report["tables"]["identity_residuals"] = {
        str(t): r for t, r in result.identity_residuals.items()}
    report["tables"]["forward_residuals"] = {
        f"({s},{t})": r for (s, t), r in result.forward_residuals.items()}
    report["verdicts"] = {
        "passed": result.passed,
        "max_identity_residual": result.max_identity_residual,
        "max_forward_residual": result.max_forward_residual,
        "stencil_error_estimate": result.stencil_error_estimate,
        "tolerance_dominates_stencil": result.tolerance_dominates_stencil,
    }
    return [f"ck-checklist kind={args.kind}: "
            f"{'pass' if result.passed else 'FAIL'} "
            f"(worst forward residual {result.max_forward_residual:.3e})"], result.passed


def _cmd_demo(args) -> int:
    inputs = {}
    for attr in ("hamiltonian", "rate", "p0", "scenario", "family"):
        path = getattr(args, attr, None)
        if path:
            inputs[attr] = path
    report = _base_report("demo", args, inputs)
    report["name"] = args.name
    runner = {
        "theta-triviality": _demo_theta_triviality,
        "scaling": _demo_scaling,
        "phase-memory": _demo_phase_memory,
        "ctmc-embedding": _demo_ctmc_embedding,
        "ck-checklist": _demo_ck_checklist,
    }[args.name]
    summary, passed = runner(args, report)
    _emit(report, args, summary)
    return EXIT_PASS if passed else EXIT_DOMAIN_FAILURE


# --- parser -----------------------------------------------------------------

def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value >= 0.0:  # negative, nan or not a number
        raise argparse.ArgumentTypeError(
            f"tolerance must be a nonnegative number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoqlift",
        description="Stochastic kernels, their quantum-channel lifts, and "
                    "divisibility analysis.")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed recorded in the report and used by any "
                             "randomized sub-evaluation (default 42)")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="override the module default tolerances uniformly")
    parser.add_argument("--out", type=str, default=None,
                        help="write the primary artifact (lift: Kraus JSON, "
                             "otherwise the report) to this path")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_validate = sub.add_parser("validate", help="validate a kernel or map file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=_cmd_validate)

    p_lift = sub.add_parser("lift", help="lift a kernel to Kraus operators")
    p_lift.add_argument("kernel")
    p_lift.add_argument("--method", choices=["canonical", "theta", "barandes"],
                        default="canonical")
    p_lift.add_argument("--theta", help="complex matrix file for the theta "
                                        "and barandes methods")
    p_lift.set_defaults(func=_cmd_lift)

    p_div = sub.add_parser("divisibility", help="divisibility analysis")
    p_div.add_argument("--mode", choices=["classical", "quantum", "theorem1"],
                       required=True)
    p_div.add_argument("later", help="kernel/map over the full interval")
    p_div.add_argument("earlier", help="kernel/map up to the division time")
    p_div.set_defaults(func=_cmd_divisibility)

    p_demo = sub.add_parser("demo", help="run a named demonstration")
    p_demo.add_argument("name", choices=["theta-triviality", "scaling",
                                         "phase-memory", "ctmc-embedding",
                                         "ck-checklist"])
    p_demo.add_argument("--hamiltonian", help="complex matrix file")
    p_demo.add_argument("--rate", help="rate matrix file")
    p_demo.add_argument("--p0", help="probability vector file")
    p_demo.add_argument("--scenario", help="phase-memory scenario file")
    p_demo.add_argument("--family", help="family file for ck-checklist")
    p_demo.add_argument("--kind", choices=["unitary", "gksl", "pairwise-lift"],
                        default="unitary", help="family kind for ck-checklist")
    p_demo.add_argument("--t-span", type=float, default=1.0, dest="t_span")
    p_demo.add_argument("--n-values", type=int, nargs="+", dest="n_values")
    p_demo.add_argument("--t-star", type=float, default=1.0, dest="t_star")
    p_demo.add_argument("--t", type=float, default=1.0)
    p_demo.add_argument("--epsilons", type=float, nargs="+")
    p_demo.add_argument("--diag-h", type=float, nargs="+", dest="diag_h")
    p_demo.add_argument("--grid", type=float, nargs="+")
    p_demo.add_argument("--fd-step", type=float, default=1e-4, dest="fd_step")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SerializationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ValidationError, DimensionMismatchError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN_FAILURE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()

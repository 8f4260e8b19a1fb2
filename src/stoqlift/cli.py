"""Command-line interface: file-driven validation, lifting, divisibility,
and the named demonstrations.

Every invocation writes one machine-readable JSON report to stdout and a
short human summary to stderr. Exit codes: 0 the analysis passed, 1 a domain
check failed, 2 the invocation, an input file or the ``--out`` path could not
be used. Reports are deterministic: the same inputs and seed give
byte-identical output (file digests replace timestamps).

Each handler returns its report fields, whether it passed and its summary
line; ``main`` alone adds the header, serializes the report, writes ``--out``
(for ``lift`` the Kraus JSON) before stdout, and picks the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._arrays import DEMO_CLOSE_GAP, DEMO_DISTINCT_GAP, DEMO_SAME_GAP, semigroup
from .dynamics import (SuperOperatorFamily, ck_checklist, ctmc_embedding,
                       diagonal_preservation_check, propagate)
from .errors import ValidationError
from .kernels import (KernelFamily, ProbabilityVector, RateMatrix,
                      c_divisibility_check, ctmc_propagate,
                      dtmc_to_ctmc_scaling, theta_markov_triviality_demo,
                      validate_kernel)
from .lifts import (DensityOperator, KrausMap, SuperOperator,
                    barandes_column_lift, canonical_lift, check_cptp,
                    compatibility_check, embed_diagonal, induced_kernel,
                    q_divisibility_check, readout)
from .division import theorem1_check
from .memory import mod_square, two_step_kernel
from .serialization import (SerializationError, complex_matrix_from_json,
                            complex_matrix_to_json, detect_kind,
                            generator_from_json, kernel_from_json,
                            kraus_from_json, kraus_to_json, load_json,
                            probability_vector_from_json,
                            rate_matrix_from_json, real_matrix_from_json,
                            superoperator_from_json)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
SYMMETRIC_RATE = np.array([[-1.0, 1.0], [1.0, -1.0]])

EXIT_PASS = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_USAGE = 2


def _numpy_json(value):
    """``json.dumps`` hook for the numpy values a report may hold."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return complex_matrix_to_json(value)["rows"]
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """NaN or infinity raises ``ValueError`` (exit 1): neither is JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_numpy_json,
                      allow_nan=False) + "\n"


def _fields(result, *names: str) -> dict:
    return {name: getattr(result, name) for name in names}


def _tol(args, *names: str) -> dict:
    """``--tol`` (zero included) as each named keyword, or no keyword at all
    without it, so that every check runs at its own default."""
    return {} if args.tol is None else dict.fromkeys(names, args.tol)


# --- validate ---------------------------------------------------------------

def _cmd_validate(args):
    obj = load_json(args.file)
    kind = detect_kind(obj)
    if kind == "kernel":
        ker = validate_kernel(real_matrix_from_json(obj),
                              **_tol(args, "tol_entry", "tol_colsum"))
        verdicts = _fields(ker, "passed", "max_negative_entry",
                           "max_column_sum_error")
        return ({"kind": kind, "verdicts": verdicts}, ker.passed,
                f"kernel validation: {'pass' if ker.passed else 'FAIL'} "
                f"(negativity {ker.max_negative_entry:.3e}, "
                f"column-sum error {ker.max_column_sum_error:.3e})")
    if kind not in ("kraus", "superoperator", "complex-matrix", "density"):
        raise SerializationError(f"no validator for file kind {kind!r}")
    matrix = None if kind == "kraus" else complex_matrix_from_json(obj)
    # A complex matrix with non-square side can only be a state; an explicit
    # "kind": "density" overrides the superoperator reading.
    if matrix is not None and (kind == "density"
                               or round(len(matrix) ** 0.5) ** 2 != len(matrix)):
        try:
            DensityOperator(matrix, **_tol(args, "tol_herm", "tol_psd"))
            passed, reason = True, "valid density operator"
        except ValidationError as exc:
            passed, reason = False, str(exc)
        return ({"kind": "density", "verdicts": {"passed": passed, "reason": reason}},
                passed,
                f"density validation: {'pass' if passed else 'FAIL'} ({reason})")
    map_ = kraus_from_json(obj) if matrix is None else SuperOperator(matrix)
    cptp = check_cptp(map_, **_tol(args, "tol_tp", "tol_psd"))
    verdicts = _fields(cptp, "passed", "trace_preserving", "tp_residual",
                       "completely_positive", "min_choi_eigenvalue")
    return ({"kind": kind, "verdicts": verdicts}, cptp.passed,
            f"CPTP validation: {'pass' if cptp.passed else 'FAIL'} "
            f"(trace residual {cptp.tp_residual:.3e}, "
            f"min Choi eigenvalue {cptp.min_choi_eigenvalue:.3e})")


# --- lift -------------------------------------------------------------------

def _cmd_lift(args):
    gamma = kernel_from_json(load_json(args.kernel))
    verdicts = {}
    if args.method == "canonical":
        kmap = canonical_lift(gamma)
    else:  # theta or barandes
        if not args.theta:
            raise SerializationError(
                f"method {args.method!r} needs a --theta matrix file")
        theta = complex_matrix_from_json(load_json(args.theta))
        kmap = (barandes_column_lift(theta) if args.method == "barandes"
                else KrausMap([theta]))
    induced = induced_kernel(kmap)
    if args.method == "theta":
        # One operator: residual |theta^dagger theta - I|, kernel |theta|^2.
        if not induced.validation.passed:
            raise ValidationError("squared moduli of theta are not column-stochastic")
        verdicts["tp_residual"] = kmap.completeness_residual

    compat = compatibility_check(kmap, gamma, **_tol(args, "tol"))
    verdicts.update(_fields(kmap, "trace_preserving", "completeness_residual"),
                    compatibility_passed=compat.passed,
                    compatibility_max_residual=compat.max_residual,
                    kraus_rank=kmap.rank)
    fields = {"verdicts": verdicts, "kraus": kraus_to_json(kmap),
              "tables": {"induced_kernel": induced.kernel}}
    return (fields, compat.passed,
            f"lift method={args.method}: {kmap.rank} Kraus operators, "
            f"compatibility {'pass' if compat.passed else 'FAIL'} "
            f"(residual {compat.max_residual:.3e})")


# --- divisibility -----------------------------------------------------------

def _cmd_divisibility(args):
    tol = _tol(args, "tolerance").values()  # passed by position
    later_obj = load_json(args.later)
    earlier_obj = load_json(args.earlier)
    tables = {}

    if args.mode == "classical":
        result = c_divisibility_check(kernel_from_json(later_obj),
                                      kernel_from_json(earlier_obj), *tol)
        verdicts = dict(_fields(result, "divisible", "route"),
                        violated_constraints=list(result.violated_constraints))
        if result.witness is not None:
            tables["witness"] = result.witness.matrix
        verdict = "divisible" if result.divisible else "indivisible"
    elif args.mode == "quantum":
        result = q_divisibility_check(superoperator_from_json(later_obj),
                                      superoperator_from_json(earlier_obj), *tol)
        verdicts = _fields(result, "verdict", "reason")
        if (cptp := result.cptp_report) is not None:
            verdicts.update(witness_tp_residual=cptp.tp_residual,
                            witness_min_choi_eigenvalue=cptp.min_choi_eigenvalue)
        if result.witness is not None:
            tables["witness"] = result.witness.matrix
        verdict = result.verdict
    else:  # theorem1
        verdict_obj = theorem1_check(superoperator_from_json(earlier_obj),
                                     superoperator_from_json(later_obj), *tol)
        verdicts = _fields(verdict_obj, "theorem_applies", "q_divisible",
                           "all_diagonal_at_t1", "max_offdiagonal_mass",
                           "c_divisible", "factorization_residual")
        if verdict_obj.c_witness is not None:
            tables["classical_witness"] = verdict_obj.c_witness.matrix
        verdict = ("theorem applies" if verdict_obj.theorem_applies
                   else "theorem does not apply")

    return ({"mode": args.mode, "verdicts": verdicts, "tables": tables}, True,
            f"divisibility mode={args.mode}: {verdict}")


# --- demo -------------------------------------------------------------------

def _rate(args) -> RateMatrix:
    return (rate_matrix_from_json(load_json(args.rate))
            if args.rate else RateMatrix(SYMMETRIC_RATE))


def _demo_theta_triviality(args):
    h_matrix = (complex_matrix_from_json(load_json(args.hamiltonian))
                if args.hamiltonian else PAULI_X)
    rows = theta_markov_triviality_demo(
        lambda h: semigroup(-1j * h_matrix, h), args.t_span, args.n_values)
    table = [{"n": r.n_subdivisions, "step": r.step, "alpha": r.alpha,
              "bound": r.bound, "product_distance": r.product_distance}
             for r in rows]
    decreasing = all(rows[i].bound > rows[i + 1].bound for i in range(len(rows) - 1))
    return ({"verdicts": {"bound_decreasing": decreasing},
             "tables": {"triviality": table}}, decreasing,
            f"triviality: bound falls from {rows[0].bound:.3e} to "
            f"{rows[-1].bound:.3e} over n={rows[0].n_subdivisions}"
            f"..{rows[-1].n_subdivisions}")


def _demo_scaling(args):
    rows = dtmc_to_ctmc_scaling(_rate(args), args.t_star, args.t, args.epsilons)
    table = []
    for i, row in enumerate(rows):
        # A zero error leaves the ratio undefined (null in the report).
        ratio = (rows[i - 1].sup_error / row.sup_error
                 if i and row.sup_error else None)
        table.append(dict(_fields(row, "epsilon", "n_steps", "sup_error"),
                          error_ratio=ratio))
    decreasing = all(rows[i].sup_error > rows[i + 1].sup_error
                     for i in range(len(rows) - 1))
    return ({"verdicts": {"errors_decreasing": decreasing},
             "tables": {"scaling": table}}, decreasing,
            f"scaling: sup-norm error falls from {rows[0].sup_error:.3e} "
            f"to {rows[-1].sup_error:.3e}")


def _demo_phase_memory(args):
    if args.scenario:
        obj = load_json(args.scenario)
        for key in ("u_x", "u_y", "v"):
            if key not in obj:
                raise SerializationError(f'phase-memory scenario needs "{key}"')
        u_x, u_y, v = (complex_matrix_from_json(obj[key])
                       for key in ("u_x", "u_y", "v"))
    else:
        u_x = v = HADAMARD.astype(complex)
        u_y = np.diag([1.0, 1j]) @ HADAMARD
    one_step_x = mod_square(u_x)
    two_x = two_step_kernel(v, u_x)
    two_y = two_step_kernel(v, u_y)
    one_step_gap = float(np.abs(one_step_x - mod_square(u_y)).max())
    two_step_gap = float(np.abs(two_x - two_y).max())
    same = one_step_gap <= DEMO_SAME_GAP
    distinct = two_step_gap > DEMO_DISTINCT_GAP
    verdicts = {"one_step_indistinguishable": same, "one_step_gap": one_step_gap,
                "two_step_gap": two_step_gap, "two_step_distinguishable": distinct}
    tables = {"one_step_kernel": one_step_x, "two_step_kernel_x": two_x,
              "two_step_kernel_y": two_y}
    return ({"verdicts": verdicts, "tables": tables}, same and distinct,
            f"phase-memory: one-step gap {one_step_gap:.3e}, "
            f"two-step gap {two_step_gap:.3e}")


def _demo_ctmc_embedding(args):
    rate = _rate(args)
    p0 = (probability_vector_from_json(load_json(args.p0))
          if args.p0 else ProbabilityVector.basis(0, rate.n))
    gen = ctmc_embedding(rate, args.diag_h)
    classical = ctmc_propagate(rate, p0, args.t)
    lifted = readout(propagate(gen, embed_diagonal(p0), args.t))
    deviation = float(np.abs(classical.entries - lifted.entries).max())
    diagonal_ok = diagonal_preservation_check(gen)
    closes = deviation <= DEMO_CLOSE_GAP
    verdicts = {"max_deviation": deviation, "square_closes": closes,
                "diagonal_preserving": diagonal_ok}
    tables = {"classical": classical.entries, "lifted": lifted.entries}
    return ({"verdicts": verdicts, "tables": tables}, closes and diagonal_ok,
            f"ctmc-embedding: lifted vs classical deviation {deviation:.3e}")


def _build_family(kind: str, obj: dict | None, grid) -> SuperOperatorFamily:
    if kind == "unitary":
        h = complex_matrix_from_json(obj["h"]) if obj else PAULI_X
        return SuperOperatorFamily.from_hamiltonian(h, grid)
    if kind == "gksl":
        if obj is None:
            raise SerializationError('family kind "gksl" needs a --family file')
        return SuperOperatorFamily.from_generator(generator_from_json(obj), grid)
    # pairwise-lift
    if obj is None or "h" in obj:
        h = complex_matrix_from_json(obj["h"]) if obj else PAULI_X
        kfam = KernelFamily.from_theta(lambda t, s: semigroup(-1j * h, t - s), grid)
    elif "r" in obj:
        kfam = KernelFamily.from_rate_matrix(rate_matrix_from_json(obj["r"]), grid)
    else:
        raise SerializationError('pairwise-lift family file needs "h" or "r"')
    return SuperOperatorFamily.from_kernel_family(kfam, lift="canonical")


def _demo_ck_checklist(args):
    obj = load_json(args.family) if args.family else None
    family = _build_family(args.kind, obj, args.grid)
    result = ck_checklist(family, **_tol(args, "tolerance"))
    tables = {
        "identity_residuals": {
            str(t): r for t, r in result.identity_residuals.items()},
        "composition_residuals": {
            f"({row.s},{row.u},{row.t})": row.residual for row in result.triples},
    }
    verdicts = _fields(result, "passed", "max_identity_residual",
                       "max_composition_residual", "min_choi_eigenvalue")
    return ({"verdicts": verdicts, "tables": tables}, result.passed,
            f"ck-checklist kind={args.kind}: "
            f"{'pass' if result.passed else 'FAIL'} "
            f"(worst composition residual {result.max_composition_residual:.3e}, "
            f"smallest Choi eigenvalue {result.min_choi_eigenvalue:.3e})")


DEMOS = {
    "theta-triviality": _demo_theta_triviality,
    "scaling": _demo_scaling,
    "phase-memory": _demo_phase_memory,
    "ctmc-embedding": _demo_ctmc_embedding,
    "ck-checklist": _demo_ck_checklist,
}


def _cmd_demo(args):
    fields, passed, summary = DEMOS[args.name](args)
    return dict(fields, name=args.name), passed, summary


# --- parser -----------------------------------------------------------------

def _number(text: str, nonnegative: bool = False) -> float:
    """A finite number option; argparse names the option in the usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value >= 0.0 or not nonnegative)):
        raise argparse.ArgumentTypeError(
            f"must be a finite{' nonnegative' if nonnegative else ''} number, "
            f"got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _number(text, nonnegative=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoqlift",
        description="Stochastic kernels, their quantum-channel lifts, and "
                    "divisibility analysis.")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed recorded in the report (default 42)")
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
    p_demo.add_argument("name", choices=list(DEMOS))
    p_demo.add_argument("--hamiltonian", help="complex matrix file")
    p_demo.add_argument("--rate", help="rate matrix file")
    p_demo.add_argument("--p0", help="probability vector file")
    p_demo.add_argument("--scenario", help="phase-memory scenario file")
    p_demo.add_argument("--family", help="family file for ck-checklist")
    p_demo.add_argument("--kind", choices=["unitary", "gksl", "pairwise-lift"],
                        default="unitary", help="family kind for ck-checklist")
    p_demo.add_argument("--t-span", type=_number, default=1.0)
    p_demo.add_argument("--n-values", type=int, nargs="+",
                        default=[10, 100, 1000])
    p_demo.add_argument("--t-star", type=_number, default=1.0)
    p_demo.add_argument("--t", type=_number, default=1.0)
    p_demo.add_argument("--epsilons", type=_number, nargs="+",
                        default=[0.1, 0.05, 0.025])
    p_demo.add_argument("--diag-h", type=_number, nargs="+")
    p_demo.add_argument("--grid", type=_number, nargs="+",
                        default=[0.0, 0.4, 1.0])
    p_demo.set_defaults(func=_cmd_demo)
    return parser


#: The options that name an input file; the report holds each one's digest.
INPUT_OPTIONS = ("file", "kernel", "theta", "later", "earlier", "hamiltonian",
                 "rate", "p0", "scenario", "family")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fields, passed, summary = args.func(args)
        inputs = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                  for name in INPUT_OPTIONS if (path := getattr(args, name, None))}
        report = {"command": args.cmd, "inputs": inputs, "seed": args.seed,
                  "rng": "numpy.random.default_rng (PCG64), seeded from --seed",
                  "tool_version": __version__, "tables": {}, **fields}
        payload = _dumps(report)
        if args.out:
            Path(args.out).write_text(
                _dumps(report["kraus"]) if args.cmd == "lift" else payload,
                encoding="utf-8")
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        # A file that cannot be read, parsed or written is a usage error.
        usage = isinstance(exc, (SerializationError, OSError))
        return EXIT_USAGE if usage else EXIT_DOMAIN_FAILURE
    sys.stdout.write(payload)
    sys.stderr.write(summary + "\n")
    return EXIT_PASS if passed else EXIT_DOMAIN_FAILURE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""cli-files: one fresh ``python -m stoqlift.cli`` process per op.

The one-shot user path. Interpreter start, import and ``serialization``
dominate it; compute is close to zero at N = 2. The ops cycle over every
subcommand and mode on ``demos/data/``, plus three small files generated
from the seed (a superoperator, a 3-state kernel and the dephasing channel).
Every invocation runs twice, and the second stdout must match the first
byte for byte; exit codes and verdict fields are checked every time.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from ops import Op

#: Ops run in child processes, so the worker installs no tracer itself.
IN_PROCESS = False
HERE = Path(__file__).resolve().parent
DATA = "demos/data/"


def _commands(gen):
    """(arguments, expected exit code, expected verdict fields) per invocation,
    round-robin over the subcommands so that any prefix covers all of them."""
    by_command = {}
    for entry in _invocations(gen):
        by_command.setdefault(entry[0][0], []).append(entry)
    return [entry for group in itertools.zip_longest(*by_command.values())
            for entry in group if entry is not None]


def _invocations(gen):
    return [
        (["validate", DATA + "flip_kernel.json"], 0, {"passed": True}),
        (["validate", DATA + "identity_channel.json"], 0,
         {"passed": True, "trace_preserving": True}),
        (["validate", gen["superop"]], 0, {"passed": True}),
        (["lift", DATA + "flip_kernel.json"], 0,
         {"compatibility_passed": True, "kraus_rank": 2}),
        (["lift", gen["kernel"], "--method", "canonical"], 0,
         {"compatibility_passed": True, "kraus_rank": 9}),
        (["lift", DATA + "mix_kernel.json", "--method", "theta",
          "--theta", DATA + "hadamard_theta.json"], 0,
         {"compatibility_passed": True, "trace_preserving": True}),
        (["lift", DATA + "mix_kernel.json", "--method", "barandes",
          "--theta", DATA + "hadamard_theta.json"], 0,
         {"compatibility_passed": True, "kraus_rank": 2}),
        (["divisibility", "--mode", "classical", DATA + "mix_kernel.json",
          DATA + "flip_kernel.json"], 0, {"divisible": True, "route": "inverse"}),
        (["divisibility", "--mode", "classical", DATA + "flip_kernel.json",
          DATA + "mix_kernel.json"], 0,
         {"divisible": False, "route": "feasibility"}),
        (["divisibility", "--mode", "quantum", DATA + "hadamard_conjugation.json",
          DATA + "identity_channel.json"], 0, {"verdict": "divisible"}),
        (["divisibility", "--mode", "quantum", DATA + "identity_channel.json",
          gen["dephasing"]], 0, {"verdict": "indivisible"}),
        (["divisibility", "--mode", "theorem1", DATA + "hadamard_conjugation.json",
          DATA + "identity_channel.json"], 0,
         {"theorem_applies": True, "c_divisible": True}),
        (["divisibility", "--mode", "theorem1", DATA + "identity_channel.json",
          gen["dephasing"]], 0,
         {"theorem_applies": False, "q_divisible": False, "c_divisible": True}),
        (["demo", "ck-checklist", "--kind", "unitary"], 0, {"passed": True}),
        (["demo", "theta-triviality"], 0, {"bound_decreasing": True}),
        (["demo", "ck-checklist", "--kind", "gksl",
          "--family", DATA + "decay_generator.json"], 0, {"passed": True}),
        (["demo", "scaling", "--rate", DATA + "symmetric_rate.json"], 0,
         {"errors_decreasing": True}),
        (["demo", "ck-checklist", "--kind", "pairwise-lift"], 1, {"passed": False}),
        (["demo", "phase-memory"], 0,
         {"one_step_indistinguishable": True, "two_step_distinguishable": True}),
        (["demo", "ctmc-embedding", "--rate", DATA + "symmetric_rate.json"], 0,
         {"square_closes": True, "diagonal_preserving": True}),
    ]


def _complex_json(m):
    return {"n": int(m.shape[0]),
            "rows": [[[float(x.real), float(x.imag)] for x in row] for row in m]}


def _write_inputs(ctx):
    """Seeded input files, written inside the benchmark's output directory."""
    rng, digest = ctx.rng, ctx.digest
    folder = Path(ctx.outdir) / f"cli-inputs-{ctx.seed}"
    folder.mkdir(parents=True, exist_ok=True)
    kernel = digest.add(inputs.stochastic(rng, 3))
    channel = digest.add(inputs.superop(inputs.channel_kraus(rng, 2)))
    files = {
        "kernel": {"n": 3, "rows": kernel.tolist()},
        "superop": _complex_json(channel),
        "dephasing": {"ops": [_complex_json(np.diag([1.0, 0.0]).astype(complex)),
                              _complex_json(np.diag([0.0, 1.0]).astype(complex))]},
    }
    paths = {}
    for name, obj in files.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path.relative_to(ctx.root))
    return paths


def _op(ctx, args, code, verdicts, references):
    argv = ["--seed", str(ctx.seed), *args]
    key = " ".join(args)
    spans_file = Path(ctx.outdir) / f"cli-spans-{ctx.seed}.json"

    def call(cmd):
        # The worker's per-op time limit interrupts a hung child; run() then
        # kills it and waits for it.
        return subprocess.run(cmd, cwd=ctx.root, capture_output=True, check=False)

    def run():
        return call([sys.executable, "-m", "stoqlift.cli", *argv])

    def run_traced(tracer, span):
        proc = call([sys.executable, str(HERE / "clitrace.py"),
                     str(spans_file), *argv])
        recorded = json.loads(spans_file.read_text(encoding="utf-8"))
        tracer.merge(recorded["spans"], recorded["counts"], span)
        return proc

    def check(proc):
        if proc.returncode != code:
            return f"cli.exit{proc.returncode}"
        first = references.setdefault(key, proc.stdout)
        if proc.stdout != first:
            return "cli.stdout_differs"
        got = json.loads(proc.stdout)["verdicts"]
        if any(got.get(k) != v for k, v in verdicts.items()):
            return "cli.verdict"
        return None

    return Op(args[0], run, check, "exit %d" % code, run_traced=run_traced)


def build(ctx):
    """Untraced, each invocation runs twice in a row; traced runs already run
    each op twice (once traced), so there it runs once."""
    references = {}
    ops = []
    for args, code, verdicts in _commands(_write_inputs(ctx)):
        op = _op(ctx, args, code, verdicts, references)
        ops += [op] if ctx.trace else [op, op]
    return ops, ops[:1]

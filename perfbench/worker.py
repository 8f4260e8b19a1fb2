"""One benchmark process: set a workload up, then run it closed-loop.

Usage (``run.py`` starts it; PYTHONPATH must name the checkout's ``src``)::

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                               --outdir DIR [--setup-only]

One client runs the workload's ops in order, each starting after the last
one finished, and checks every output against the op's label outside the
timed region. Untraced, it reports the end-to-end metrics; traced, it
alternates an untraced and a traced run of the same op and reports the
per-layer metrics. ``--setup-only`` stops when the first op could start.
The last stdout line is one JSON object; ``ready`` is the CLOCK_MONOTONIC
time at which set-up (import, input generation and warm-up) ended.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import hostspeed  # noqa: E402
from inputs import Digest  # noqa: E402
from ops import OpTimeout, exception_code  # noqa: E402
from tracer import EXPM, LAYERS, Tracer, layer_of  # noqa: E402

WORKLOADS = {"cli-files": "cli_files", "lift-dense": "lift_dense",
             "divide": "divide", "ck-families": "ck_families"}
#: Functions of ``lifts`` whose own time is reported, same-layer helpers included.
LIFTS_FUNCTIONS = ("to_superoperator", "check_cptp", "compatibility_check",
                   "induced_kernel", "q_divisibility_check")
#: Untraced/traced op pairs between two import-split probes on cli-files.
PROBE_EVERY = 3
#: Probe pairs taken after the loop on the in-process workloads.
PROBES_AFTER = 3
#: Time limit of one op; an op that runs past it is interrupted and fails.
#: A workload may set a shorter BAND_OP_LIMIT_S for its ill-conditioned ops.
OP_LIMIT_S = 30.0


class Context:
    def __init__(self, seed, outdir, trace):
        self.seed = seed
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.digest = Digest()
        self.root = ROOT
        self.outdir = outdir


class Outcomes:
    """Start times, latencies and outcomes of the ops one loop attempted.

    ``wrong`` counts every op whose output disagrees with its label: it
    raised, timed out, gave another verdict or failed its output check.
    ``failed`` counts those of them that are not the library's known defect
    in the ill-conditioned band (a false negative, raise or timeout on an
    ``op.band`` input), so it is 0 unless something unexpected went wrong.
    """

    def __init__(self):
        self.starts = []
        self.latencies = []
        self.kinds = []
        self.codes = Counter()
        self.raised = Counter()
        self.tracebacks = {}
        self.failed = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def wrong(self):
        return sum(self.codes.values())

    def add(self, op, start, seconds, out):
        self.starts.append(start)
        self.latencies.append(seconds)
        self.kinds.append(op.kind)
        raised = isinstance(out, Exception)
        try:
            code = exception_code(out) if raised else op.check(out)
        except Exception as exc:  # a malformed output fails the op
            code, out, raised = f"check.{type(exc).__name__}", exc, False
        if code is None:
            return
        self.codes[code] += 1
        if isinstance(out, Exception):
            self.raised[type(out).__name__] += 1
            self.tracebacks.setdefault(code, "".join(
                traceback.format_exception(out)[-3:]))
        if not (op.band and (raised or op.label == "divisible")):
            self.failed += 1

    def merge(self, other):
        self.starts += other.starts
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.codes.update(other.codes)
        self.raised.update(other.raised)
        self.tracebacks = {**other.tracebacks, **self.tracebacks}
        self.failed += other.failed


def _interrupt(signum, frame):
    raise OpTimeout()


def timed(op, band_limit, tracer=None):
    """Run one op for at most ``band_limit`` seconds if it is in the
    ill-conditioned band, else ``OP_LIMIT_S``; returns (start, seconds,
    output or the exception it raised)."""
    limit = band_limit if op.band else OP_LIMIT_S
    span = tracer.open(f"op.{op.kind}") if tracer is not None else None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            if span is not None and op.run_traced is not None:
                out = op.run_traced(tracer, span)
            else:
                out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # the loop records the failure and goes on
        out = exc
    seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return start, seconds, out


def probe(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def untraced_loop(ops, seconds, band_limit, sampler):
    done = Outcomes()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        done.add(op, *timed(op, band_limit))
        sampler.tick()
        i += 1
    return done


def traced_loop(ops, seconds, band_limit, tracer, in_process):
    """Each op runs both untraced and traced, so both see the same sequence;
    which of the two goes first alternates, so neither gets the warmer caches."""
    plain, traced = Outcomes(), Outcomes()
    interp, imported = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if i % 2:
            plain.add(op, *timed(op, band_limit))
        if in_process:
            tracer.install()
        result = timed(op, band_limit, tracer)
        if in_process:
            tracer.uninstall()
        traced.add(op, *result)
        if not i % 2:
            plain.add(op, *timed(op, band_limit))
        i += 1
        if not in_process and i % PROBE_EVERY == 0:
            interp.append(probe("pass"))
            imported.append(probe("import stoqlift.cli"))
    for _ in range(PROBES_AFTER if in_process else 0):
        interp.append(probe("pass"))
        imported.append(probe("import stoqlift.cli"))
    return plain, traced, interp, imported


def end_to_end(done, sampler):
    """End-to-end metrics; each latency is divided by the host slowdown
    around it."""
    raw = np.asarray(done.latencies)
    slowdown = sampler.slowdown(done.starts)
    lat = raw / slowdown
    p50, p90 = np.percentile(lat, [50, 90])
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "ops_per_s": (done.attempted / lat.sum(), "1/s"),
        "op_ms.p50": (1e3 * p50, "ms"),
        "op_ms.p90": (1e3 * p90, "ms"),
        "ok_frac": (1.0 - done.wrong / done.attempted, "frac"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }
    raw_p50, raw_p90 = np.percentile(raw, [50, 90])
    detail = {"samples": done.attempted,
              "samples_above_p90": int((lat > p90).sum()),
              "host_slowdown": float(np.mean(sampler.samples)) / hostspeed.NOMINAL_S,
              "raw": {"ops_per_s": done.attempted / raw.sum(),
                      "op_ms.p50": 1e3 * raw_p50, "op_ms.p90": 1e3 * raw_p90}}
    return metrics, detail


def per_layer(plain, traced, interp, imported, tracer):
    n = traced.attempted
    self_time, own_time = tracer.self_times()
    calls, busy, own = Counter(), Counter(), Counter()
    main_s = 0.0
    for span, t_self, t_own in zip(tracer.spans, self_time, own_time):
        if span[0] == "cli.main":
            main_s += span[2] - span[1]
        layer = layer_of(span[0])
        calls[layer] += 1
        busy[layer] += t_self
        own[span[0]] += t_own
    counts = tracer.counts
    both = Outcomes()
    both.merge(plain)
    both.merge(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def share(code):
        return ratio(both.codes[code], both.attempted)

    interp_s = statistics.median(interp)
    import_s = statistics.median(imported)
    metrics = {
        "cli.interp_ms": (1e3 * interp_s, "ms"),
        "cli.import_ms": (1e3 * (import_s - interp_s), "ms"),
        "cli.run_ms": (1e3 * main_s / n, "ms"),
    }
    for layer in (*LAYERS, EXPM):
        metrics[f"{layer}.calls"] = (calls[layer] / n, "calls/op")
        metrics[f"{layer}.self_ms"] = (1e3 * busy[layer] / n, "ms/op")
    for name in LIFTS_FUNCTIONS:
        metrics[f"lifts.{name}.self_ms"] = (1e3 * own[f"lifts.{name}"] / n, "ms/op")
    metrics.update({
        "lifts.kraus_bytes": (counts["kraus.bytes"] / n, "B/op"),
        "lifts.q_div.wrong": (share("lifts.q_div.wrong"), "frac"),
        "lifts.q_div.raised": (share("lifts.q_div.raised"), "frac"),
        "kernels.c_div.lp_frac": (ratio(counts["c_div.lp"], counts["c_div.calls"]), "frac"),
        "kernels.c_div.wrong": (share("kernels.c_div.wrong"), "frac"),
        "kernels.c_div.raised": (share("kernels.c_div.raised"), "frac"),
        "kernels.c_div.timeout": (share("kernels.c_div.timeout"), "frac"),
        "simplex.lp_size": (ratio(counts["lp.size"], calls["simplex"]), "count"),
        "memory.three_time.self_ms":
            (1e3 * own["memory.three_time_freedom"] / n, "ms/op"),
        "dynamics.superop_evals": (counts["superop.evals"] / n, "evals/op"),
        "dynamics.superop_unique_frac":
            (ratio(counts["superop.unique"], counts["superop.evals"]), "frac"),
        "trace.overhead_frac":
            (sum(traced.latencies) / sum(plain.latencies) - 1.0, "frac"),
    })
    return metrics, both


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    module = importlib.import_module(WORKLOADS[args.workload])
    in_process = getattr(module, "IN_PROCESS", True)
    band_limit = getattr(module, "BAND_OP_LIMIT_S", OP_LIMIT_S)
    signal.signal(signal.SIGALRM, _interrupt)
    if in_process:
        import stoqlift
        if Path(stoqlift.__file__).resolve().parent != ROOT / "src" / "stoqlift":
            sys.stderr.write(f"stoqlift imported from {stoqlift.__file__}, "
                             f"not from {ROOT / 'src'}\n")
            return 2
    ctx = Context(args.seed, Path(args.outdir), bool(args.trace))
    ops, warmup = module.build(ctx)
    warm = Outcomes()
    for op in warmup:
        warm.add(op, *timed(op, band_limit))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        tracer = Tracer()
        plain, traced, interp, imported = traced_loop(
            ops, args.seconds, band_limit, tracer, in_process)
        metrics, done = per_layer(plain, traced, interp, imported, tracer)
        detail = {"traced_ops": traced.attempted, "spans": len(tracer.spans)}
        spans_file = ctx.outdir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8")
    else:
        sampler = hostspeed.Sampler()
        done = untraced_loop(ops, args.seconds, band_limit, sampler)
        metrics, detail = end_to_end(done, sampler)

    per_kind = {}
    for kind, seconds in zip(done.kinds, done.latencies):
        per_kind.setdefault(kind, []).append(seconds)
    detail.update({
        "inputs_sha256": ctx.digest.hexdigest(),
        "distinct_ops": len(ops),
        "op_ms_median_by_kind": {k: 1e3 * statistics.median(v)
                                 for k, v in sorted(per_kind.items())},
        "failure_codes": dict(done.codes),
        "raised_types": dict(done.raised),
        "tracebacks": done.tracebacks,
        "wrong": done.wrong,
        "warmup_failure_codes": dict(warm.codes),
        "env": envinfo.record(),
    })
    print(json.dumps({
        "ready": ready,
        "correct": done.failed == 0 and warm.failed == 0 and done.attempted > 0,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

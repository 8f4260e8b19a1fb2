"""stoqlift benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cli-files,lift-dense,divide,ck-families}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s`` (median of three fresh set-ups, each from process start to the
first timed op), ``ops_per_s``, ``op_ms.p50``/``op_ms.p90``, ``ok_frac``
and ``peak_rss_mb``; op times are divided by the host slowdown that
``hostspeed.py`` measures. With ``--trace 1`` it holds the per-layer metrics of a
traced run. Every run checks each op's output against the answer its input
has by construction. Details (environment, input digest, failure codes,
spans) go to ``perfbench/out/``. BLAS runs on one thread in every process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-files", "lift-dense", "divide", "ck-families")
#: Fresh set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Wall-time budget of one run, all workers included.
BUDGET_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(cmd, env, deadline):
    """Run a worker to completion and return its last stdout line as JSON;
    a worker still running at ``deadline`` (monotonic) is killed."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker killed after {timeout:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "stoqlift" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stoqlift sources under {ROOT / 'src'}\n")
        return 2
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir)]
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.trace:
            result = spawn(cmd, env, deadline)
        else:
            setups = []
            for i in range(SETUPS):
                start = time.monotonic()
                result = spawn(cmd + ["--setup-only"] * (i < SETUPS - 1), env, deadline)
                setups.append(result["ready"] - start)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
            result["detail"]["setup_s_samples"] = setups
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    detail = result["detail"]
    record = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    env_info = detail["env"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{detail['wrong']} wrong {detail['failure_codes']}, "
          f"{result['failed']} of them outside the known-defect band, "
          f"inputs sha256 {detail['inputs_sha256'][:16]}")
    print(f"python {env_info['python']} numpy {env_info['numpy']} scipy "
          f"{env_info['scipy']} {env_info['blas']} threads "
          f"{env_info['blas_threads']} nproc {env_info['nproc']} "
          f"{env_info['cpu_model']} {env_info['caches']}")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

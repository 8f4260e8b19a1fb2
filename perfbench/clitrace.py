"""Run the stoqlift CLI with layer tracing on, for traced cli-files ops.

Usage: ``python perfbench/clitrace.py SPANS_JSON [cli arguments...]``

Behaves like ``python -m stoqlift.cli`` (same stdout, stderr and exit code)
and writes the recorded spans and counts to SPANS_JSON when the CLI returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stoqlift.cli  # noqa: E402  (imported before tracing starts)

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return stoqlift.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts}),
            encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

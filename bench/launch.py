"""Run one apeuler CLI command with the benchmark's tracing wrappers installed.

    python bench/launch.py SPANS.npz CLI-ARGS...

Behaves like ``python -m apeuler.cli CLI-ARGS...`` (same output, same exit
code) and also writes every span to SPANS.npz and the span summary, the
import time of ``apeuler.cli`` and the tracer's own cost to SPANS.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import load_program


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    load_program()
    import apeuler.cli as cli

    import_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.job_id = 0
    tracer.install()
    tracing_s = time.perf_counter() - t1
    try:
        rc = cli.run(argv)
    finally:
        tracer.uninstall()
    t2 = time.perf_counter()
    tracer.dump(spans)
    summary = tracer.summary()
    tracing_s += time.perf_counter() - t2
    spans.with_suffix(".json").write_text(
        json.dumps({"summary": summary, "import_s": import_s, "tracing_s": tracing_s}))
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""The apeuler benchmark.

    python3 bench/run.py --workload {ap_sweep,families,cli_cold} --seed N --seconds S --trace {0,1}

Builds nothing: it imports apeuler from ``src/`` of the checkout it lives in
and exits 2 without a result when that is missing.  Human-readable lines
(every end-to-end metric with its unit, failures, per-job trace counts) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced for ``--seconds``;
with ``--trace 1`` they are the per-layer ones from one traced pass over the
workload's jobs (``--seconds`` is then unused).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import load_program


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("ap_sweep", "families", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
    except ImportError as e:
        print(f"error: cannot load the program: {e}", file=sys.stderr)
        return 2

    from workloads import run_workload

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

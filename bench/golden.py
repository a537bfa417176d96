"""Record the golden balls every benchmark check compares against.

    python3 bench/golden.py

Evaluates every value-returning job any seed of any workload can generate
(all ap residues for q in {1, 4, 8, 30, 101, 210}, every rational / multi
catalog entry, the demo grid) and writes bench/golden.json.  Run it only on a
commit whose values are trusted; later commits are checked against it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from common import ROOT, load_program


def main() -> int:
    apeuler = load_program()
    import jobs as J

    table = apeuler.sieve(10**6)
    shared = {}  # one LSeries per exponent keeps the q = 101 grid affordable
    balls = {}
    todo = J.golden_jobs()
    for i, (mode, spec) in enumerate(todo):
        ls = shared.setdefault((mode, tuple(spec["s"])), apeuler.LSeries(table))
        res = J.run_library(mode, spec, ls)
        balls[J.key(mode, spec)] = [res.value.real, res.value.imag, res.bound]
        if i % 50 == 0:
            print(f"{i}/{len(todo)}", file=sys.stderr, flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    header = {"recorded_at": f"apeuler at commit {commit or 'unknown'}",
              "format": "key -> [re, im, bound]; ap/rational/multi hold log_value and total_bound, "
                        "demo holds value and bound"}
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(balls.items()))
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(header)[:-1] + ', "balls": {\n' + body + "\n}}\n")
    print(f"wrote {len(balls)} balls to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

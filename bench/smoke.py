"""Smoke test of the benchmark itself, on tiny job lists (about half a minute).

    python3 bench/smoke.py

Checks that
  1. every metric BENCHMARK.json names is reported with its unit (end-to-end
     untraced, per-layer traced), and the printed-only ones appear in the text;
  2. a deliberately wrong value is caught by the checks and counted in
     failed_frac, and the run is reported incorrect;
  3. tracing wrappers are gone before any untraced timing starts: the timed
     loop refuses to start while a wrapper is installed, and traced runs
     leave none behind.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from common import ROOT, load_program


def main() -> int:
    load_program()
    import jobs as J
    from checks import Checker
    from spans import Tracer, leftover_wrappers
    from workloads import (PRINTED_ONLY_UNITS, WORKLOADS, CliRun, Outcome, Record, _cli_pass, _e2e_metrics,
                           _timed, check_cli, check_library, cli_jobs, run_workload)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    outcomes = {}

    # 1. every named metric, with its unit
    for name in WORKLOADS:
        for trace in (False, True):
            out = run_workload(name, seed=1, seconds=0.2, trace=trace, tiny=True)
            outcomes[name, trace] = out
            rep = out.report()
            declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {n: v["unit"] for n, v in rep["metrics"].items()}
            if got != declared:
                failures.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(declared))} "
                                f"or units differ from BENCHMARK.json")
            if not trace:
                for metric, unit in PRINTED_ONLY_UNITS.items():
                    if not any(ln.startswith(f"{metric} ") and f" {unit}" in ln for ln in out.lines):
                        failures.append(f"{name}: {metric} not printed with unit {unit}")
            if not rep["correct"] or rep["failed"]:
                failures.append(f"{name} trace={trace}: tiny run failed: {out.lines[-3:]}")
            if leftover_wrappers():
                failures.append(f"{name} trace={trace}: wrappers left installed")

    # 2. a wrong value is counted
    checker = Checker()
    recs = [dataclasses.replace(r, problems=[], wrong=False) for r in outcomes["ap_sweep", False].records]
    recs[0].result = J.Result(recs[0].result.value + 1e-3, recs[0].result.bound)
    check_library(recs, J.ap_sweep_jobs(1, tiny=True), checker)
    _, lines = _e2e_metrics(recs, 1.0, [0.1], 1024)
    frac = float(next(ln for ln in lines if ln.startswith("failed_frac ")).split()[1])
    if frac <= 0 or Outcome(recs, {}, {}, []).report()["correct"]:
        failures.append("a wrong library value was not counted in failed_frac")

    cli = cli_jobs(1, tiny=True)
    job = next(j for j in cli if j.check == "value")
    rec = _cli_pass([job])[0]
    payload = json.loads(rec.output.stdout)
    payload["log_value"][0] += 1e-3
    rec.output = CliRun(0, json.dumps(payload).encode(), b"")
    check_cli(job, rec, checker, None)
    if not (rec.problems and rec.wrong):
        failures.append("a wrong CLI value was not flagged")

    # 3. no untraced timing with wrappers installed
    tracer = Tracer()
    tracer.install()
    try:
        _timed(lambda: [Record("noop")], 0.0)
        failures.append("the timed loop started with tracing wrappers installed")
    except RuntimeError:
        pass
    finally:
        tracer.uninstall()
    if leftover_wrappers():
        failures.append(f"uninstall left wrappers: {leftover_wrappers()}")

    for f in failures:
        print(f"SMOKE FAIL: {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads, their timed loops, traced passes and correctness accounting.

Load is one client in a closed loop: the next job starts only after the
previous one returned.  A timed run repeats whole passes over the workload's
job list until ``seconds`` have passed (the pass running at the deadline
finishes and counts).  A traced run executes the job list exactly once, first
untraced and then traced, so its counts repeat exactly for a given seed.

* ``ap_sweep`` -- residue tables: one LSeries per pass, reused across every
  residue and modulus of the pass.
* ``families`` -- rational / multi / demo products, a fresh LSeries per job.
* ``cli_cold`` -- fresh ``python -m apeuler.cli`` processes, one at a time.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as J
from checks import ORACLE_LIMIT, Checker, witt_expected
from common import WORK, child_env, child_float, percentile, run_child
from spans import Tracer, layer_metrics, leftover_wrappers, merge

# Set-up samples, half before and half after the timed passes so that they do
# not all fall into one fast or slow phase of a shared CPU.
SETUP_REPEATS = 8
SETUP_LIBRARY = (
    "import time\nt0 = time.perf_counter()\nimport apeuler\n"
    "apeuler.LSeries(apeuler.sieve(10**6))\nprint(time.perf_counter() - t0)\n"
)
SETUP_CLI = "import time\nt0 = time.perf_counter()\nimport apeuler.cli\nprint(time.perf_counter() - t0)\n"
P90_MIN_JOBS = 100
CHILD_TIMEOUT = 120.0
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
# The known seed defect: Re s = 1.1 needs a 2.9e10 prime table (ROADMAP item 5(b)).
KNOWN_DEFECT = "ap s=1.1"

END_TO_END_UNITS = {"setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed with their units but not in the final JSON: on a shared VM a latency
# percentile lands in a fast or a slow CPU phase and swings 25-30% between
# runs; failed_frac is 0 and bound_log10_max constant on most workloads.
PRINTED_ONLY_UNITS = {"eval_ms_p50": "ms", "eval_ms_p90": "ms", "failed_frac": "ratio", "bound_log10_max": "log10"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".distinct", ".builds")):
        return "count"
    return "ratio" if name.endswith("ratio") else "s"


@dataclass
class CliRun:
    rc: int
    stdout: bytes
    stderr: bytes


@dataclass
class Record:
    """One executed job."""

    label: str
    mode: str = ""
    spec: dict = field(default_factory=dict)
    seconds: float = 0.0
    result: J.Result | None = None
    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # a returned output failed a check (not merely a refusal)
    output: CliRun | None = None  # cli_cold: what the process returned


@dataclass
class Outcome:
    records: list[Record]
    metrics: dict[str, float]
    units: dict[str, str]
    lines: list[str]

    def report(self) -> dict:
        failed = sum(1 for r in self.records if r.problems)
        return {
            "correct": not any(r.wrong for r in self.records),
            "attempted": len(self.records),
            "failed": failed,
            "metrics": {n: {"value": v, "unit": self.units[n]} for n, v in self.metrics.items()},
        }


def _guard_untraced() -> None:
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed before untraced timing: {left}")


def _label(mode: str, spec: dict) -> str:
    if mode == "ap":
        return f"ap s={complex(*spec['s'])} q={spec['q']} a={spec['a']}"
    if mode == "demo":
        return f"demo s={complex(*spec['s'])} n_max={spec['n_max']}"
    if mode == "multi":
        return f"multi k={len(spec['terms'])} q={spec['q']} a={spec['a']}"
    return f"rational q={spec['q']} a={spec['a']}"


def _bound_log10_max(records: list[Record]) -> float:
    bounds = [r.result.bound for r in records if r.result is not None]
    return math.log10(max(bounds)) if bounds and max(bounds) > 0 else float("nan")


def _timed(run_pass, seconds: float) -> tuple[list[Record], float]:
    """Closed loop of whole passes until ``seconds`` have passed.

    The pass running at the deadline finishes and counts, so every run
    measures whole passes of the same jobs, wherever the deadline falls.
    """
    _guard_untraced()
    records: list[Record] = []
    t_start = time.perf_counter()
    while True:
        records += run_pass()
        wall = time.perf_counter() - t_start
        if wall >= seconds:
            return records, wall


def _e2e_metrics(records: list[Record], wall: float, setup: list[float], rss_kb: int) -> tuple[dict, list[str]]:
    lat = [r.seconds * 1000 for r in records]
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": statistics.median(setup),
        "evals_per_s": len(records) / wall,
        "peak_rss_mb": rss_kb / 1024,
    }
    p90 = (f"eval_ms_p90 {percentile(lat, 90):.6g} ms ({len(lat)} samples)" if len(lat) >= P90_MIN_JOBS
           else f"eval_ms_p90 omitted ms ({len(lat)} < {P90_MIN_JOBS} jobs)")
    lines = [
        f"setup_s {metrics['setup_s']:.6g} s (median of {len(setup)} fresh interpreters)",
        f"evals_per_s {metrics['evals_per_s']:.6g} 1/s ({len(records)} jobs in {wall:.3f} s)",
        f"eval_ms_p50 {statistics.median(lat):.6g} ms ({len(lat)} samples)",
        p90,
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"failed_frac {failed / len(records):.6g} ratio ({failed}/{len(records)})",
        f"bound_log10_max {_bound_log10_max(records):.6g} log10",
    ]
    return metrics, lines


def _problem_lines(records: list[Record]) -> list[str]:
    seen: dict[tuple[str, str], int] = {}
    for r in records:
        for p in r.problems:
            seen[(r.label, p)] = seen.get((r.label, p), 0) + 1
    lines = []
    for (label, p), n in seen.items():
        note = " [known defect, ROADMAP item 5(b)]" if label == KNOWN_DEFECT else ""
        lines.append(f"FAILED x{n} {label}: {p}{note}")
    return lines


# ---------------------------------------------------------------- library workloads


def check_library(records: list[Record], job_list: list[tuple[str, dict]], checker: Checker) -> None:
    """Oracle, golden and residue-sum checks on every record that returned a ball."""
    first: dict[str, J.Result] = {}
    for r in records:
        if r.result is None:
            continue
        first.setdefault(J.key(r.mode, r.spec), r.result)
        bad = checker.check(r.mode, r.spec, r.result)
        r.problems += bad
        r.wrong |= bool(bad)
    for group, bad in checker.residue_sums(first, job_list).items():
        for r in records:
            if r.mode == "ap" and (tuple(r.spec["s"]), r.spec["q"], r.spec["P"], r.spec["L"]) == group:
                r.problems += bad
                r.wrong = True


def _library_pass(job_list, table, shared: bool, tracer: Tracer | None = None) -> list[Record]:
    """One pass over the jobs: one LSeries for the whole pass (ap_sweep) or one per job."""
    from apeuler import lseries

    ls = lseries.LSeries(table) if shared else None
    records = []
    for i, (mode, spec) in enumerate(job_list):
        if tracer is not None:
            tracer.job_id = i
            if not shared:
                tracer.new_context()
        rec = Record(_label(mode, spec), mode, spec)
        t0 = time.perf_counter()
        try:
            rec.result = J.run_library(mode, spec, ls if shared else lseries.LSeries(table))
        except Exception as e:  # the loop keeps running; the job counts as failed
            rec.problems.append(f"raised {type(e).__name__}: {e}")
        rec.seconds = time.perf_counter() - t0
        records.append(rec)
    return records


def _clear_program_caches() -> None:
    """Make a second pass as cold as the first: the module-level lru caches."""
    from apeuler import arith, characters

    characters.character_group.cache_clear()
    arith.divisors.cache_clear()


def _per_job_lines(tracer: Tracer, plain: list[Record]) -> tuple[list[str], list[dict]]:
    """Per-job counts of the traced pass, with the job's wall time from the untraced pass."""
    table = tracer.per_job(("lseries.hurwitz_zeta", "engine.y_p"))
    rows, lines = [], []
    for j, rec in enumerate(plain):
        hz = table.get(j, {}).get("lseries.hurwitz_zeta", [0, 0])
        yp = table.get(j, {}).get("engine.y_p", [0, 0])
        rows.append({"job": rec.label, "untraced_s": rec.seconds, "hurwitz_calls": hz[0],
                     "hurwitz_new_distinct": hz[1], "y_p_calls": yp[0], "y_p_new_distinct": yp[1]})
        lines.append(f"job {j:3d} {rec.label}: {rec.seconds * 1000:.1f} ms untraced, hurwitz {hz[0]} calls / "
                     f"{hz[1]} new distinct, y_p {yp[0]} calls / {yp[1]} new distinct")
    return lines, rows


def run_library_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    import apeuler

    job_list = (J.ap_sweep_jobs if name == "ap_sweep" else J.families_jobs)(seed, tiny)
    shared = name == "ap_sweep"
    lines = [f"workload {name} seed {seed} trace {int(trace)}: {len(job_list)} jobs per pass, "
             f"one client, closed loop"]
    if trace:
        from apeuler import arith

        t0 = time.perf_counter()
        plain = _library_pass(job_list, arith.sieve(10**6), shared)
        wall_plain = time.perf_counter() - t0
        _clear_program_caches()
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            records = _library_pass(job_list, arith.sieve(10**6), shared, tracer)
        finally:
            tracer.uninstall()
        wall_traced = time.perf_counter() - t0
        check_library(records, job_list, Checker())
        job_lines, rows = _per_job_lines(tracer, plain)
        tracer.dump(WORK / f"trace_{name}.npz")
        (WORK / f"trace_{name}.json").write_text(json.dumps({"summary": tracer.summary(), "jobs": rows}))
        metrics = layer_metrics(tracer.summary(), {}, wall_traced / wall_plain)
        lines += job_lines + [f"traced pass {wall_traced:.3f} s, untraced pass {wall_plain:.3f} s"]
        units = {n: layer_unit(n) for n in metrics}
    else:
        half = 1 if tiny else SETUP_REPEATS // 2
        setup = child_float(SETUP_LIBRARY, half)
        table = apeuler.sieve(10**6)
        records, wall = _timed(lambda: _library_pass(job_list, table, shared), seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup += child_float(SETUP_LIBRARY, half)
        check_library(records, job_list, Checker())
        metrics, e2e_lines = _e2e_metrics(records, wall, setup, rss)
        lines += e2e_lines
        units = dict(END_TO_END_UNITS)
    lines += _problem_lines(records)
    return Outcome(records, metrics, units, lines)


# ---------------------------------------------------------------- cli_cold


@dataclass(frozen=True)
class CliJob:
    label: str
    argv: tuple[str, ...]
    check: str = "exit"  # exit | value | characters | witt | replay
    expect: int = 0
    env: tuple[tuple[str, str], ...] = ()
    save: bool = False  # its stdout is the input of the replay job


REPLAY_SOURCE = WORK / "replay_source.json"


def cli_jobs(seed: int, tiny: bool = False) -> list[CliJob]:
    rng = random.Random(seed)
    a = {q: rng.choice(J.units(q)) for q in (4, 8, 30, 210)}
    rational_entry, multi_entry = rng.randrange(J.CATALOG), rng.randrange(J.CATALOG)

    def value(label, mode, spec, **kw):
        return CliJob(label, tuple(J.cli_argv(mode, spec)), "value", **kw)

    replay = CliJob("replay", ("--from-json", str(REPLAY_SOURCE)), "replay")
    if tiny:
        return [value("ap q=4", "ap", J.ap_spec(2, 4, a[4]), save=True), replay,
                CliJob("invalid residue", ("ap", "--q", "4", "--a", "2"), expect=2)]
    return [
        value("ap q=4", "ap", J.ap_spec(2, 4, a[4])),
        CliJob("characters q=101", ("characters", "--q", "101"), "characters"),
        value("ap q=30", "ap", J.ap_spec(2, 30, a[30]), save=True),
        CliJob("invalid residue", ("ap", "--q", "4", "--a", "2"), expect=2),
        value("rational", "rational", J.rational_spec(rational_entry, 4, 3)),
        CliJob(KNOWN_DEFECT, ("ap", "--s", "1.1", "--json"), "value"),
        value("demo", "demo", J.demo_spec(2, 30)),
        CliJob("witt", ("witt", "--poly", "1,-3,2", "--K", "6", "--json"), "witt"),
        # at s = 2 + 1e6 i no Euler-Maclaurin (N, M) within the ceilings reaches 1e-300
        CliJob("precision 1e-300", ("ap", "--s", "2,1e6"), expect=3, env=(("EULER_AP_EPS", "1e-300"),)),
        value("ap q=210", "ap", J.ap_spec(2, 210, a[210])),
        replay,
        CliJob("invalid rational", ("rational", "--F", "1,1"), expect=2),
        value("multi", "multi", J.multi_spec(multi_entry, 3, 5, 2)),
        CliJob("characters q=210", ("characters", "--q", "210", "--json"), "characters"),
        value("ap oracle", "ap", {**J.ap_spec(2, 8, a[8]), "oracle_limit": ORACLE_LIMIT}),
        CliJob("invalid s", ("ap", "--s", "abc"), expect=2),
    ]


def _spans_file(i: int) -> Path:
    return WORK / f"trace_cli_cold_{i:02d}.npz"


def _cli_pass(job_list: list[CliJob], traced: bool = False) -> list[Record]:
    """One pass: each job a fresh interpreter, started after the previous one exited."""
    records = []
    for i, job in enumerate(job_list):
        prefix = ([sys.executable, str(LAUNCHER), str(_spans_file(i))] if traced
                  else [sys.executable, "-m", "apeuler.cli"])
        rec = Record(job.label)
        t0 = time.perf_counter()
        try:
            proc = run_child(prefix + list(job.argv), child_env(dict(job.env)), CHILD_TIMEOUT)
            rec.output = CliRun(proc.returncode, proc.stdout, proc.stderr)
        except (subprocess.TimeoutExpired, OSError) as e:  # counted as failed, never hidden
            rec.output = CliRun(-1, b"", str(e).encode())
        rec.seconds = time.perf_counter() - t0
        if job.save and rec.output.rc == 0:
            REPLAY_SOURCE.parent.mkdir(parents=True, exist_ok=True)
            REPLAY_SOURCE.write_bytes(rec.output.stdout)
        records.append(rec)
    return records


def check_cli(job: CliJob, rec: Record, checker: Checker, replay_source: bytes | None) -> None:
    """Exit code first, then the output the job's check names."""
    run = rec.output
    if run.rc != job.expect:
        err = run.stderr.decode(errors="replace").strip().splitlines()
        rec.problems.append(f"exit {run.rc}, expected {job.expect}: {err[-1] if err else ''}")
        rec.wrong |= job.expect != 0 and run.rc == 0  # an invalid input produced an answer
        return
    bad: list[str] = []
    text = run.stdout.decode(errors="replace")
    if job.check == "value":
        payload = json.loads(text)
        rec.mode, rec.spec = payload["mode"], payload["spec"]
        rec.result = J.result_from_cli(payload)
        bad = checker.check(rec.mode, rec.spec, rec.result)
        if "oracle" in payload:
            o = payload["oracle"]
            if not o["delta"] <= payload["bound"] + o["tail_bound"]:
                bad.append(f"cli oracle delta {o['delta']:.3g} exceeds bound + tail")
    elif job.check == "characters":
        q = int(job.argv[job.argv.index("--q") + 1])
        phi = len(J.units(q))
        if "--json" in job.argv:
            chars = json.loads(text)["characters"]
            ok = len(chars) == phi and all(len(c["angles"]) == q for c in chars)
        else:
            ok = sum(1 for ln in text.splitlines() if ln.startswith("chi_")) == phi
        if not ok:
            bad.append(f"character table mod {q} does not have {phi} characters")
    elif job.check == "witt":
        k = int(job.argv[job.argv.index("--K") + 1])
        got = [complex(re, im) for re, im in json.loads(text)["b"]]
        if any(abs(g - e) > 1e-9 for g, e in zip(got, witt_expected(k))) or len(got) != k:
            bad.append(f"witt exponents {got} differ from necklace counts")
    elif job.check == "replay":
        if run.stdout != replay_source:
            bad.append("--from-json replay is not byte-identical")
    rec.problems += bad
    rec.wrong |= bool(bad)


def _check_cli_records(job_list: list[CliJob], records: list[Record], checker: Checker) -> None:
    source = None
    for i, rec in enumerate(records):
        job = job_list[i % len(job_list)]
        if job.save and rec.output.rc == 0:
            source = rec.output.stdout
        check_cli(job, rec, checker, source)


def run_cli_workload(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    job_list = cli_jobs(seed, tiny)
    lines = [f"workload cli_cold seed {seed} trace {int(trace)}: {len(job_list)} processes per pass, "
             f"one at a time, closed loop"]
    REPLAY_SOURCE.unlink(missing_ok=True)
    if trace:
        t0 = time.perf_counter()
        _cli_pass(job_list)
        wall_plain = time.perf_counter() - t0
        for old in WORK.glob("trace_cli_cold_*"):
            old.unlink()
        t0 = time.perf_counter()
        records = _cli_pass(job_list, traced=True)
        wall_traced = time.perf_counter() - t0
        sidecars = [json.loads(f.read_text()) if f.is_file() else None
                    for f in (_spans_file(i).with_suffix(".json") for i in range(len(job_list)))]
        summaries, imports, process, rows = [], 0.0, 0.0, []
        for job, rec, side in zip(job_list, records, sidecars):
            if side is None:  # the launcher died before writing its spans
                continue
            summ = side["summary"]
            summaries.append(summ)
            imports += side["import_s"]
            process += rec.seconds - side["import_s"] - summ["cli.execute_job"]["s"] - side["tracing_s"]
            row = {"job": job.label, "hurwitz_calls": summ["lseries.hurwitz_zeta"]["calls"],
                   "hurwitz_distinct": summ["lseries.hurwitz_zeta"]["distinct"],
                   "y_p_calls": summ["engine.y_p"]["calls"], "y_p_distinct": summ["engine.y_p"]["distinct"]}
            rows.append(row)
            lines.append(f"job {job.label}: hurwitz {row['hurwitz_calls']} calls / {row['hurwitz_distinct']} "
                         f"distinct, y_p {row['y_p_calls']} calls / {row['y_p_distinct']} distinct")
        _check_cli_records(job_list, records, Checker())
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / "trace_cli_cold.json").write_text(json.dumps({"summary": merge(summaries), "jobs": rows}))
        metrics = layer_metrics(merge(summaries), {"import_s": imports, "process_s": process},
                                wall_traced / wall_plain)
        lines.append(f"traced pass {wall_traced:.3f} s, untraced pass {wall_plain:.3f} s")
        units = {n: layer_unit(n) for n in metrics}
    else:
        half = 1 if tiny else SETUP_REPEATS // 2
        setup = child_float(SETUP_CLI, half)
        records, wall = _timed(lambda: _cli_pass(job_list), seconds)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup += child_float(SETUP_CLI, half)
        _check_cli_records(job_list, records, Checker())
        metrics, e2e_lines = _e2e_metrics(records, wall, setup, rss)
        lines += e2e_lines
        units = dict(END_TO_END_UNITS)
    lines += _problem_lines(records)
    return Outcome(records, metrics, units, lines)


WORKLOADS = ("ap_sweep", "families", "cli_cold")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    if name == "cli_cold":
        return run_cli_workload(seed, seconds, trace, tiny)
    return run_library_workload(name, seed, seconds, trace, tiny)

"""Paths, program loading and small statistics shared by the benchmark scripts."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch files (replay inputs, span dumps); listed in the root .gitignore.
WORK = ROOT / ".bench_work"


def load_program():
    """Import ``apeuler`` from this checkout's ``src/`` and nowhere else.

    Raises ImportError when the checkout has no sources, so the benchmark can
    never measure an installed copy by accident.
    """
    package = SRC / "apeuler"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no apeuler sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import apeuler

    if Path(apeuler.__file__).resolve().parent != package.resolve():
        raise ImportError(f"apeuler was imported from {apeuler.__file__}, not {package}")
    return apeuler


def child_env(extra: dict | None = None) -> dict:
    """Environment for child interpreters: this checkout's sources, default precision."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EULER_AP_EPS", None)
    env.update(extra or {})
    return env


def run_child(argv: list[str], env: dict, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one child process to completion; a child that overruns is killed and reaped."""
    return subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=timeout, check=False,
    )


def child_float(code: str, repeats: int) -> list[float]:
    """Run ``python -c code`` ``repeats`` times; each prints one float on its last line."""
    out = []
    for _ in range(repeats):
        proc = run_child([sys.executable, "-c", code], child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
        out.append(float(proc.stdout.decode().split()[-1]))
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]

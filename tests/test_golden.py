"""Regression against the balls recorded in bench/golden.json (read only).

For every job in ``golden_jobs()`` (every value-returning job any benchmark
seed can make: ap, rational, multi and demo), the ball returned now on one
shared LSeries must overlap the recorded one, and its bound may not be looser
than the recorded bound.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


J = _load_jobs()
GOLDEN = json.loads((BENCH / "golden.json").read_text())["balls"]
JOBS = J.golden_jobs()


@pytest.mark.parametrize("mode,spec", JOBS, ids=[J.key(m, s) for m, s in JOBS])
def test_within_golden_ball(ls6, mode, spec):
    re, im, golden_bound = GOLDEN[J.key(mode, spec)]
    got = J.run_library(mode, spec, ls6)
    assert abs(got.value - complex(re, im)) <= got.bound + golden_bound
    assert got.bound <= 1.000001 * golden_bound

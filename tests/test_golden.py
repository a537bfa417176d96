"""Regression against the balls recorded in bench/golden.json (read only).

For catalog entry 0 of every rational / multi shape and for every demo job of
the benchmark, the ball returned now must overlap the recorded one, and its
bound may not be looser than the recorded bound.
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
JOBS = (
    [("rational", J.rational_spec(0, q, a)) for q, a in J.RATIONAL_QA]
    + [("multi", J.multi_spec(0, k, q, a)) for k in J.MULTI_K for q, a in J.MULTI_QA]
    + [("demo", J.demo_spec(s, n)) for s in J.S_DEMO for n in J.NMAX_DEMO]
)


@pytest.mark.parametrize("mode,spec", JOBS, ids=[J.key(m, s) for m, s in JOBS])
def test_within_golden_ball(ls6, mode, spec):
    re, im, golden_bound = GOLDEN[J.key(mode, spec)]
    got = J.run_library(mode, spec, ls6)
    assert abs(got.value - complex(re, im)) <= got.bound + golden_bound
    assert got.bound <= 1.000001 * golden_bound

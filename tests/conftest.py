import importlib.util
import sys
from pathlib import Path

import pytest

from apeuler import LSeries, sieve


@pytest.fixture(scope="session")
def primes_1e6():
    return sieve(10**6)


@pytest.fixture(scope="session")
def primes_1e7():
    return sieve(10**7)


@pytest.fixture(scope="session")
def ls6(primes_1e6):
    return LSeries(primes_1e6)


@pytest.fixture(scope="session")
def ls7(primes_1e7):
    return LSeries(primes_1e7)


@pytest.fixture(scope="session")
def bench_jobs():
    """``bench/jobs.py``: the benchmark's job lists and its library runner."""
    mod = sys.modules.get("bench_jobs")
    if mod is None:
        path = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
        spec = importlib.util.spec_from_file_location("bench_jobs", path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # dataclasses look their module up there
        spec.loader.exec_module(mod)
    return mod

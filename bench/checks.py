"""Correctness checks, run outside the timed region.

Each returned value is checked three ways, all from the benchmark's side:

* against ``oracle_log_product`` at 10^7 primes, within bound + tail_bound;
* against a golden ball recorded at the seed commit (the balls must overlap);
* for every (q, s) whose full residue set was evaluated, the residue sum
  sum_a log_value = -log zeta_P(s) - sum_{p | q, p >= P} log(1 - p^-s),
  within the summed bounds.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

from jobs import Result, key, library_spec, units

ORACLE_LIMIT = 10**7
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _prime_factors(q: int) -> list[int]:
    return [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]


class Checker:
    """Memoizes the oracle per job and holds the sieve it needs."""

    def __init__(self):
        import apeuler

        self.apeuler = apeuler
        self.table = apeuler.sieve(ORACLE_LIMIT)
        self.ls = apeuler.LSeries(self.table)
        self.golden = json.loads(GOLDEN.read_text())["balls"] if GOLDEN.is_file() else {}
        self._oracle: dict[str, tuple[complex, float]] = {}

    def oracle(self, mode: str, spec: dict) -> tuple[complex, float]:
        k = key(mode, spec)
        if k not in self._oracle:
            orc = self.apeuler.oracle_log_product(library_spec(mode, spec), self.table, ORACLE_LIMIT)
            self._oracle[k] = (orc.log_value, orc.tail_bound)
        return self._oracle[k]

    def check(self, mode: str, spec: dict, res: Result) -> list[str]:
        """Problems with one returned ball; empty when it passes."""
        problems = []
        log_ref, tail = self.oracle(mode, spec)
        if mode == "demo":
            ref = cmath.exp(log_ref)
            slack = res.bound + abs(ref) * math.expm1(tail)
        else:
            ref, slack = log_ref, res.bound + tail
        if not abs(res.value - ref) <= slack:
            problems.append(f"oracle: |{res.value} - {ref}| > {slack:.3g}")
        ball = self.golden.get(key(mode, spec))
        if ball is not None:
            g = complex(ball[0], ball[1])
            if not abs(res.value - g) <= res.bound + ball[2]:
                problems.append(f"golden: |{res.value} - {g}| > {res.bound + ball[2]:.3g}")
        return problems

    def residue_sums(self, results: dict[str, Result], jobs: list[tuple[str, dict]]) -> dict[tuple, list[str]]:
        """Residue-sum problems per (s, q, P, L) whose every class is in ``results``."""
        groups: dict[tuple, list[str]] = {}
        for mode, spec in jobs:
            if mode == "ap":
                groups.setdefault((tuple(spec["s"]), spec["q"], spec["P"], spec["L"]), []).append(key(mode, spec))
        problems = {}
        for (s_pair, q, P, L), keys in groups.items():
            if len(set(keys)) != len(units(q)) or not all(k in results for k in keys):
                continue
            s = complex(*s_pair)
            total = sum(results[k].value for k in set(keys))
            bound = sum(results[k].bound for k in set(keys))
            zp = self.ls.zeta_p(s, P).log()
            target = -zp.value - sum(cmath.log(1 - p ** -s) for p in _prime_factors(q) if p >= P)
            if not abs(total - target) <= bound + zp.bound:
                problems[(s_pair, q, P, L)] = [
                    f"residue sum q={q} s={s}: |{total} - {target}| > {bound + zp.bound:.3g}"]
        return problems


def witt_expected(k_max: int) -> list[int]:
    """Exponents b(k) of (1 - t)(1 - 2t) = prod_k (1 - t^k)^b(k): necklace counts, plus 1 at k = 1."""
    def mu(n):
        out, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out
    necklaces = [sum(mu(k // d) * 2 ** d for d in range(1, k + 1) if k % d == 0) // k
                 for k in range(1, k_max + 1)]
    necklaces[0] += 1
    return necklaces


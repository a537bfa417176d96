"""Job specifications, seeded generators and the library runner.

A job is ``(mode, spec)`` with ``spec`` in exactly the JSON form the apeuler
CLI writes, so library results, CLI outputs and golden balls share one key.
Seeded choices draw from finite catalogs, so the golden file can hold a ball
for every job any seed can produce.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

S_SWEEP = (2 + 0j, 1.5 + 3j)  # ap_sweep exponents
S_DEMO = (2 + 0j, 1.5 + 2j)
NMAX_DEMO = (30, 60)
FULL_Q = (1, 4, 8, 30)  # every residue class is swept
SAMPLED_Q = {101: 2, 210: 3}  # residue 1 plus seeded others, this many in all
RATIONAL_QA = ((1, 1), (4, 3), (8, 5))
MULTI_QA = ((1, 1), (5, 2))
MULTI_K = (2, 3)
CATALOG = 8  # coefficient sets per product family
MULTI_UV = ((1.0, 0.0), (2.0, -1.0), (3.0, -1.0))  # exponents u*s + v of the terms


@dataclass(frozen=True)
class Result:
    """A returned ball: log value and total bound, or for ``demo`` the value and its bound."""

    value: complex
    bound: float


def units(q: int) -> list[int]:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1] if q > 1 else [1]


def key(mode: str, spec: dict) -> str:
    """Canonical golden/memo key; the oracle request is not part of the value."""
    return json.dumps([mode, {k: v for k, v in spec.items() if k != "oracle_limit"}], sort_keys=True)


def _cx(z: complex) -> list[float]:
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def ap_spec(s: complex, q: int, a: int, P: int = 2, L: int = 10) -> dict:
    return {"s": _cx(s), "q": q, "a": a, "P": P, "L": L}


def demo_spec(s: complex, n_max: int, L: int = 10) -> dict:
    return {"s": _cx(s), "n_max": n_max, "L": L}


def _phased(rng: random.Random, moduli: tuple[float, ...]) -> list[complex]:
    # Seeded phases on fixed moduli: the skip rule and the Lambert cut see the
    # same magnitudes on every seed, so every catalog entry costs about the same.
    return [cmath.rect(r, rng.uniform(0, 2 * math.pi)) for r in moduli]


def rational_spec(entry: int, q: int, a: int) -> dict:
    """F = f2 z^2 + f3 z^3, G = 1 + g1 z + g2 z^2 with 2*beta <= 4 < P = 5."""
    f2, f3, g1, g2 = _phased(random.Random(1000 + entry), (0.6, 0.3, 0.3, 0.2))
    return {"s": [2.0, 0.0], "q": q, "a": a, "P": 5, "L": 10,
            "F": [[0.0, 0.0], [0.0, 0.0], _cx(f2), _cx(f3)],
            "G": [[1.0, 0.0], _cx(g1), _cx(g2)]}


def multi_spec(entry: int, k: int, q: int, a: int) -> dict:
    """k terms a_l p^-(u_l s + v_l) with |a_l| < 1, so P = 7 >= 2k."""
    coeffs = _phased(random.Random(2000 + entry), (0.9, 0.6, 0.4))
    terms = [[*_cx(c), u, v] for c, (u, v) in zip(coeffs, MULTI_UV)][:k]
    return {"s": [2.0, 0.0], "q": q, "a": a, "P": 7, "L": 8, "terms": terms}


def sampled_residues(rng: random.Random, q: int, count: int) -> list[int]:
    """Residue 1 (the CLI default, and the same cold cost on every seed) plus seeded others."""
    return [1] + rng.sample(units(q)[1:], count - 1)


def ap_sweep_jobs(seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    if tiny:
        return [("ap", ap_spec(2, q, a)) for q in (1, 4, 8) for a in units(q)]
    samples = {q: sampled_residues(rng, q, n) for q, n in SAMPLED_Q.items()}
    residues = {q: units(q) for q in FULL_Q} | samples
    return [("ap", ap_spec(s, q, a)) for s in S_SWEEP for q, rs in residues.items() for a in rs]


def families_jobs(seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    if tiny:
        return [("demo", demo_spec(2, 30)), ("rational", rational_spec(rng.randrange(CATALOG), 1, 1))]
    jobs = [("demo", demo_spec(s, n)) for s in S_DEMO for n in NMAX_DEMO]
    jobs += [("multi", multi_spec(rng.randrange(CATALOG), k, q, a)) for k in MULTI_K for q, a in MULTI_QA]
    jobs += [("rational", rational_spec(rng.randrange(CATALOG), q, a)) for q, a in RATIONAL_QA]
    return jobs


def golden_jobs() -> list[tuple[str, dict]]:
    """Every value-returning job any seed can generate, in any workload."""
    jobs = [("ap", ap_spec(s, q, a)) for s in S_SWEEP for q in FULL_Q + tuple(SAMPLED_Q) for a in units(q)]
    jobs += [("demo", demo_spec(s, n)) for s in S_DEMO for n in NMAX_DEMO]
    jobs += [("rational", rational_spec(e, q, a)) for e in range(CATALOG) for q, a in RATIONAL_QA]
    jobs += [("multi", multi_spec(e, k, q, a)) for e in range(CATALOG) for k in MULTI_K for q, a in MULTI_QA]
    return jobs


def library_spec(mode: str, spec: dict):
    """The apeuler spec object for a product job; ``demo`` maps to its multi-term product."""
    import apeuler

    s = complex(*spec["s"])
    if mode == "ap":
        return apeuler.APProductSpec(s=s, q=spec["q"], a=spec["a"], p_min=spec["P"], depth=spec["L"])
    if mode == "rational":
        poly = apeuler.Polynomial.of
        return apeuler.RationalProductSpec(
            f=poly([complex(*c) for c in spec["F"]]), g=poly([complex(*c) for c in spec["G"]]),
            q=spec["q"], a=spec["a"], p_min=spec["P"], depth=spec["L"])
    if mode == "multi":
        return apeuler.MultiTermSpec(
            terms=tuple((complex(re, im), u, v) for re, im, u, v in spec["terms"]),
            s=s, q=spec["q"], a=spec["a"], p_min=spec["P"], depth=spec["L"])
    if mode == "demo":
        return apeuler.MultiTermSpec(terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)),
                                     s=s, q=1, a=1, p_min=2, depth=spec["L"])
    raise ValueError(f"unknown mode {mode!r}")


def run_library(mode: str, spec: dict, ls) -> Result:
    """Evaluate one job through the public API.

    Functions are looked up on ``apeuler.engine`` at call time so that a
    traced run sees its wrappers.
    """
    from apeuler import engine

    if mode == "demo":
        res = engine.continuation_demo(complex(*spec["s"]), spec["n_max"], ls, depth=spec["L"])
        return Result(res.value, res.bound)
    run = {"ap": engine.ap_product, "rational": engine.rational_product,
           "multi": engine.multi_term_product}[mode]
    res = run(library_spec(mode, spec), ls)
    return Result(res.log_value, res.total_bound)


def result_from_cli(payload: dict) -> Result:
    """The ball a CLI ``--json`` payload reports, in the same form as ``run_library``."""
    field = "value" if payload["mode"] == "demo" else "log_value"
    return Result(complex(*payload[field]), payload["bound"])


def _num(x: float) -> str:
    return repr(float(x))


def _cx_arg(c: list[float]) -> str:
    return f"({_num(c[0])},{_num(c[1])})"


def cli_argv(mode: str, spec: dict) -> list[str]:
    """CLI arguments that make the CLI write exactly ``spec`` back in its JSON."""
    if mode == "demo":
        return ["demo", "--s", f"{_num(spec['s'][0])},{_num(spec['s'][1])}",
                "--nmax", str(spec["n_max"]), "--L", str(spec["L"]), "--json"]
    argv = [mode, "--s", f"{_num(spec['s'][0])},{_num(spec['s'][1])}", "--q", str(spec["q"]),
            "--a", str(spec["a"]), "--P", str(spec["P"]), "--L", str(spec["L"])]
    if mode == "rational":
        argv += ["--F", ",".join(map(_cx_arg, spec["F"])), "--G", ",".join(map(_cx_arg, spec["G"]))]
    if mode == "multi":
        argv.append("--terms=" + ";".join(",".join(map(_num, t)) for t in spec["terms"]))
    if "oracle_limit" in spec:
        argv += ["--check-oracle", str(spec["oracle_limit"])]
    return argv + ["--json"]

"""Command-line front end.

Subcommands: ap, rational, multi, demo, oracle, witt, characters.  Complex
numbers are written "re,im" (or just "re"); polynomials as comma-separated
ascending coefficients with optional "(re,im)" entries; multi-term payloads
as "a_re,a_im,u,v;..." groups.  Set EULER_AP_EPS to override the default
evaluation target of 1e-14.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

import numpy as np

from .arith import PrimeTable, sieve
from .characters import character_group
from .engine import (
    APProductSpec,
    MultiTermSpec,
    RationalProductSpec,
    ap_product,
    continuation_demo,
    multi_term_product,
    rational_product,
)
from .errors import (
    InvalidArgumentError,
    InvalidSpecError,
    OutOfDomainError,
    PrecisionUnreachableError,
)
from .lseries import EvalParams, LSeries
from .oracle import oracle_log_product
from .witt import Polynomial, witt_b

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_PRECISION = 3


def _parse_complex(text: str) -> list[float]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return [float(parts[0]), 0.0]
        if len(parts) == 2:
            return [float(parts[0]), float(parts[1])]
    except ValueError:
        pass
    raise InvalidArgumentError(f"cannot parse complex number {text!r} (want 're' or 're,im')")


def _parse_poly(text: str) -> list[list[float]]:
    # split on commas that are not inside parentheses
    entries, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            entries.append(cur)
            cur = ""
        else:
            cur += ch
    entries.append(cur)
    out = []
    for e in entries:
        e = e.strip()
        if e.startswith("(") and e.endswith(")"):
            out.append(_parse_complex(e[1:-1]))
        else:
            try:
                out.append([float(e), 0.0])
            except ValueError:
                raise InvalidArgumentError(f"cannot parse polynomial entry {e!r}")
    return out


def _parse_terms(text: str) -> list[list[float]]:
    out = []
    for group in text.split(";"):
        parts = group.split(",")
        if len(parts) != 4:
            raise InvalidArgumentError(
                f"term {group!r} must be 'a_re,a_im,u,v'"
            )
        try:
            out.append([float(p) for p in parts])
        except ValueError:
            raise InvalidArgumentError(f"cannot parse term {group!r}")
    return out


def _poly_from_spec(entries) -> Polynomial:
    return Polynomial.of([complex(re, im) for re, im in entries])


def _params_from_env() -> EvalParams:
    raw = os.environ.get("EULER_AP_EPS")
    if raw is None:
        return EvalParams()
    try:
        eps = float(raw)
    except ValueError:
        raise InvalidArgumentError(f"EULER_AP_EPS={raw!r} is not a number")
    if eps <= 0:
        raise InvalidArgumentError("EULER_AP_EPS must be positive")
    return EvalParams(target_eps=eps)


def _make_lseries(p_min: int, oracle_limit: int | None) -> tuple[LSeries, PrimeTable]:
    limit = max(10**6, 4 * p_min, oracle_limit or 0)
    table = sieve(limit)
    return LSeries(table, _params_from_env()), table


def _cvec(z: complex) -> list[float]:
    return [z.real, z.imag]


def _build_spec(mode: str, spec: dict):
    if mode == "ap":
        return APProductSpec(
            s=complex(*spec["s"]), q=spec["q"], a=spec["a"],
            p_min=spec["P"], depth=spec["L"],
        )
    if mode == "rational":
        return RationalProductSpec(
            f=_poly_from_spec(spec["F"]), g=_poly_from_spec(spec["G"]),
            q=spec["q"], a=spec["a"], p_min=spec["P"], depth=spec["L"],
        )
    if mode == "multi":
        return MultiTermSpec(
            terms=tuple((complex(a_re, a_im), u, v) for a_re, a_im, u, v in spec["terms"]),
            s=complex(*spec["s"]), q=spec["q"], a=spec["a"],
            p_min=spec["P"], depth=spec["L"],
        )
    raise InvalidArgumentError(f"unknown product mode {mode!r}")


def execute_job(mode: str, spec: dict) -> dict:
    """Run one job from its JSON-serializable spec; returns the output payload."""
    out: dict = {"mode": mode, "spec": spec}

    if mode == "witt":
        poly = _poly_from_spec(spec["poly"])
        bs = witt_b(poly, spec["K"])
        out["b"] = [_cvec(b) for b in bs]
        return out

    if mode == "characters":
        grp = character_group(spec["q"])
        # Table entry k is the angle k/lambda, reduced; -1 picks the trailing None.
        k = np.arange(grp.exponent)
        g = np.gcd(k, grp.exponent)
        labels = [f"{n}/{d}" for n, d in zip((k // g).tolist(), (grp.exponent // g).tolist())]
        labels.append(None)
        out["characters"] = [
            {"order": chi.order, "angles": [labels[e] for e in row]}
            for chi, row in zip(grp.characters, grp.table.tolist())
        ]
        return out

    oracle_limit = spec.get("oracle_limit")

    if mode == "demo":
        ls, table = _make_lseries(2, oracle_limit)
        res = continuation_demo(complex(*spec["s"]), spec["n_max"], ls, depth=spec.get("L", 10))
        out["value"] = _cvec(res.value)
        out["log_value"] = _cvec(cmath.log(res.value))
        out["bound"] = res.bound
        if oracle_limit:
            prod = MultiTermSpec(
                terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)),
                s=complex(*spec["s"]), q=1, a=1, p_min=2, depth=spec.get("L", 10),
            )
            orc = oracle_log_product(prod, table, oracle_limit)
            out["oracle"] = {
                "log_value": _cvec(orc.log_value),
                "tail_bound": orc.tail_bound,
                "delta": abs(res.value - cmath.exp(orc.log_value)),
            }
        return out

    if mode == "oracle":
        product = _build_spec(spec["kind"], spec)
        product.validate()
        _, table = _make_lseries(product.p_min, spec["limit"])
        orc = oracle_log_product(product, table, spec["limit"])
        out["log_value"] = _cvec(orc.log_value)
        out["value"] = _cvec(cmath.exp(orc.log_value))
        out["bound"] = orc.tail_bound
        return out

    product = _build_spec(mode, spec)
    product.validate()
    ls, table = _make_lseries(product.p_min, oracle_limit)
    if mode == "ap":
        res = ap_product(product, ls)
    elif mode == "rational":
        res = rational_product(product, ls)
    else:
        res = multi_term_product(product, ls)
    out["value"] = _cvec(res.value)
    out["log_value"] = _cvec(res.log_value)
    out["bound"] = res.total_bound
    if oracle_limit:
        orc = oracle_log_product(product, table, oracle_limit)
        out["oracle"] = {
            "log_value": _cvec(orc.log_value),
            "tail_bound": orc.tail_bound,
            "delta": abs(res.log_value - orc.log_value),
        }
    return out


def _emit(out: dict, as_json: bool, stream=None) -> None:
    stream = stream or sys.stdout
    if as_json:
        print(json.dumps(out), file=stream)
        return
    mode = out["mode"]
    if mode == "witt":
        bs = ", ".join(f"{re:.12g}{im:+.12g}i" if im else f"{re:.12g}" for re, im in out["b"])
        print(f"b = [{bs}]", file=stream)
        return
    if mode == "characters":
        for i, chi in enumerate(out["characters"]):
            angles = " ".join("." if a is None else a for a in chi["angles"])
            print(f"chi_{i} (order {chi['order']}): {angles}", file=stream)
        return
    v = out["value"]
    lv = out["log_value"]
    print(f"value     = {v[0]:.15g} {v[1]:+.15g}i", file=stream)
    print(f"log_value = {lv[0]:.15g} {lv[1]:+.15g}i", file=stream)
    print(f"bound     = {out['bound']:.6g}", file=stream)
    if "oracle" in out:
        o = out["oracle"]
        print(
            f"oracle    = {o['log_value'][0]:.15g} {o['log_value'][1]:+.15g}i"
            f"  (tail {o['tail_bound']:.3g}, delta {o['delta']:.3g})",
            file=stream,
        )


def _add_product_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", default="2", help="complex exponent 're,im'")
    p.add_argument("--q", type=int, default=1, help="modulus")
    p.add_argument("--a", type=int, default=1, help="residue class, gcd(a,q)=1")
    p.add_argument("--P", type=int, default=2, help="first prime included")
    p.add_argument("--L", type=int, default=10, help="truncation depth")
    p.add_argument("--check-oracle", type=int, metavar="LIMIT",
                   help="also run the brute-force product over primes <= LIMIT")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="apeuler", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ap", help="prod (1 - p^-s) over p = a mod q, p >= P")
    _add_product_flags(p)

    p = sub.add_parser("rational", help="prod (1 - F(1/p)/G(1/p))")
    _add_product_flags(p)
    p.add_argument("--F", required=True, help="F coefficients, ascending")
    p.add_argument("--G", default="1", help="G coefficients, ascending")

    p = sub.add_parser("multi", help="prod (1 - sum_l a_l p^-(u_l s + v_l))")
    _add_product_flags(p)
    p.add_argument("--terms", required=True, help="'a_re,a_im,u,v;...'")

    p = sub.add_parser("demo", help="analytic-continuation style rebuild of prod (1 + p^-s - p^-(2s-1))")
    p.add_argument("--s", default="2")
    p.add_argument("--nmax", type=int, default=30, help="largest m1 + 2*m2 kept")
    p.add_argument("--L", type=int, default=10)
    p.add_argument("--check-oracle", type=int, metavar="LIMIT")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="brute-force product only")
    _add_product_flags(p)
    p.add_argument("--F", help="switches to the rational product")
    p.add_argument("--G", default="1")
    p.add_argument("--terms", help="switches to the multi-term product")
    p.add_argument("--limit", type=int, required=True, help="largest prime summed")

    p = sub.add_parser("witt", help="necklace-factorization exponents of a polynomial")
    p.add_argument("--poly", required=True, help="coefficients, ascending, constant 1")
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("characters", help="list the character table mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")

    return ap


def _spec_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    mode = args.command
    if mode == "witt":
        return mode, {"poly": _parse_poly(args.poly), "K": args.K}
    if mode == "characters":
        return mode, {"q": args.q}
    if mode == "demo":
        spec = {"s": _parse_complex(args.s), "n_max": args.nmax, "L": args.L}
        if args.check_oracle:
            spec["oracle_limit"] = args.check_oracle
        return mode, spec
    spec = {
        "s": _parse_complex(args.s),
        "q": args.q,
        "a": args.a,
        "P": args.P,
        "L": args.L,
    }
    if mode == "oracle":
        if args.terms:
            spec["kind"] = "multi"
            spec["terms"] = _parse_terms(args.terms)
        elif args.F:
            spec["kind"] = "rational"
            spec["F"] = _parse_poly(args.F)
            spec["G"] = _parse_poly(args.G)
        else:
            spec["kind"] = "ap"
        spec["limit"] = args.limit
        return mode, spec
    if mode == "rational":
        spec["F"] = _parse_poly(args.F)
        spec["G"] = _parse_poly(args.G)
    if mode == "multi":
        spec["terms"] = _parse_terms(args.terms)
    if getattr(args, "check_oracle", None):
        spec["oracle_limit"] = args.check_oracle
    return mode, spec


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "--from-json":
            if len(argv) < 2:
                raise InvalidArgumentError("--from-json requires a file path")
            with open(argv[1]) as fh:
                previous = json.load(fh)
            out = execute_job(previous["mode"], previous["spec"])
            _emit(out, as_json=True)
            return _EXIT_OK
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        mode, spec = _spec_from_args(args)
        out = execute_job(mode, spec)
        _emit(out, as_json=getattr(args, "json", False))
        return _EXIT_OK
    except PrecisionUnreachableError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PRECISION
    except (InvalidArgumentError, OutOfDomainError, InvalidSpecError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

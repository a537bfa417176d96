"""Command-line front end.

Subcommands: ap, rational, multi, demo, oracle, witt, characters.  Complex
numbers are written "re,im" (or just "re"); polynomials as comma-separated
ascending coefficients with optional "(re,im)" entries; multi-term payloads
as "a_re,a_im,u,v;..." groups.  Set EULER_AP_EPS to override the default
evaluation target of 1e-14.

The job spec that --json echoes is the parsed command line itself: each
flag's argparse dest is its spec key (--nmax is n_max, --check-oracle is
oracle_limit).  --from-json replays a saved spec through the same spec
builder as the command line.  The argparse types only parse; the spec
readers are the one check of every value, so a non-finite number exits 2
naming its spec field, on the command line and in a replay alike.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from .arith import check_sieve_limit, sieve
from .characters import character_group
from .engine import (
    _DEMO_TERMS,
    APProductSpec,
    MultiTermSpec,
    RationalProductSpec,
    ap_product,
    continuation_demo,
    multi_term_product,
    rational_product,
)
from .errors import InvalidArgumentError, PrecisionUnreachableError
from .lseries import EvalParams, LSeries
from .oracle import oracle_log_product
from .witt import Polynomial, witt_b

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_PRECISION = 3
_PRODUCTS = ("ap", "rational", "multi")  # the product families; the oracle's kinds


# Command-line parsers: argparse types that produce JSON spec values.


def _parse_complex(text: str) -> list[float]:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return [float(p) for p in parts] + [0.0] * (2 - len(parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"cannot parse complex number {text!r} (want 're' or 're,im')"
    )


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
                raise argparse.ArgumentTypeError(f"cannot parse polynomial entry {e!r}")
    return out


def _parse_terms(text: str) -> list[list[float]]:
    out = []
    for group in text.split(";"):
        parts = group.split(",")
        if len(parts) != 4:
            raise argparse.ArgumentTypeError(f"term {group!r} must be 'a_re,a_im,u,v'")
        try:
            out.append([float(p) for p in parts])
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse term {group!r}")
    return out


def _parse_oracle_limit(text: str) -> int | None:
    """--check-oracle 0 runs no oracle and leaves the spec as if the flag were absent."""
    return int(text) or None


# Spec readers: a JSON spec value to a library value, raising TypeError or
# ValueError on a wrong type or shape.


def _int(x) -> int:
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _real(x) -> float:
    if type(x) not in (int, float) or not math.isfinite(x):
        raise TypeError(f"{x!r} is not a finite number")
    return x


def _complex(x) -> complex:
    re, im = x
    return complex(_real(re), _real(im))


def _poly(x) -> Polynomial:
    return Polynomial.of([_complex(c) for c in x])


def _terms(x) -> tuple[tuple[complex, float, float], ...]:
    return tuple((complex(_real(re), _real(im)), _real(u), _real(v)) for re, im, u, v in x)


def _kind(x) -> str:
    if x not in _PRODUCTS:
        raise ValueError(f"{x!r} is not one of {_PRODUCTS}")
    return x


def _read(spec: dict, key: str, reader=_int, default=None):
    """reader(spec[key]), or the default if one is given and the key is absent.

    A missing or malformed field is an InvalidArgumentError.
    """
    if key not in spec and default is not None:
        return default
    try:
        return reader(spec[key])
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidArgumentError(f"spec field {key!r}: {'missing' if key not in spec else e}") from None


def _params_from_env() -> EvalParams:
    raw = os.environ.get("EULER_AP_EPS")
    if raw is None:
        return EvalParams()
    try:
        return EvalParams(target_eps=float(raw))
    except ValueError as e:  # not a number, or refused by EvalParams
        raise InvalidArgumentError(f"EULER_AP_EPS={raw!r}: {e}") from None


def _make_lseries(p_min: int, oracle_limit: int | None) -> LSeries:
    """An LSeries over the primes up to max(10^6, 4P).

    The table does not depend on the oracle limit (None for no oracle): the
    oracle reads the LSeries' table and sieves the primes past it one segment
    at a time.  A limit the oracle refuses is refused here, before any table
    exists.
    """
    if oracle_limit is not None:
        check_sieve_limit(oracle_limit, "prime_limit")
    return LSeries(sieve(max(10**6, 4 * p_min)), _params_from_env())


def _cvec(z: complex) -> list[float]:
    return [z.real, z.imag]


def _build_spec(mode: str, spec: dict):
    """The validated library spec of a JSON spec, and a call ls -> (value, log_value, bound).

    The demo's library spec is its multi-term product, read by the oracle only.
    Engine functions are looked up here, at run time, so wrappers put in this
    module's namespace see every call.
    """
    if mode == "demo":
        s, n_max, depth = _read(spec, "s", _complex), _read(spec, "n_max"), _read(spec, "L", default=10)

        def evaluate(ls: LSeries):
            res = continuation_demo(s, n_max, ls, depth=depth)
            return res.value, cmath.log(res.value), res.bound

        return MultiTermSpec(terms=_DEMO_TERMS, s=s, depth=depth), evaluate
    if mode not in _PRODUCTS:
        raise InvalidArgumentError(f"unknown product mode {mode!r}")
    common = dict(q=_read(spec, "q"), a=_read(spec, "a"), p_min=_read(spec, "P"), depth=_read(spec, "L"))
    if mode == "ap":
        product, family = APProductSpec(s=_read(spec, "s", _complex), **common), ap_product
    elif mode == "rational":
        product = RationalProductSpec(f=_read(spec, "F", _poly), g=_read(spec, "G", _poly), **common)
        family = rational_product
    else:
        product = MultiTermSpec(terms=_read(spec, "terms", _terms), s=_read(spec, "s", _complex), **common)
        family = multi_term_product
    product.validate()

    def evaluate(ls: LSeries):
        res = family(product, ls)
        return res.value, res.log_value, res.total_bound

    return product, evaluate


def execute_job(mode: str, spec: dict) -> dict:
    """Run one job from its JSON-serializable spec; returns the output payload."""
    out: dict = {"mode": mode, "spec": spec}

    if mode == "witt":
        bs = witt_b(_read(spec, "poly", _poly), _read(spec, "K"))
        out["b"] = [_cvec(b) for b in bs]
        return out

    if mode == "characters":
        grp = character_group(_read(spec, "q"))
        # Angle k is k/lambda of a turn, reduced; -1 picks the trailing None.
        k = np.arange(grp.exponent)
        g = np.gcd(k, grp.exponent)
        labels = [f"{n}/{d}" for n, d in zip((k // g).tolist(), (grp.exponent // g).tolist())]
        labels.append(None)
        out["characters"] = [
            {"order": chi.order, "angles": [labels[e] for e in row]}
            for chi, row in zip(grp.characters, grp.angles(np.arange(len(grp)), np.arange(grp.modulus)).tolist())
        ]
        return out

    if mode == "oracle":
        product, _ = _build_spec(_read(spec, "kind", _kind), spec)
        limit = _read(spec, "limit")
        orc = oracle_log_product(product, _make_lseries(product.p_min, limit).primes, limit)
        out["log_value"] = _cvec(orc.log_value)
        out["value"] = _cvec(cmath.exp(orc.log_value))
        out["bound"] = orc.tail_bound
        return out

    product, evaluate = _build_spec(mode, spec)
    oracle_limit = _read(spec, "oracle_limit", default=0)
    ls = _make_lseries(product.p_min, oracle_limit or None)
    value, log_value, bound = evaluate(ls)
    out["value"] = _cvec(value)
    out["log_value"] = _cvec(log_value)
    out["bound"] = bound
    if oracle_limit:
        orc = oracle_log_product(product, ls.primes, oracle_limit)
        out["oracle"] = {
            "log_value": _cvec(orc.log_value),
            "tail_bound": orc.tail_bound,
            # the demo bounds its value, the product families their log
            "delta": abs(value - cmath.exp(orc.log_value)) if mode == "demo"
            else abs(log_value - orc.log_value),
        }
    return out


def _emit(out: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(out))
        return
    mode = out["mode"]
    if mode == "witt":
        bs = ", ".join(f"{re:.12g}{im:+.12g}i" if im else f"{re:.12g}" for re, im in out["b"])
        print(f"b = [{bs}]")
        return
    if mode == "characters":
        for i, chi in enumerate(out["characters"]):
            angles = " ".join("." if a is None else a for a in chi["angles"])
            print(f"chi_{i} (order {chi['order']}): {angles}")
        return
    v = out["value"]
    lv = out["log_value"]
    print(f"value     = {v[0]:.15g} {v[1]:+.15g}i")
    print(f"log_value = {lv[0]:.15g} {lv[1]:+.15g}i")
    print(f"bound     = {out['bound']:.6g}")
    if "oracle" in out:
        o = out["oracle"]
        print(
            f"oracle    = {o['log_value'][0]:.15g} {o['log_value'][1]:+.15g}i"
            f"  (tail {o['tail_bound']:.3g}, delta {o['delta']:.3g})"
        )


def _add_product_parser(sub, name: str, help: str, parents: list, **family) -> argparse.ArgumentParser:
    """A subcommand with the shared product flags, then the family's own."""
    p = sub.add_parser(name, help=help, parents=parents)
    p.add_argument("--s", type=_parse_complex, default="2", help="complex exponent 're,im'")
    p.add_argument("--q", type=int, default=1, help="modulus")
    p.add_argument("--a", type=int, default=1, help="residue class, gcd(a,q)=1")
    p.add_argument("--P", type=int, default=2, help="first prime included")
    p.add_argument("--L", type=int, default=10, help="truncation depth")
    for flag, kwargs in family.items():
        p.add_argument(f"--{flag}", **kwargs)
    return p


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="apeuler", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    parents = [argparse.ArgumentParser(add_help=False)]
    parents[0].add_argument("--json", action="store_true", help="machine-readable output")

    checked = [  # the subcommands that take --check-oracle
        _add_product_parser(sub, "ap", "prod (1 - p^-s) over p = a mod q, p >= P", parents),
        _add_product_parser(
            sub, "rational", "prod (1 - F(1/p)/G(1/p))", parents,
            F=dict(type=_parse_poly, required=True, help="F coefficients, ascending"),
            G=dict(type=_parse_poly, default="1", help="G coefficients, ascending"),
        ),
        _add_product_parser(
            sub, "multi", "prod (1 - sum_l a_l p^-(u_l s + v_l))", parents,
            terms=dict(type=_parse_terms, required=True, help="'a_re,a_im,u,v;...'"),
        ),
    ]

    p = sub.add_parser("demo", help="analytic-continuation style rebuild of prod (1 + p^-s - p^-(2s-1))",
                       parents=parents)
    p.add_argument("--s", type=_parse_complex, default="2")
    p.add_argument("--nmax", dest="n_max", metavar="NMAX", type=int, default=30, help="largest m1 + 2*m2 kept")
    p.add_argument("--L", type=int, default=10)
    checked.append(p)
    for p in checked:  # declared last, so oracle_limit ends the spec
        p.add_argument("--check-oracle", dest="oracle_limit", type=_parse_oracle_limit, metavar="LIMIT",
                       help="also run the brute-force product over primes <= LIMIT")

    _add_product_parser(
        sub, "oracle", "brute-force product only", parents,
        F=dict(type=_parse_poly, help="switches to the rational product"),
        G=dict(type=_parse_poly, default="1"),
        terms=dict(type=_parse_terms, help="switches to the multi-term product"),
        limit=dict(type=int, required=True, help="largest prime summed"),
    )

    p = sub.add_parser("witt", parents=parents, help="necklace-factorization exponents of a polynomial")
    p.add_argument("--poly", type=_parse_poly, required=True, help="coefficients, ascending, constant 1")
    p.add_argument("--K", type=int, default=10)

    p = sub.add_parser("characters", parents=parents, help="list the character table mod q")
    p.add_argument("--q", type=int, required=True)

    return ap


def _spec_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    """The namespace less the command, --json and unset flags, in declaration order.

    The oracle takes its kind from the family flag it is given, --terms or
    --F (both are refused), and keeps only that family's flags.
    """
    mode = args.command
    spec = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "json")}
    if mode == "oracle":
        if "terms" in spec and "F" in spec:
            raise InvalidArgumentError("oracle takes --F or --terms, not both")
        kind = "multi" if "terms" in spec else "rational" if "F" in spec else "ap"
        keys = ("s", "q", "a", "P", "L", "kind", *{"ap": (), "rational": ("F", "G"), "multi": ("terms",)}[kind], "limit")
        spec = {k: kind if k == "kind" else spec[k] for k in keys}
    return mode, spec


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "--from-json":
            if len(argv) < 2:
                raise InvalidArgumentError("--from-json requires a file path")
            with open(argv[1]) as fh:
                previous = json.load(fh)
            if not isinstance(previous, dict) or not isinstance(previous.get("spec"), dict):
                raise InvalidArgumentError(f"{argv[1]} holds no {{'mode': ..., 'spec': {{...}}}} object")
            out = execute_job(previous.get("mode"), previous["spec"])
            _emit(out, as_json=True)
            return _EXIT_OK
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        mode, spec = _spec_from_args(args)
        out = execute_job(mode, spec)
        _emit(out, as_json=args.json)
        return _EXIT_OK
    except PrecisionUnreachableError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PRECISION
    except (ValueError, OSError) as e:  # InvalidArgumentError and the others subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

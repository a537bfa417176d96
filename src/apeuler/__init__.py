"""Euler products over primes in arithmetic progressions, with rigorous bounds."""

from .arith import (
    PrimeTable,
    euler_phi,
    mobius,
    sieve,
)
from .characters import CharacterGroup, DirichletCharacter, character_group
from .engine import (
    APProductSpec,
    MultiTermSpec,
    ProductResult,
    RationalProductSpec,
    ap_product,
    continuation_demo,
    multi_term_product,
    rational_product,
    y_p,
)
from .errors import (
    InternalError,
    InvalidArgumentError,
    InvalidSpecError,
    OutOfDomainError,
    PrecisionUnreachableError,
)
from .lseries import EvalParams, LSeries, ValueWithBound, dirichlet_l, hurwitz_zeta
from .oracle import OracleResult, oracle_log_product
from .witt import (
    Polynomial,
    beta_bound,
    kappa,
    lambert_log_expand,
    multi_indices,
    necklace_m,
    power_sums,
    witt_b,
)

__all__ = [
    "APProductSpec",
    "CharacterGroup",
    "DirichletCharacter",
    "EvalParams",
    "InternalError",
    "InvalidArgumentError",
    "InvalidSpecError",
    "LSeries",
    "MultiTermSpec",
    "OracleResult",
    "OutOfDomainError",
    "PrecisionUnreachableError",
    "PrimeTable",
    "Polynomial",
    "ProductResult",
    "RationalProductSpec",
    "ValueWithBound",
    "ap_product",
    "beta_bound",
    "character_group",
    "continuation_demo",
    "dirichlet_l",
    "euler_phi",
    "hurwitz_zeta",
    "kappa",
    "lambert_log_expand",
    "mobius",
    "multi_indices",
    "multi_term_product",
    "necklace_m",
    "oracle_log_product",
    "power_sums",
    "rational_product",
    "sieve",
    "witt_b",
    "y_p",
]

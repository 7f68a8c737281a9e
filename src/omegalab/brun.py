"""Truncated Moebius machinery over squarefree supports.

For squarefree m the depth-V truncation of sum_{d|m} mu(d) collapses to
sum_{j<=V} (-1)^j C(omega(m), j) = (-1)^V C(omega(m)-1, V), so the sign
of the error against the full sum [m = 1] alternates with V (parity
sandwich).  The weighted complete sum with K^omega(d)/phi(d) factors
exactly into prod_p (1 - K/(p-1)); truncating at omega(d) <= V drops
mass at most (sum_p K/(p-1))^(V+1) / (V+1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul

import numpy as np

from .errors import DomainError, ResourceError
from .sieve import _reserve, build_factor_sieve, factorize, omega_range, primes_up_to

__all__ = [
    "LambdaMeanReport",
    "PrimeInterval",
    "SieveProductCheck",
    "TruncationBound",
    "brun_truncated_divisor_sum",
    "complete_sieve_product",
    "lambda_omega_mean",
    "truncation_error_bound",
]

_MAX_INTERVAL_HI = 10**8
_SUBSET_LIMIT = 12  # exhaustive divisor enumeration cap (4096 subsets)
_PRIME_BYTES = 48  # per entry of primes(): the int, its slot and the int64 it is read from
_TERM_BYTES = 240  # per prime of truncation_error_bound: that list, the terms of S and their sums


@dataclass(frozen=True)
class PrimeInterval:
    """Primes p with lo < p <= hi, minus an explicit exclusion set."""

    lo: float
    hi: float
    excluded: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise DomainError(f"need lo < hi, got ({self.lo}, {self.hi}]")
        if self.hi > _MAX_INTERVAL_HI:
            raise ResourceError(f"interval endpoint {self.hi} beyond supported {_MAX_INTERVAL_HI}")

    def primes(self) -> list[int]:
        ps = primes_up_to(int(math.floor(self.hi)))
        _reserve(_PRIME_BYTES * len(ps), f"list of the primes up to {self.hi}")
        return [int(p) for p in ps if self.lo < p and p not in self.excluded]


def brun_truncated_divisor_sum(m: int, V: int) -> int:
    """sum over d | m with omega(d) <= V of mu(d); m must be squarefree.

    Equals sum_{j=0}^{min(V, w)} (-1)^j C(w, j) with w = omega(m); for
    V >= w this is the full Moebius sum [m = 1].
    """
    if V < 0:
        raise DomainError("V must be >= 0")
    fac = factorize(m)
    if any(e > 1 for _, e in fac.factors):
        raise DomainError(f"m={m} is not squarefree")
    w = fac.omega
    return sum((-1) ** j * math.comb(w, j) for j in range(min(V, w) + 1))


@dataclass(frozen=True)
class SieveProductCheck:
    """Both sides of sum_{d} mu(d) K^omega(d)/phi(d) = prod_p (1 - K/(p-1))."""

    K: int
    n_primes: int
    product: Fraction
    divisor_sum: Fraction | None  # None when the support is too large to enumerate
    sides_equal: bool | None

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "n_primes": self.n_primes,
            "product": self.product,
            "divisor_sum": self.divisor_sum,
            "sides_equal": self.sides_equal,
        }


def _layer(ps: list[int], r: int) -> Fraction:
    """Sum of 1/phi(d) = 1/prod (p - 1) over the squarefree d made of r
    of the primes ps."""
    subsets = combinations(ps, r)
    return sum((Fraction(1, math.prod(p - 1 for p in sub)) for sub in subsets), Fraction(0))


def _balanced(op, terms: list, empty):
    """op folded over terms by rounds of pairwise op, a balanced tree: each
    node joins operands of like size, where a running fold joins a large
    one with each small one.  For Fraction sums each node's gcd stays
    small; for integer products each multiplication is balanced."""
    while len(terms) > 1:
        terms = [op(a, b) for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return terms[0] if terms else empty


def _split_sum(terms: list[Fraction]) -> Fraction:
    """sum(terms) over a balanced tree: each node's Fraction is reduced."""
    return _balanced(add, terms, Fraction(0))


def complete_sieve_product(K: int, interval: PrimeInterval) -> SieveProductCheck:
    """Exact two-route evaluation over squarefree d supported on the interval.

    Every interval prime must exceed K + 1 so the factors 1 - K/(p-1)
    stay positive.  The divisor-sum route enumerates all subsets when
    there are at most _SUBSET_LIMIT = 12 primes; both routes are exact
    rationals.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    ps = interval.primes()
    for p in ps:
        if p <= K + 1:
            raise DomainError(f"interval prime {p} <= K+1 = {K + 1} makes a factor vanish or flip")
    product = Fraction(_balanced(mul, [p - 1 - K for p in ps], 1), _balanced(mul, [p - 1 for p in ps], 1))
    if len(ps) > _SUBSET_LIMIT:
        return SieveProductCheck(K, len(ps), product, None, None)
    # mu(d) K^omega(d) = (-K)^r over the squarefree d with r prime factors
    total = sum((-K) ** r * _layer(ps, r) for r in range(len(ps) + 1))
    return SieveProductCheck(K, len(ps), product, total, total == product)


@dataclass(frozen=True)
class TruncationBound:
    """Bound for the first omitted layer (omega(d) = V+1) of the weighted
    divisor sum."""

    K: int
    V: int
    n_primes: int
    bound: Fraction  # (sum K/(p-1))^(V+1) / (V+1)!
    dropped_mass: Fraction | None  # exact omega(d)=V+1 mass, when enumerable
    dominates: bool | None

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "V": self.V,
            "n_primes": self.n_primes,
            "bound": self.bound,
            "bound_decimal": float(self.bound),
            "dropped_mass": self.dropped_mass,
            "dominates": self.dominates,
        }


def truncation_error_bound(K: int, interval: PrimeInterval, V: int) -> TruncationBound:
    """Bound the omega(d) = V+1 layer of K^omega(d)/phi(d) by S^(V+1)/(V+1)!.

    S = sum_p K/(p-1); the bound is the multinomial domination of the
    elementary symmetric polynomial e_{V+1} by the power sum.  When the
    support has at most 12 primes the layer is also computed exactly and
    the domination is asserted, not assumed.
    """
    if K < 1 or V < 0:
        raise DomainError("need K >= 1 and V >= 0")
    ps = interval.primes()
    _reserve(_TERM_BYTES * len(ps), f"S = sum K/(p-1) over {len(ps)} primes")
    S = _split_sum([Fraction(K, p - 1) for p in ps])
    bound = S ** (V + 1) / math.factorial(V + 1)
    dropped = None
    dominates = None
    if len(ps) <= _SUBSET_LIMIT:
        dropped = K ** (V + 1) * _layer(ps, V + 1)
        dominates = bound >= dropped
        if not dominates:
            raise RuntimeError("truncation bound fell below the exact dropped mass")
    return TruncationBound(K, V, len(ps), bound, dropped, dominates)


@dataclass(frozen=True)
class LambdaMeanReport:
    """sum_{n<=n_max} lambda^omega(n), with the n_max/(log n_max)^(1-lambda)
    yardstick it tracks for 0 < lambda <= 1."""

    lam: object  # Fraction for the exact route, float otherwise
    n_max: int
    value: object
    float_error_bound: float | None
    reference: float | None
    ratio: float | None

    def to_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "n_max": self.n_max,
            "value": str(self.value),
            "value_decimal": float(self.value),
            "float_error_bound": self.float_error_bound,
            "reference": self.reference,
            "ratio": self.ratio,
        }


def lambda_omega_mean(lam, n_max: int) -> LambdaMeanReport:
    """sum_{n=1}^{n_max} lambda^omega(n) via the omega histogram.

    The histogram (bincount of omega over [1, n_max]) makes the sum a
    short polynomial in lambda, so rational lambda gives an exact value
    independent of summation order; float lambda gets a rounding bound.
    lambda = 1 returns n_max exactly.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    exact = isinstance(lam, (int, Fraction))
    lam_val = Fraction(lam) if exact else float(lam)
    if not 0 < lam_val <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    om = omega_range(build_factor_sieve(1, n_max))
    hist = np.bincount(om)
    counts = [int(c) for c in hist]
    if exact:
        value = sum(c * lam_val**j for j, c in enumerate(counts))
        err = None
    else:
        terms = [c * lam_val**j for j, c in enumerate(counts)]
        value = math.fsum(terms)
        eps = np.finfo(float).eps
        err = math.fsum(abs(tm) * (j + 2) * eps for j, tm in enumerate(terms))
    if n_max >= 2:
        reference = n_max / math.log(n_max) ** (1.0 - float(lam_val))
        ratio = float(value) / reference
    else:
        reference = None
        ratio = None
    return LambdaMeanReport(
        lam=lam_val,
        n_max=n_max,
        value=value,
        float_error_bound=err,
        reference=reference,
        ratio=ratio,
    )

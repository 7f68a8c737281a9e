"""Truncated Moebius machinery over squarefree supports.

For squarefree m the depth-V truncation of sum_{d|m} mu(d) collapses to
sum_{j<=V} (-1)^j C(omega(m), j) = (-1)^V C(omega(m)-1, V), so the sign
of the error against the full sum [m = 1] alternates with V (parity
sandwich).  The weighted complete sum with K^omega(d)/phi(d) factors
exactly into prod_p (1 - K/(p-1)); truncating at omega(d) <= V drops
mass at most (sum_p K/(p-1))^(V+1) / (V+1)!.

The product, S and the divisor layers are folded from reduced Fraction
terms by omegalab.series' _fold: every partial result is reduced as it
joins, and no list of every term or gcd of unreduced products is made.
The product and S reserve by one rule, _reserve_fold's; S^(V+1)/(V+1)!
is reserved from the size of S once S is folded, before the power.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul

import numpy as np

from .errors import DomainError, ResourceError
from .series import _fold
from .sieve import MAX_SIEVE_HI, _omega_blocks, _pi_bound, _prime_blocks, _reserve, factorize

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
_FOLD_INTS = 6  # integers the size of prod (p - 1) that a fold over the primes holds (4.07 measured)
_LEAF_BYTES = 1 << 14  # the _LEAF Fractions of one leaf of that fold (15.5 kB measured)
_POWER_INTS = 4  # integers the size of S^(V+1) that its power and quotient by (V+1)! hold (3.36 measured)


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
        """The primes of (lo, hi] outside ``excluded``, sieved over that
        window alone by the primes up to sqrt(hi)."""
        lo, hi = math.floor(self.lo), math.floor(self.hi)
        _reserve(16 * _pi_bound(hi, lo), f"primes in ({self.lo}, {self.hi}]")  # the sieve's arrays, then their join
        ps = np.concatenate([np.zeros(0, dtype=np.int64), *_prime_blocks(hi, lo, self.excluded)])
        _reserve(_PRIME_BYTES * len(ps), f"list of the primes in ({self.lo}, {self.hi}]")
        return ps.tolist()


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
        return asdict(self)  # Fraction's __deepcopy__ returns it, so nothing is copied


def _layer(ps: list[int], r: int) -> Fraction:
    """Sum of 1/phi(d) = 1/prod (p - 1) over the squarefree d made of r
    of the primes ps."""
    return _fold(add, (Fraction(1, math.prod(p - 1 for p in sub)) for sub in combinations(ps, r)), Fraction(0))


def _reserve_fold(ps: list[int], what: str) -> None:
    """Reserve the list ps and a fold of reduced Fractions over it, whose
    integers stay within a few bits of prod (p - 1): partial products of
    (p - 1 - K)/(p - 1) have both terms below it, and a partial sum of
    1/(p - 1) a denominator dividing lcm(p - 1) and a numerator below pi times that."""
    fold = _FOLD_INTS * sum((p - 1).bit_length() for p in ps) // 8 + _LEAF_BYTES
    _reserve(_PRIME_BYTES * len(ps) + fold, f"{what} over {len(ps)} primes")


def complete_sieve_product(K: int, interval: PrimeInterval) -> SieveProductCheck:
    """Exact two-route evaluation over squarefree d supported on the interval.

    Every interval prime must exceed K + 1 so the factors 1 - K/(p-1)
    stay positive.  The divisor-sum route enumerates all subsets when
    there are at most _SUBSET_LIMIT = 12 primes; both routes are exact
    rationals.  The list of primes and the product's fold are reserved.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    ps = interval.primes()
    if ps and ps[0] <= K + 1:  # the least of the ascending primes
        raise DomainError(f"interval prime {ps[0]} <= K+1 = {K + 1} makes a factor vanish or flip")
    _reserve_fold(ps, "product")
    product = _fold(mul, (Fraction(p - 1 - K, p - 1) for p in ps), Fraction(1))
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
    _reserve_fold(ps, "S = sum K/(p-1)")
    T = _fold(add, (Fraction(1, p - 1) for p in ps), Fraction(0))  # S = K T: the rule above does not bound K
    # S, its power, (V+1)! <= (V+1)^(V+1) and the quotient: up to V + 1 times the bits of K, T and V + 1 each
    bits = K.bit_length() + T.numerator.bit_length() + T.denominator.bit_length() + (V + 1).bit_length()
    _reserve(_PRIME_BYTES * len(ps) + _POWER_INTS * (V + 1) * bits // 8, f"S^{V + 1}/{V + 1}! over {len(ps)} primes")
    bound = (K * T) ** (V + 1) / math.factorial(V + 1)
    dropped = dominates = None
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
        # the exact route's Fractions go out as they are, for the report to
        # print in hex past the decimal-digit limit
        exact = isinstance(self.lam, Fraction)
        return {
            "lambda": self.lam if exact else str(self.lam),
            "n_max": self.n_max,
            "value": self.value if exact else str(self.value),
            "value_decimal": float(self.value),
            "float_error_bound": self.float_error_bound,
            "reference": self.reference,
            "ratio": self.ratio,
        }


def lambda_omega_mean(lam, n_max: int) -> LambdaMeanReport:
    """sum_{n=1}^{n_max} lambda^omega(n) via the omega histogram.

    The histogram (the count of each value of omega over [1, n_max],
    added up over the blocks of omegalab.sieve's omega source, in
    O(block) memory) makes the sum a short polynomial in lambda, so
    rational lambda gives an exact value independent of summation order;
    float lambda gets a rounding bound.  lambda = 1 returns n_max exactly.
    np.count_nonzero counts each value over a whole block, in one bool per
    n, within the sieve's scratch cap _CHUNK_BYTES and with no intp cast.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    exact = isinstance(lam, (int, Fraction))
    lam_val = Fraction(lam) if exact else float(lam)
    if not 0 < lam_val <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    if n_max > MAX_SIEVE_HI:
        raise DomainError(f"n_max={n_max} exceeds supported limit 2**50")
    hist = np.zeros(14, dtype=np.int64)  # omega <= 13 up to 2**50, the sieve's limit: 41# < 2**50 < 43#
    for om in _omega_blocks(1, n_max):
        hist += [np.count_nonzero(om == j) for j in range(hist.size)]
    counts = np.trim_zeros(hist, "b").tolist()
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

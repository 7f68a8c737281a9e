"""Derivation of the working parameter bundle from a scale x:

    K  = floor(5 log log log x)        number of stacked forms
    L  = floor(2 log log x)            length of the controlled tail block
    Q  = prod_{p <= K} p^(2 ceil(log K / log p))   so k^2 | Q for all k <= K
    g  = gcd(K + 1, Q),  Q' = Q / g,  K' = (K + 1) / g

plus the scaled-divisor form family L_k(n) = (Q/k) n + 1, certified lower
bounds for its singular series split at K and 2K, and the exponent
optimisation lambda + (1/10) log(1/lambda).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, PrecisionError, PreconditionError
from .linforms import LinearFormSystem, _generic_product, _local_factor_exact
from .sieve import primes_up_to

__all__ = [
    "FamilySingularSeries",
    "ParamSet",
    "derive_params",
    "exponent_optimum",
    "family_singular_series",
    "form_family",
]

#: x must exceed this for K >= 1 (triple log above 1/5).
MIN_SCALE = float(mpmath.exp(mpmath.exp(mpmath.exp(0.2))))


def _stable_floor(fn, start_dps: int = 60) -> int:
    """floor(fn()) where fn evaluates an mpmath expression at current dps.

    Evaluates at increasing precision until two consecutive precisions
    agree, so a value microscopically below an integer cannot round up.
    """
    prev = None
    for dps in (start_dps, 2 * start_dps, 4 * start_dps):
        with mpmath.workdps(dps):
            cur = int(mpmath.floor(fn()))
        if cur == prev:
            return cur
        prev = cur
    raise PrecisionError("floor did not stabilise under precision doubling")


def _min_power_at_least(p: int, bound: int) -> int:
    """Smallest e >= 1 with p**e >= bound (exact; avoids float logs)."""
    e, v = 1, p
    while v < bound:
        v *= p
        e += 1
    return e


@dataclass(frozen=True)
class ParamSet:
    x: float
    K: int
    L: int
    Q: int
    g: int
    Q_prime: int
    K_prime: int
    X: float  #: sieve level x**(1/(loglog x)^3)
    V: int  #: truncation depth 2*floor((loglog x)^2)
    q_growth_exponent: float  #: log Q / logloglog x, nominally in [10, 20]
    q_growth_drift: float  #: smallest eps with 10-eps <= exponent <= 20+eps
    B_excluded: int = 1  #: generic excluded prime; 1 means "none"

    def forms(self) -> LinearFormSystem:
        return form_family(self.K, self.Q)

    def to_dict(self) -> dict:
        return asdict(self)


def derive_params(x, b_excluded: int = 1) -> ParamSet:
    """Derive (K, L, Q, g, Q', K', X, V) from the scale x.

    x may be an int, float, or numeric string (useful for 10**100 and
    beyond); floors are taken at guarded precision so near-integer
    arguments cannot flip.  The q_growth_exponent field reports
    log Q / logloglog x with the drift past [10, 20] alongside; the
    window holds for x >= 1e50 and is advisory below that, where the
    o(1) terms are still large.  b_excluded threads a generic excluded
    prime through (default 1: no exclusion).
    """
    xs = str(x)
    with mpmath.workdps(60):
        xm = mpmath.mpf(xs)
        if not mpmath.isfinite(xm) or xm <= MIN_SCALE:
            raise DomainError(f"x={xs} too small: need x > {MIN_SCALE:.3f} so that K >= 1")
    if b_excluded < 1:
        raise DomainError("b_excluded must be a positive integer")

    K = _stable_floor(lambda: 5 * mpmath.log(mpmath.log(mpmath.log(mpmath.mpf(xs)))))
    L = _stable_floor(lambda: 2 * mpmath.log(mpmath.log(mpmath.mpf(xs))))

    Q = 1
    for p in primes_up_to(K):
        Q *= int(p) ** (2 * _min_power_at_least(int(p), K))
    g = math.gcd(K + 1, Q)
    Q_prime = Q // g
    K_prime = (K + 1) // g

    with mpmath.workdps(60):
        xm = mpmath.mpf(xs)
        ll = mpmath.log(mpmath.log(xm))
        lll = mpmath.log(ll)
        X = float(xm ** (1 / ll**3))
        V = int(mpmath.floor(ll**2)) * 2
        q_exp = float(mpmath.log(Q) / lll) if Q > 1 else 0.0
    drift = max(0.0, 10.0 - q_exp, q_exp - 20.0)

    return ParamSet(
        x=float(xm),
        K=K,
        L=L,
        Q=Q,
        g=g,
        Q_prime=Q_prime,
        K_prime=K_prime,
        X=X,
        V=V,
        q_growth_exponent=q_exp,
        q_growth_drift=drift,
        B_excluded=int(b_excluded),
    )


def form_family(K: int, Q: int) -> LinearFormSystem:
    """The scaled-divisor family {(Q/k) n + 1 : 1 <= k <= K}.

    Requires k^2 | Q for every k <= K, which makes Q/k an integer still
    divisible by k, so gcd(k, (Q/k) n + 1) = 1 along the whole family.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    for k in range(1, K + 1):
        if Q % (k * k) != 0:
            raise DomainError(f"k^2 | Q fails at k={k} (Q={Q})")
    return LinearFormSystem.from_pairs((Q // k, 1) for k in range(1, K + 1))


@dataclass(frozen=True)
class FamilySingularSeries:
    """Split truncated singular series for the scaled-divisor family.

    value = piece_small * piece_mid * piece_large where the pieces cover
    p <= K, K < p <= 2K and 2K < p <= truncation_prime.  The certified
    floors piece_small >= 1, piece_mid >= K**-K and (with the tail bound
    folded in) piece_large >= e**-K give value >= K**(-2K) overall.
    """

    K: int
    truncation_prime: int
    value: float
    piece_small: float
    piece_mid: float
    piece_large: float
    error_bound: float

    def certified_lower_bound(self) -> float:
        return self.value * math.exp(-self.error_bound)

    def to_dict(self) -> dict:
        return asdict(self)


def family_singular_series(K: int, truncation_prime: int = 10**7) -> FamilySingularSeries:
    """Truncated singular series of the scaled-divisor family, in three pieces.

    The family has omega_L(p) = 0 for p <= K (every a_k vanishes mod p
    while b_k = 1) and omega_L(p) = K for p > K, so

        piece_small = prod_{p <= K}      (1 - 1/p)^(-K)          >= 1
        piece_mid   = prod_{K < p <= 2K} (1 - K/p)(1 - 1/p)^(-K) >= K^-K
        piece_large = prod_{2K < p <= P} (1 - K/p)(1 - 1/p)^(-K) >= e^-K

    For K = 1 the mid and large pieces are identically 1 and the value
    is exactly 1.0 with a zero tail bound.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    P = int(truncation_prime)
    if K > 1 and P < 2 * K * K:
        raise PreconditionError(f"truncation_prime={P} below required minimum {2 * K * K}")

    below_2k = [int(p) for p in primes_up_to(2 * K)]
    small = math.prod((_local_factor_exact(p, 0, K) for p in below_2k if p <= K), start=Fraction(1))
    mid = math.prod((_local_factor_exact(p, K, K) for p in below_2k if p > K), start=Fraction(1))

    if K == 1:
        return FamilySingularSeries(
            K=1,
            truncation_prime=P,
            value=1.0,
            piece_small=1.0,
            piece_mid=1.0,
            piece_large=1.0,
            error_bound=0.0,
        )

    large, error_bound = _generic_product(K, P, below_2k)
    return FamilySingularSeries(
        K=K,
        truncation_prime=P,
        value=float(small * mid) * large,
        piece_small=float(small),
        piece_mid=float(mid),
        piece_large=large,
        error_bound=error_bound,
    )


def exponent_optimum(weight: float = 0.1):
    """Minimise f(lambda) = lambda + weight * log(1/lambda) on (0, 1).

    Returns (lambda_star, c0) where c0 = 1 - f(lambda_star) is the
    exponent saving.  For the default weight 1/10 the exact optimum is
    lambda_star = 1/10 and c0 = (9 - log 10)/10 = 0.66974...; the bounded
    scalar minimiser is run at tight tolerance and f is quadratically
    flat at the optimum, so c0 carries far more correct digits than
    lambda_star itself.
    """
    if not 0 < weight < 1:
        raise DomainError("weight must lie in (0, 1)")
    # scipy stays, imported lazily, because the census benchmark pins this minimiser's digits
    from scipy.optimize import minimize_scalar

    def f(lam: float) -> float:
        return lam + weight * math.log(1.0 / lam)

    res = minimize_scalar(f, bounds=(1e-12, 1 - 1e-12), method="bounded", options={"xatol": 1e-13})
    lam_star = float(res.x)
    c0 = 1.0 - float(f(lam_star))
    return lam_star, c0

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
from decimal import Context, Decimal, InvalidOperation, Overflow, localcontext
from fractions import Fraction

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
MIN_SCALE = math.exp(math.exp(math.exp(0.2)))


def _scale(xs: str) -> tuple[float, Decimal, int]:
    """(float(x), c, k) with x = c * 10**k and 1 <= c < 10 exactly, read
    from the numeric string xs.  The exponent is split off by hand, since
    Decimal refuses one past decimal.MAX_EMAX (1e9999999999999999999)."""
    try:
        xf = float(xs)
        mantissa, _, exponent = xs.strip().lower().partition("e")
        m, e = Decimal(mantissa), int(exponent or 0)
    except (ValueError, InvalidOperation) as exc:
        raise DomainError(str(exc)) from None
    if not m.is_finite():
        raise DomainError(f"x={xs} is not finite")
    too_small = DomainError(f"x={xs} too small: need x > {MIN_SCALE:.3f} so that K >= 1")
    if m <= 0:
        raise too_small
    digits = m.as_tuple().digits
    k = e + m.adjusted()
    if k < 1 or (k == 1 and Decimal((0, digits, 2 - len(digits))) <= MIN_SCALE):
        raise too_small
    return xf, Decimal((0, digits, 1 - len(digits))), k


def _stable_floors(c: Decimal, k: int):
    """The floors of 5 log log log x, 2 log log x and (log log x)^2 for
    x = c * 10**k, with the 60-digit (log x, log log x, log log log x).

    log x = log c + k log 10 is taken at 60, 120 and 240 digits until two
    consecutive precisions give the same three floors, so a value
    microscopically below an integer cannot round up.
    """
    prev = logs60 = None
    for prec in (60, 120, 240):
        with localcontext(Context(prec=prec)):
            lx = c.ln() + k * Decimal(10).ln()
            ll = lx.ln()
            lll = ll.ln()
            cur = (math.floor(5 * lll), math.floor(2 * ll), math.floor(ll * ll))
        logs60 = logs60 or (lx, ll, lll)
        if cur == prev:
            return cur, logs60
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


def derive_params(x) -> ParamSet:
    """Derive (K, L, Q, g, Q', K', X, V) from the scale x.

    x may be an int, float, or numeric string (useful for 10**100 and
    beyond, with any exponent); the logs are taken in the standard
    library's decimal arithmetic, whose ln and exp are correctly rounded,
    and the floors at guarded precision so near-integer arguments cannot
    flip.  X and q_growth_exponent come from the 60-digit logs, and an X
    past the largest double is inf.  The q_growth_exponent field reports
    log Q / logloglog x with the drift past [10, 20] alongside; the
    window holds for x >= 1e50 and is advisory below that, where the
    o(1) terms are still large.
    """
    xf, c, k = _scale(str(x))
    (K, L, half_V), (lx, ll, lll) = _stable_floors(c, k)

    Q = 1
    for p in primes_up_to(K):
        Q *= int(p) ** (2 * _min_power_at_least(int(p), K))
    g = math.gcd(K + 1, Q)
    Q_prime = Q // g
    K_prime = (K + 1) // g

    with localcontext(Context(prec=60)) as ctx:
        ctx.traps[Overflow] = False  # an X past any double prints as inf
        X = float((lx / ll**3).exp())
        q_exp = float(Decimal(Q).ln() / lll) if Q > 1 else 0.0
    drift = max(0.0, 10.0 - q_exp, q_exp - 20.0)

    return ParamSet(
        x=xf,
        K=K,
        L=L,
        Q=Q,
        g=g,
        Q_prime=Q_prime,
        K_prime=K_prime,
        X=X,
        V=2 * half_V,
        q_growth_exponent=q_exp,
        q_growth_drift=drift,
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

    For K = 1 every factor of the mid and large pieces is exactly 1, so
    the value is 1.0 with a zero tail bound (_generic_product).
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    P = int(truncation_prime)
    if K > 1 and P < 2 * K * K:
        raise PreconditionError(f"truncation_prime={P} below required minimum {2 * K * K}")

    below_2k = [int(p) for p in primes_up_to(2 * K)]
    small = math.prod((_local_factor_exact(p, 0, K) for p in below_2k if p <= K), start=Fraction(1))
    mid = math.prod((_local_factor_exact(p, K, K) for p in below_2k if p > K), start=Fraction(1))

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


def _bounded_brent(f):
    """Brent's FMIN (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5) on [1e-12, 1 - 1e-12] at xatol 1e-13 and at most 500
    evaluations of f: the best point and its value.  Operation for
    operation the loop of scipy's minimize_scalar(method="bounded"), down
    to its sign rule: a zero step, -0.0 included, moves by +tol1."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = 1e-12, 1 - 1e-12
    fulc = nfc = xf = a + golden_mean * (b - a)
    ffulc = fnfc = fx = f(xf)
    rat = e = 0.0
    num, xm = 1, 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + 1e-13 / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, p / q
                if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (max(abs(rat), tol1) if rat >= 0 else -max(abs(rat), tol1))
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + 1e-13 / 3.0
        if num >= 500:
            break
    return xf, fx


def exponent_optimum(weight: float = 0.1):
    """Minimise f(lambda) = lambda + weight * log(1/lambda) on (0, 1).

    Returns (lambda_star, c0) where c0 = 1 - f(lambda_star) is the
    exponent saving.  For the default weight 1/10 the exact optimum is
    lambda_star = 1/10 and c0 = (9 - log 10)/10 = 0.66974...; the search
    is Brent's bounded minimiser on [1e-12, 1 - 1e-12] at xatol 1e-13,
    iterate for iterate the one of scipy's minimize_scalar(method=
    "bounded"), and f is quadratically flat at the optimum, so c0
    carries far more correct digits than lambda_star itself.
    """
    if not 0 < weight < 1:
        raise DomainError("weight must lie in (0, 1)")

    def f(lam: float) -> float:
        return lam + weight * math.log(1.0 / lam)

    lam_star, f_star = _bounded_brent(f)
    return lam_star, 1.0 - f_star

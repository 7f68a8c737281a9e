"""Exact rational interval arithmetic for alpha_t = sum_{n>=1} omega(n)/t^n.

partial_sum is an exact Fraction; tail_bound majorises the dropped tail
via omega(n) <= log2(n) and the tangent line of log2 at N+1, giving a
geometric-series closed form.  The bounds nest: the enclosure at N+1 is
contained in the enclosure at N.

decompose_tail splits b * sum_{k>=1} omega(N+k)/t^k at k = K and k = L
(N = n0 * Q) and, when every (Q/k) n0 + 1 is prime, checks the exact
additivity identity

    S1 = b * sum_{k<=K} omega(k)/t^k + b * sum_{k<=K} 1/t^k,

which holds because k^2 | Q forces gcd(k, (Q/k) n0 + 1) = 1, so
omega(n0 Q + k) = omega(k * ((Q/k) n0 + 1)) = omega(k) + 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .params import form_family
from .sieve import build_factor_sieve, factorize, is_prime, omega_range

__all__ = [
    "SeriesEnclosure",
    "TailDecomposition",
    "alpha_enclosure",
    "integrality_probe",
    "partial_sum",
    "tail_bound",
]


def _validate_t(t: int) -> int:
    t = int(t)
    if t < 2:
        raise DomainError(f"base t must be an integer >= 2, got {t}")
    return t


def _omega_prefix(N: int) -> list[int]:
    """omega(n) for n = 1..N as plain ints."""
    if N < 1:
        return []
    return omega_range(build_factor_sieve(1, N)).tolist()


def _horner(ws: list[int], t: int) -> int:
    """sum_i ws[i] * t^(len(ws)-1-i) by binary splitting (Haible & Papanikolaou,
    ANTS-III, 1998): balanced products cost O(M(n) log n), not Horner's O(n^2)."""
    if len(ws) <= 64:
        num = 0
        for w in ws:
            num = num * t + w
        return num
    mid = len(ws) // 2
    return _horner(ws[:mid], t) * t ** (len(ws) - mid) + _horner(ws[mid:], t)


# _coprime(n, d) is n/d for coprime n and d > 0, built without Fraction's gcd
if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _coprime = Fraction._from_coprime_ints
else:

    def _coprime(n: int, d: int) -> Fraction:
        return Fraction(n, d, _normalize=False)


def _over_power(num: int, t: int, e: int) -> Fraction:
    """num / t^e as a reduced Fraction, without a gcd of two large integers.

    Every prime of gcd(num, t^e) divides t.  The shared power of 2 comes
    from the trailing zero bits; the odd rest is divided out by
    g = gcd(num mod t, t) cut down to g's common part with the
    denominator, until that is 1.  Each round costs a few passes over
    num, where Fraction(num, t^e) pays CPython's quadratic gcd.
    """
    if num == 0:
        return Fraction(0)
    den = t**e
    z = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    num, den = num >> z, den >> z
    while (g := math.gcd(num % t, t)) > 1 and (g := math.gcd(den % g, g)) > 1:
        num, den = num // g, den // g
    return _coprime(num, den)


def _fits_decimal(*xs: int) -> bool:
    """Whether str() can print each x: the interpreter refuses more decimal
    digits than sys.get_int_max_str_digits() (0 means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # below 2**(3 limit) < 10**limit without computing the power
    return not limit or all(abs(x).bit_length() <= 3 * limit or abs(x) < 10**limit for x in xs)


def _exact_text(x: Fraction) -> str:
    """x as decimal p/q while both fit the decimal limit, else as hex
    0x.../0x..., which int(part, 16) reads back at any length."""
    if _fits_decimal(x.numerator, x.denominator):
        return str(x)
    return f"{x.numerator:#x}/{x.denominator:#x}"


def partial_sum(t: int, N: int) -> Fraction:
    """Exact sum_{n=1}^{N} omega(n)/t^n as a reduced Fraction."""
    t = _validate_t(t)
    if N < 0:
        raise DomainError("N must be >= 0")
    return _over_power(_horner(_omega_prefix(N), t), t, N)


def _tangent_tail(t: int, n: int, e: int) -> Fraction:
    """Bound for sum_{i>=0} omega(n+i)/t^(e+i) by the tangent of log2 at n (see tail_bound)."""
    c = n.bit_length()
    s = Fraction(2, n)
    return (Fraction(c * t, t - 1) + s * Fraction(t, (t - 1) ** 2)) / t**e


def tail_bound(t: int, N: int) -> Fraction:
    """Rational upper bound for sum_{n>N} omega(n)/t^n, exact arithmetic.

    Uses omega(n) <= log2(n) <= c + s*(n - N - 1) with c = bitlength(N+1)
    and s = 2/(N+1), a tangent-line majorant valid for all n > N; summing
    the two geometric pieces gives

        tail <= t^(-(N+1)) * ( c*t/(t-1) + s*t/(t-1)^2 ).

    Requires N >= 2.  Strictly positive, decreasing in N, and nesting:
    partial_sum(N+1) + tail_bound(N+1) stays inside the previous interval.
    """
    t = _validate_t(t)
    if N < 2:
        raise DomainError("tail_bound needs N >= 2")
    return _tangent_tail(t, N + 1, N + 1)


@dataclass(frozen=True)
class SeriesEnclosure:
    """Certified interval partial <= alpha_t <= partial + tail_hi."""

    t: int
    N: int
    partial: Fraction
    tail_hi: Fraction

    @property
    def lo(self) -> Fraction:
        return self.partial

    @property
    def hi(self) -> Fraction:
        return self.partial + self.tail_hi

    @property
    def width(self) -> Fraction:
        return self.tail_hi

    def nested_in(self, other: "SeriesEnclosure") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "N": self.N,
            "partial": _exact_text(self.partial),
            "tail_hi": _exact_text(self.tail_hi),
            "lo_decimal": float(self.lo),
            "hi_decimal": float(self.hi),
            "width_decimal": float(self.width),
        }


def alpha_enclosure(t: int, N: int) -> SeriesEnclosure:
    """Exact enclosure of alpha_t from the first N terms (N >= 2)."""
    return SeriesEnclosure(t=int(t), N=int(N), partial=partial_sum(t, N), tail_hi=tail_bound(t, N))


@dataclass(frozen=True)
class TailDecomposition:
    """b * sum_{k>=1} omega(N+k)/t^k split at K and L, truncated at M."""

    t: int
    b: int
    n0: int
    K: int
    Q: int
    L: int
    M: int
    N: int  # n0 * Q
    S1: Fraction  # k = 1..K
    S2: Fraction  # k = K+1..L
    S3_truncated: Fraction  # k = L+1..M
    S3_tail_hi: Fraction  # bound for k > M
    identity_applicable: bool  # all (Q/k) n0 + 1 prime
    identity_holds: bool | None
    identity_rhs: Fraction | None

    @property
    def total_lo(self) -> Fraction:
        return self.S1 + self.S2 + self.S3_truncated

    @property
    def total_hi(self) -> Fraction:
        return self.total_lo + self.S3_tail_hi

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "b": self.b,
            "n0": self.n0,
            "K": self.K,
            "Q": self.Q,
            "L": self.L,
            "M": self.M,
            "N": self.N,
            "S1": _exact_text(self.S1),
            "S2": _exact_text(self.S2),
            "S3_truncated": _exact_text(self.S3_truncated),
            "S3_tail_hi": _exact_text(self.S3_tail_hi),
            "total_lo_decimal": float(self.total_lo),
            "total_hi_decimal": float(self.total_hi),
            "identity_applicable": self.identity_applicable,
            "identity_holds": self.identity_holds,
            "identity_rhs": _exact_text(self.identity_rhs) if self.identity_rhs is not None else None,
        }


def _block_sum(t: int, N: int, b: int, lo_k: int, hi_k: int) -> Fraction:
    """b * sum_{k=lo_k}^{hi_k} omega(N+k)/t^k, omega via certified factorize."""
    ws = [factorize(N + k).omega for k in range(lo_k, hi_k + 1)]
    return _over_power(b * _horner(ws, t), t, hi_k)


def decompose_tail(
    t: int, b: int, n0: int, K: int, Q: int, L: int, M: int | None = None
) -> TailDecomposition:
    """Split b * sum_{k>=1} omega(n0 Q + k)/t^k at K and L, truncate at M.

    S1 covers the prime-certificate block k <= K, S2 the controlled block
    K < k <= L, S3 everything beyond L (computed exactly to M, bounded
    after that by the same tangent-line majorant as tail_bound).  When
    all K certificates are prime the additivity identity for S1 is
    checked exactly and reported.
    """
    t = _validate_t(t)
    if b < 1 or n0 < 1 or K < 1:
        raise DomainError("need b >= 1, n0 >= 1, K >= 1")
    if not K < L <= (M if M is not None else L + 32):
        raise DomainError(f"need K < L <= M, got K={K}, L={L}, M={M}")
    form_family(K, Q)  # raises unless k^2 | Q for every k <= K
    if M is None:
        M = L + 32
    N = n0 * Q

    S1 = _block_sum(t, N, b, 1, K)
    S2 = _block_sum(t, N, b, K + 1, L)
    S3_trunc = _block_sum(t, N, b, L + 1, M)

    S3_tail = b * _tangent_tail(t, N + M + 1, M + 1)

    applicable = all(is_prime((Q // k) * n0 + 1) for k in range(1, K + 1))
    rhs = None
    holds = None
    if applicable:
        ws = [factorize(k).omega + 1 for k in range(1, K + 1)]
        rhs = _over_power(b * _horner(ws, t), t, K)
        holds = rhs == S1
    return TailDecomposition(
        t=t,
        b=b,
        n0=n0,
        K=K,
        Q=Q,
        L=L,
        M=M,
        N=N,
        S1=S1,
        S2=S2,
        S3_truncated=S3_trunc,
        S3_tail_hi=S3_tail,
        identity_applicable=applicable,
        identity_holds=holds,
        identity_rhs=rhs,
    )


def integrality_probe(a: int, b: int, t: int, N: int) -> dict:
    """Exploration aid: if alpha_t were a/b, then b t^N (alpha - partial)
    would equal a t^N - b * (t^N partial_sum), an integer that must fall
    in the open window (0, b t^N tail_bound...] for the rational to
    survive.  Returns the integer and the window's upper end; no conclusion
    is drawn.
    """
    if b < 1:
        raise DomainError("b must be >= 1")
    t = _validate_t(t)
    window_hi = b * tail_bound(t, N) * t**N
    # t^N * partial_sum(t, N) is the unreduced numerator sum omega(n) t^(N-n)
    probe = a * t**N - b * _horner(_omega_prefix(N), t)
    return {
        "probe_integer": probe,
        "window_hi": window_hi,
        "consistent": 0 < probe <= window_hi,
    }

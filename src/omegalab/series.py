"""Exact rational interval arithmetic for alpha_t = sum_{n>=1} omega(n)/t^n.

partial_sum is an exact Fraction; tail_bound majorises the dropped tail
via omega(n) <= log2(n) and the tangent line of log2 at N+1, giving a
geometric-series closed form.  The bounds nest: the enclosure at N+1 is
contained in the enclosure at N.

Every sum is one integer numerator over a power of t, formed by _horner:
for t = 2^k with k <= 8 it adds the bit planes of the weights, and for
every other t it folds the numerators of short runs of terms by
_balanced, each join a t^m + b of like-sized operands (Haible &
Papanikolaou, ANTS-III, 1998; Brent & Zimmermann, Modern Computer
Arithmetic, 2010, sections 1.6-1.7).  The weights are omega's uint8
blocks from omegalab.sieve's _omega_blocks: the partial sums fold the
blocks' numerators by the same join, and decompose_tail slices omega
over [N+1, N+M], read once, at K and L.  A SeriesEnclosure computes t^N
once, so its upper end is one integer numerator over tail_bound's
denominator S t^N; Fraction comparison, as in nested_in, cross-multiplies.
No Fraction here is reduced by a gcd of two large integers.

decompose_tail splits b * sum_{k>=1} omega(N+k)/t^k at k = K and k = L
(N = n0 * Q) and, when every (Q/k) n0 + 1 is prime, checks the exact
additivity identity

    S1 = b * sum_{k<=K} omega(k)/t^k + b * sum_{k<=K} 1/t^k,

which holds because k^2 | Q forces gcd(k, (Q/k) n0 + 1) = 1, so
omega(n0 Q + k) = omega(k * ((Q/k) n0 + 1)) = omega(k) + 1.

The to_dict reports hold the exact values as Fractions; omegalab.cli
alone turns them into text, in hex once they pass the decimal digit limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from . import sieve
from .errors import DomainError
from .params import form_family
from .sieve import _omega_blocks, _reserve, is_prime

__all__ = [
    "SeriesEnclosure",
    "TailDecomposition",
    "alpha_enclosure",
    "decompose_tail",
    "integrality_probe",
    "partial_sum",
    "tail_bound",
]

_LEAF = 64  # terms per leaf: a plain Horner leaf of _horner, a _balanced leaf of _fold
# what _horner holds at any n beside what grows with it: numpy array
# headers, packbits' output and the fold's small lists, 6 kB at most
_HORNER_FIXED = 1 << 13


def _validate_t(t: int) -> int:
    t = int(t)
    if t < 2:
        raise DomainError(f"base t must be an integer >= 2, got {t}")
    return t


def _balanced(op, terms: list, empty):
    """op folded over terms by rounds of pairwise op, a balanced tree whose
    nodes join operands of like size, where a running fold joins a large
    one with each small one: Fraction sums keep each gcd small, and
    integer products and numerator joins balance each multiplication.
    Callers pass terms unnamed, so that it can be freed after one round."""
    while len(terms) > 1:
        terms = [op(a, b) for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return terms[0] if terms else empty


def _fold(op, terms, empty):
    """The value of _balanced(op, list(terms), empty) for an associative op,
    with no list of every term: _balanced folds each leaf of _LEAF terms
    drawn from the iterable, then the leaves."""
    it = iter(terms)
    return _balanced(op, [_balanced(op, leaf, empty) for leaf in iter(lambda: list(islice(it, _LEAF)), [])], empty)


def _join(t: int):
    """(a, n), (b, m) -> (a t^m + b, n + m) for the numerators of runs of n
    and m terms: a shift for t = 2^k, else a product by t^m, which is kept,
    as all joins of a round of _balanced but its last share one m."""
    k = t.bit_length() - 1
    if t == 1 << k:
        return lambda x, y: ((x[0] << k * y[1]) + y[0], x[1] + y[1])
    power = lru_cache(maxsize=1)(t.__pow__)
    return lambda x, y: (x[0] * power(y[1]) + y[0], x[1] + y[1])


def _power_bytes(t: int, N: int) -> int:
    """Bytes of an integer of the size of t^N, with a margin."""
    return int(N * math.log2(t)) // 8 + 16


def _horner(ws, t: int) -> int:
    """sum_i ws[i] * t^(n-1-i) for n = len(ws) non-negative integer weights.

    - t = 2^k, k <= 8: term i sits at bit k(n-1-i), so the sum is
      sum_j 2^j * P_j, where the plane P_j has bit j of ws[i] there.  Each
      plane is one np.packbits of a k-bytes-per-term scratch, read big-endian
      so that the weights keep their order, and one int.from_bytes;
      weights of any size, t or more included, work.  Past k = 8 the
      scratch would outgrow the 8 bytes per term of the weight list below.
    - other t: plain Horner over leaves of _LEAF terms, which
      _balanced(_join(t), ...) folds; plain Horner over all n is O(n^2).

    One _reserve call covers what the sum holds at once: the weights, the
    plane scratch or the weight list and 96 bytes per leaf (tuple, int
    header, list slot), numerator-sized integers (4 for t = 2^k, else 8,
    as a last join a t^m + b peaked at 7 with its Karatsuba scratch) and
    _HORNER_FIXED, which short sums would otherwise exceed.
    """
    w = np.asarray(ws)
    n = len(w)
    if n == 0:
        return 0
    k = t.bit_length() - 1
    planes = t == 1 << k and k <= 8
    num_bytes = n * (k + 1) // 8 + 16
    scratch = k * n if planes else 8 * n + 96 * -(-n // _LEAF)
    held = w.nbytes + scratch + _HORNER_FIXED + (4 if t == 1 << k else 8) * num_bytes
    _reserve(held, f"numerator of {n} terms at t={t}")
    if planes:
        bits = np.zeros(k * n, dtype=np.uint8)
        plane = bits[k - 1 :: k]  # bit k(n-1-i) of the big-endian string is byte k*i + k-1
        num = 0
        for j in range(int(w.max()).bit_length()):
            np.right_shift(w, j, out=plane, casting="unsafe")
            plane &= 1
            num += int.from_bytes(np.packbits(bits), "big") << j
        return num >> (-k * n) % 8  # packbits pads the last byte on the right
    ws = w.tolist()
    return _balanced(_join(t), [_leaf(ws[i : i + _LEAF], t) for i in range(0, n, _LEAF)], (0, 0))[0]


def _leaf(ws: list, t: int) -> tuple[int, int]:
    """(sum_i ws[i] * t^(m-1-i), m) for the m = len(ws) weights, by plain Horner."""
    num = 0
    for x in ws:
        num = num * t + x
    return num, len(ws)


def _omega_numerator(t: int, N: int) -> int:
    """sum_{n=1}^{N} omega(n) t^(N-n), that is t^N * partial_sum(t, N): the
    _horner numerators of _omega_blocks(1, N) folded by _balanced(_join(t), ...).
    When [1, N] spans more than one block, the fold is reserved before the
    first block: the parts and the few numerator-sized integers built from
    them, seven numerators in all."""
    k = t.bit_length() - 1
    if N > sieve._DEFAULT_BLOCK:
        _reserve(7 * (N * (k + 1) // 8 + 16), f"numerator of {N} terms at t={t}, joined by blocks")
    return _balanced(_join(t), [(_horner(b, t), b.size) for b in _omega_blocks(1, N)], (0, 0))[0]


def _coprime(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, built without Fraction's gcd, as
    Python 3.12's Fraction._from_coprime_ints builds it."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = n, d
    return x


def _over_power(num: int, t: int, power: int, small: int = 1) -> Fraction:
    """num / (small * power) as a reduced Fraction, for power = t^e and a
    small integer small >= 1, without a gcd of two large integers.

    Every prime of gcd(num, power) divides t.  The shared power of 2 comes
    from the trailing zero bits; the odd rest is divided out by
    g = gcd(num mod t, t) cut down to g's common part with the power,
    until that is 1.  Each round costs a few passes over num, where
    Fraction(num, power) pays CPython's quadratic gcd.  What num then
    shares with small goes by one gcd against the small operand.
    """
    if num == 0:
        return Fraction(0)
    z = min((num & -num).bit_length(), (power & -power).bit_length()) - 1
    num, power = num >> z, power >> z
    while (g := math.gcd(num % t, t)) > 1 and (g := math.gcd(power % g, g)) > 1:
        num, power = num // g, power // g
    g = math.gcd(num, small)
    return _coprime(num // g, small // g * power)


def _sum_over_power(xs, t: int, power: int, small: int = 1) -> Fraction:
    """The sum of the Fractions xs as one integer numerator over
    small * power, reduced by _over_power, when every denominator divides
    small * power (power = t^e); otherwise, as for a hand-built report,
    the Fractions are added."""
    D = small * power
    num = 0
    for x in xs:
        q, r = divmod(D, x.denominator)
        if r:
            return sum(xs, Fraction(0))
        num += x.numerator * q
    return _over_power(num, t, power, small)


def partial_sum(t: int, N: int) -> Fraction:
    """Exact sum_{n=1}^{N} omega(n)/t^n as a reduced Fraction."""
    t = _validate_t(t)
    if N < 0:
        raise DomainError("N must be >= 0")
    return _over_power(_omega_numerator(t, N), t, t**N)


def tail_bound(t: int, N: int) -> Fraction:
    """Rational upper bound for sum_{n>N} omega(n)/t^n, exact arithmetic.

    Uses omega(n) <= log2(n) <= c + s*(n - N - 1) with c = bitlength(N+1)
    and s = 2/(N+1), a tangent-line majorant valid for all n > N; summing
    the two geometric pieces gives

        tail <= t^(-(N+1)) * ( c*t/(t-1) + s*t/(t-1)^2 ),

    which is A / (S t^N) with (A, S) = _tail_terms(t, N).

    Requires N >= 2.  Strictly positive, decreasing in N, and nesting:
    partial_sum(N+1) + tail_bound(N+1) stays inside the previous interval.
    """
    t = _validate_t(t)
    A, S = _tail_terms(t, N)
    _reserve(5 * _power_bytes(t, N), f"t^N and its reduced copies at t={t}, N={N}")
    return _over_power(A, t, t**N, S)


def _tail_terms(t: int, N: int) -> tuple[int, int]:
    """(A, S) with sum_{n>N} omega(n)/t^n <= tail_bound(t, N) = A / (S t^N),
    by the tangent of log2 at n = N+1: A = c (t-1) n + 2, S = n (t-1)^2."""
    if N < 2:
        raise DomainError("tail_bound needs N >= 2")
    n = N + 1
    return n.bit_length() * (t - 1) * n + 2, n * (t - 1) ** 2


@dataclass(frozen=True)
class SeriesEnclosure:
    """Certified interval partial <= alpha_t <= partial + tail_hi."""

    t: int
    N: int
    partial: Fraction
    tail_hi: Fraction

    @cached_property
    def _power(self) -> int:
        """t^N, computed once; alpha_enclosure seeds it with its own."""
        return self.t**self.N

    @property
    def lo(self) -> Fraction:
        return self.partial

    @property
    def hi(self) -> Fraction:
        """partial + tail_hi over tail_bound's denominator S t^N."""
        S = _tail_terms(self.t, self.N)[1]
        return _sum_over_power((self.partial, self.tail_hi), self.t, self._power, S)

    @property
    def width(self) -> Fraction:
        return self.tail_hi

    def nested_in(self, other: "SeriesEnclosure") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "N": self.N,
            "partial": self.partial,
            "tail_hi": self.tail_hi,
            "lo_decimal": float(self.lo),
            "hi_decimal": float(self.hi),
            "width_decimal": float(self.width),
        }


def alpha_enclosure(t: int, N: int) -> SeriesEnclosure:
    """Exact enclosure of alpha_t from the first N terms (N >= 2).

    Once the numerator is summed (under its own reservation), the call
    holds at most eight integers of the size of t^N: the numerator, t^N
    and the copies that _over_power reduces for the partial sum and the
    tail.  They are reserved before the sum."""
    t, N = _validate_t(t), int(N)
    if N < 0:
        raise DomainError("N must be >= 0")
    A, S = _tail_terms(t, N)
    _reserve(8 * _power_bytes(t, N), f"numerator of {N} terms at t={t}, t^N and their reduced copies")
    num, power = _omega_numerator(t, N), t**N
    enc = SeriesEnclosure(t, N, _over_power(num, t, power), _over_power(A, t, power, S))
    enc.__dict__["_power"] = power  # the cached t^N, already computed
    return enc


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

    @cached_property
    def _power(self) -> int:
        return self.t**self.M

    @property
    def total_lo(self) -> Fraction:
        """S1 + S2 + S3_truncated over t^M."""
        return _sum_over_power((self.S1, self.S2, self.S3_truncated), self.t, self._power)

    @property
    def total_hi(self) -> Fraction:
        """total_lo + S3_tail_hi over the tail bound's denominator S t^M."""
        S = _tail_terms(self.t, self.N + self.M)[1]
        return _sum_over_power((self.S1, self.S2, self.S3_truncated, self.S3_tail_hi), self.t, self._power, S)

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
            "S1": self.S1,
            "S2": self.S2,
            "S3_truncated": self.S3_truncated,
            "S3_tail_hi": self.S3_tail_hi,
            "total_lo_decimal": float(self.total_lo),
            "total_hi_decimal": float(self.total_hi),
            "identity_applicable": self.identity_applicable,
            "identity_holds": self.identity_holds,
            "identity_rhs": self.identity_rhs,
        }


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

    _reserve(2 * M, f"omega over [{N + 1}, {N + M}]")  # the blocks and their join
    om = np.concatenate(list(_omega_blocks(N + 1, N + M)))  # omega(N + k) at k - 1

    def block_sum(i: int, j: int) -> Fraction:  # b * sum_{k=i+1}^{j} omega(N+k)/t^k
        return _over_power(b * _horner(om[i:j], t), t, t**j)

    S1, S2, S3_trunc = block_sum(0, K), block_sum(K, L), block_sum(L, M)

    A, S = _tail_terms(t, N + M)  # N >= 1 and M >= 2, so N + M >= 3
    S3_tail = _over_power(b * A, t, t**M, S)

    applicable = all(is_prime((Q // k) * n0 + 1) for k in range(1, K + 1))
    rhs = None
    holds = None
    if applicable:
        # sum_{k<=K} (omega(k) + 1) t^(K-k), the units summing to (t^K - 1)/(t - 1)
        rhs = _over_power(b * (_omega_numerator(t, K) + (t**K - 1) // (t - 1)), t, t**K)
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
    A, S = _tail_terms(t, N)
    window_hi = Fraction(b * A, S)  # b t^N tail_bound(t, N)
    _reserve(6 * _power_bytes(t, N), f"numerator of {N} terms at t={t}, t^N and the probe integer")
    # the unreduced numerator sum omega(n) t^(N-n) = t^N partial_sum(t, N), summed before a t^N
    probe = -b * _omega_numerator(t, N) + a * t**N
    return {
        "probe_integer": probe,
        "window_hi": window_hi,
        "consistent": 0 < probe <= window_hi,
    }

"""Reference arithmetic for the benchmark's correctness gate.

Nothing here imports omegalab: each function is a literal loop, a closed
form or a textbook sieve written for this file, so a defect in the
library cannot hide by appearing on both sides of a comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWIN_2C2 = 1.3203236316937391  # 2 * prod_{p>2} (1 - 1/(p-1)^2)
RESIDUE_MODULUS = (1 << 61) - 1  # Mersenne prime for residue checks of huge numerators


def sieve_mask(n: int) -> np.ndarray:
    """is_prime[k] for 0 <= k <= n, by Eratosthenes over odd numbers only."""
    mask = np.zeros(n + 1, dtype=bool)
    if n < 2:
        return mask
    mask[2] = True
    mask[3::2] = True
    p = 3
    while p * p <= n:
        if mask[p]:
            mask[p * p :: 2 * p] = False
        p += 2
    return mask


def primes_to(n: int) -> np.ndarray:
    return np.flatnonzero(sieve_mask(n)).astype(np.int64)


def trial_factor(n: int, primes: np.ndarray) -> dict[int, int]:
    """{p: e} for n >= 1 by division by ``primes``, which must cover sqrt(n)."""
    out: dict[int, int] = {}
    for p in primes[n % primes == 0].tolist():
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:  # no prime factor <= sqrt of the original n remains
        out[n] = out.get(n, 0) + 1
    return out


def omega_tau_phi(factors: dict[int, int], n: int) -> tuple[int, int, int]:
    tau, phi = 1, n
    for p, e in factors.items():
        tau *= e + 1
        phi = phi // p * (p - 1)
    return len(factors), tau, phi


def sum_omega(n: int, primes: np.ndarray) -> int:
    """sum_{m <= n} omega(m) = sum_{p <= n} floor(n / p); ``primes`` covers n."""
    return int((n // primes[primes <= n]).sum())


def divisor_summatory(x: int) -> int:
    """D(x) = sum_{d <= x} floor(x / d), by the hyperbola method."""
    if x < 1:
        return 0
    r = math.isqrt(x)
    d = np.arange(1, r + 1, dtype=np.int64)
    return 2 * int((x // d).sum()) - r * r


def omega_table(n: int, primes: np.ndarray) -> np.ndarray:
    """omega(m) for 0 <= m <= n by one stride per prime; ``primes`` covers n."""
    om = np.zeros(n + 1, dtype=np.uint8)
    for p in primes[primes <= n].tolist():
        om[p::p] += 1
    return om


def twin_count(n_max: int, mask: np.ndarray) -> int:
    """#{1 <= n <= n_max : n and n + 2 prime}; ``mask`` covers n_max + 2."""
    return int(np.count_nonzero(mask[1 : n_max + 1] & mask[3 : n_max + 3]))


def family_tuple_count(K: int, Q: int, n_max: int, mask: np.ndarray) -> int:
    """#{n <= n_max : (Q/k) n + 1 prime for all k <= K}."""
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    hit = np.ones(n_max, dtype=bool)
    for k in range(1, K + 1):
        hit &= mask[(Q // k) * ns + 1]
    return int(np.count_nonzero(hit))


def tail_majorant(t: int, N: int) -> Fraction:
    """Bound for sum_{n>N} omega(n)/t^n from omega(n) <= log2 n and the
    tangent line of log2 at N + 1 (slope 1/((N+1) ln 2) < 3/(2(N+1)))."""
    c = (N + 1).bit_length()
    s = Fraction(3, 2 * (N + 1))
    return (Fraction(c * t, t - 1) + s * Fraction(t, (t - 1) ** 2)) / Fraction(t) ** (N + 1)


def enclosure(t: int, N: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] around alpha_t from N trial-division terms plus the majorant."""
    primes = primes_to(N)
    lo = sum(Fraction(len(trial_factor(n, primes)), t**n) for n in range(1, N + 1))
    return lo, lo + tail_majorant(t, N)


def horner_residue(t: int, omegas: np.ndarray, N: int, m: int = RESIDUE_MODULUS) -> int:
    """(sum_{n<=N} omega(n) t^(N-n)) mod m; ``omegas`` indexed by n."""
    acc = 0
    for w in omegas[1 : N + 1].tolist():
        acc = (acc * t + w) % m
    return acc


def local_factor(p: int, roots: int, K: int) -> Fraction:
    return Fraction((p - roots) * p ** (K - 1), (p - 1) ** K)


def family_series(K: int, P: int, primes: np.ndarray) -> float:
    """Truncated singular series of {(Q/k) n + 1 : k <= K}: no roots for
    p <= K, K roots above; ``primes`` covers P."""
    ps = primes[primes <= P]
    exact = Fraction(1)
    for p in ps[ps <= 2 * K].tolist():
        exact *= local_factor(p, 0 if p <= K else K, K)
    big = ps[ps > 2 * K].astype(np.float64)
    logs = np.log1p(-K / big) - K * np.log1p(-1.0 / big)
    return float(exact) * math.exp(math.fsum(logs.tolist()))


def scale_params(x: str) -> dict[str, int]:
    """K, L, Q, g, Q', K' of the parameter tower at scale x, at 80 digits."""
    import mpmath

    with mpmath.workdps(80):
        ll = mpmath.log(mpmath.log(mpmath.mpf(x)))
        K = int(mpmath.floor(5 * mpmath.log(ll)))
        L = int(mpmath.floor(2 * ll))
    Q = 1
    for p in range(2, K + 1):
        if all(p % q for q in range(2, p)):
            e = 1
            while p**e < K:
                e += 1
            Q *= p ** (2 * e)
    g = math.gcd(K + 1, Q)
    return {"K": K, "L": L, "Q": Q, "g": g, "Q_prime": Q // g, "K_prime": (K + 1) // g}


def qualifies(n: int, K: int, Q: int, L: int, theta2: int, theta3: int) -> bool:
    """The special-index conditions, from sympy's primality and factoring."""
    import sympy

    if not all(sympy.isprime((Q // k) * n + 1) for k in range(K, 0, -1)):
        return False
    om = {k: len(sympy.factorint(n * Q + k)) for k in range(K + 1, L + 1)}
    return max(om.values()) <= theta2 and om[K + 1] > theta3

"""Exact multiplicative backbone: one blocked multiplicative sieve for the
omega/tau/phi range tables, a block sieve over n for the values of a
linear form a*n + b, and certified scalar factorization.

Conventions used throughout: omega(1) = 0, tau(1) = 1, phi(1) = 1.
Range functions return plain numpy arrays where index i corresponds to
n = lo + i.  Everything here is deterministic; the parallel paths split
the range into fixed blocks whose results do not depend on the thread
count or on block boundaries.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

__all__ = [
    "FactorSieve",
    "Factorization",
    "build_factor_sieve",
    "factorize",
    "is_prime",
    "omega",
    "omega_range",
    "phi",
    "phi_range",
    "prime_mask",
    "primes_up_to",
    "tau",
    "tau_range",
]

#: Largest supported sieve endpoint.  Base primes up to sqrt(2**50) = 2**25
#: keep the auxiliary sieve tiny, and every n and phi(n) fits in int64.
MAX_SIEVE_HI = 1 << 50

_BUDGET_ENV = "OMEGALAB_MEMORY_BUDGET"
_DEFAULT_BUDGET = 2_000_000_000  # bytes
_DEFAULT_BLOCK = 1 << 20  # int64 cofactors ~ 8 MiB per block
_BLOCK_SCRATCH = 9  # bytes per n of one block: int64 cofactor + leftover mask


def _memory_budget(explicit: int | None) -> int:
    if explicit is not None:
        return int(explicit)
    return int(os.environ.get(_BUDGET_ENV, _DEFAULT_BUDGET))


def _check_budget(needed: int, budget: int, what: str) -> None:
    if needed > budget:
        raise ResourceError(
            f"{what} needs ~{needed} bytes but the memory budget is {budget} "
            f"bytes (override via {_BUDGET_ENV} or the memory_budget argument)"
        )


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    return np.flatnonzero(prime_mask(n)).astype(np.int64, copy=False)


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1 with mask[k] true iff k is prime."""
    if n < 1:
        return np.zeros(max(n + 1, 0), dtype=bool)
    mask = np.ones(n + 1, dtype=bool)
    mask[: min(2, n + 1)] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


# ---------------------------------------------------------------------------
# sieving the values of one linear form over a block of n


def _residues(x: int, ps: np.ndarray) -> np.ndarray:
    """x mod p for every p in ps, exact for any x >= 0 and every p < 2**32:
    Horner over the 31-bit limbs of x keeps each step below 2**63."""
    r = np.zeros(ps.size, dtype=np.int64)
    for shift in range(31 * (x.bit_length() // 31), -1, -31):
        r = ((r << 31) + ((x >> shift) & 0x7FFF_FFFF)) % ps
    return r


def _form_sieve(a: int, b: int, base: np.ndarray):
    """Block sieve for the values a*n + b (a >= 1, b >= 0) by the base primes.

    Returns ``mask(lo, hi)``: a boolean array over n in [lo, hi) (lo >= 1)
    that is True exactly where a*n + b >= 2 has no prime factor in
    ``base`` other than itself.  When ``base`` holds every prime up to the
    square root of the largest value, that is exactly where a*n + b is
    prime.  Base primes must be below 2**32.

    p divides a*n + b exactly when n = -b * a^-1 (mod p); these roots are
    found once for all base primes.  A prime dividing a but not b never
    divides a value, and one dividing both divides every value.  Per
    block, primes below the block length strike their residue class by
    strided slices, and all larger primes (at most one hit each) by one
    fancy-index assignment.
    """
    if base.size and base[-1] >> 32:
        raise DomainError(f"base prime {base[-1]} is not below 2**32")
    ps = base.astype(np.uint64)
    ar, br = _residues(a, base).astype(np.uint64), _residues(b, base).astype(np.uint64)
    covers = bool(np.any((ar == 0) & (br == 0)))
    keep = ar != 0
    ps, ar, br = ps[keep], ar[keep], br[keep]
    # a^-1 = a^(p-2) mod p; every product stays below p**2 < 2**64
    inv, e = np.ones_like(ps), ps - 2
    while e.any():
        inv = np.where(e & 1, inv * ar % ps, inv)
        ar = ar * ar % ps
        e >>= 1
    roots = ((ps - br) % ps * inv % ps).astype(np.int64)
    ps = ps.astype(np.int64)
    top_base = int(base[-1]) if base.size else 0

    def mask(lo: int, hi: int) -> np.ndarray:
        out = np.full(hi - lo, not covers)
        if not covers:
            starts = (roots - lo % ps) % ps
            small = np.searchsorted(ps, hi - lo)
            for p, s in zip(ps[:small].tolist(), starts[:small].tolist()):
                out[s::p] = False
            big = starts[small:]
            out[big[big < hi - lo]] = False
        if a * lo + b <= top_base:  # a value may be a base prime itself
            own = base[(base >= a * lo + b) & (base <= min(a * (hi - 1) + b, top_base))]
            own = own[(own - b) % a == 0]
            out[(own - b) // a - lo] = True
        out[: max(0, -(-(2 - b) // a) - lo)] = False
        return out

    return mask


# ---------------------------------------------------------------------------
# the factor sieve window and its blocked multiplicative kernel


@dataclass(eq=False)
class FactorSieve:
    """The window [lo, hi] with the base primes <= sqrt(hi) that factor it.

    The range functions sieve the window block by block against
    ``base_primes``; ``memory_budget`` is the byte budget resolved by
    ``build_factor_sieve`` and bounds every table they allocate.
    """

    lo: int
    hi: int
    block_size: int
    base_primes: np.ndarray = field(repr=False)
    memory_budget: int = field(repr=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def spf_of(self, n: int) -> int:
        """Smallest prime factor of n (returns n itself for primes, 1 for 1)."""
        if not self.lo <= n <= self.hi:
            raise DomainError(f"n={n} outside sieve window [{self.lo}, {self.hi}]")
        ps = self.base_primes[: np.searchsorted(self.base_primes, math.isqrt(n), side="right")]
        hits = np.flatnonzero(n % ps == 0)
        return int(ps[hits[0]]) if hits.size else max(n, 1)


def build_factor_sieve(
    lo: int,
    hi: int,
    block_size: int = _DEFAULT_BLOCK,
    memory_budget: int | None = None,
) -> FactorSieve:
    """Prepare the inclusive window [lo, hi] for the range functions.

    Parameters
    ----------
    lo, hi : int
        Window endpoints, 1 <= lo <= hi <= 2**50.
    block_size : int
        Segment length used by the range functions.  Their results are
        independent of this value.
    memory_budget : int, optional
        Byte budget; defaults to the OMEGALAB_MEMORY_BUDGET environment
        variable or 2e9.  A window whose smallest table (one byte per n)
        cannot fit raises ResourceError here; each range function checks
        its own table against the same budget before allocating it.

    Returns
    -------
    FactorSieve
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > MAX_SIEVE_HI:
        raise DomainError(f"hi={hi} exceeds supported limit 2**50")
    if block_size < 1:
        raise DomainError("block_size must be positive")
    budget = _memory_budget(memory_budget)
    _check_budget(hi - lo + 1 + math.isqrt(hi) + 1, budget, f"factor sieve for [{lo}, {hi}]")
    return FactorSieve(
        lo=lo, hi=hi, block_size=block_size,
        base_primes=primes_up_to(math.isqrt(hi)), memory_budget=budget,
    )


def _sieve_table(sieve: FactorSieve, dtype, one: int, step, threads: int | None = 1) -> np.ndarray:
    """The multiplicative (or additive) function f over the sieve window.

    The table starts at f(1) = ``one``.  Per block, each base prime
    p <= sqrt(block end) is divided out of an int64 cofactor along the
    strides of p, p**2, ..., and ``step(v, k, p)`` updates in place the
    table slice ``v`` at the multiples of p**k from the contribution of
    p**(k-1) to that of p**k.  What is left of the cofactor is 1 or a
    single prime, stepped in last with k = 1.  Blocks touch disjoint
    slices of the table, so the result is invariant under block size and
    thread count.
    """
    lo, hi, bs, base = sieve.lo, sieve.hi, sieve.block_size, sieve.base_primes
    size = hi - lo + 1
    workers = min(max(1, threads or 1), -(-size // bs))
    dtype = np.dtype(dtype)
    _check_budget(
        dtype.itemsize * size + _BLOCK_SCRATCH * min(bs, size) * workers,
        sieve.memory_budget,
        f"{dtype.name} table for [{lo}, {hi}]",
    )
    out = np.full(size, one, dtype=dtype)

    def block(a: int) -> None:
        b = min(a + bs, hi + 1)
        view = out[a - lo : b - lo]
        rem = np.arange(a, b, dtype=np.int64)
        for p in base[: np.searchsorted(base, math.isqrt(b - 1), side="right")].tolist():
            pk, k = p, 1
            while (s := (-a) % pk) < b - a:
                rem[s::pk] //= p
                step(view[s::pk], k, p)
                pk, k = pk * p, k + 1
        big = rem > 1
        v = view[big]
        step(v, 1, rem[big])
        view[big] = v

    if workers == 1:
        for a in range(lo, hi + 1, bs):
            block(a)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(block, range(lo, hi + 1, bs)))
    return out


def _omega_step(v: np.ndarray, k: int, p) -> None:
    if k == 1:
        v += 1


def _tau_step(v: np.ndarray, k: int, p) -> None:
    # tau gains the factor e + 1 for p**e || n, one ratio (k + 1) / k at a time
    if k > 1:
        v //= k
    v *= k + 1


def _phi_step(v: np.ndarray, k: int, p) -> None:
    # phi gains (p - 1) * p**(e - 1) for p**e || n
    v *= p - 1 if k == 1 else p


def omega_range(sieve: FactorSieve, threads: int | None = None) -> np.ndarray:
    """Number of distinct prime factors for every n in the sieve window.

    Returns a uint8 array where index i corresponds to n = sieve.lo + i.
    The result is invariant under block size and thread count.
    """
    return _sieve_table(sieve, np.uint8, 0, _omega_step, threads)


def tau_range(sieve: FactorSieve) -> np.ndarray:
    """Divisor counts tau(n) over the window as an int32 array."""
    return _sieve_table(sieve, np.int32, 1, _tau_step)


def phi_range(sieve: FactorSieve) -> np.ndarray:
    """Euler phi(n) over the window as an int64 array."""
    return _sieve_table(sieve, np.int64, 1, _phi_step)


# ---------------------------------------------------------------------------
# scalar primality and factorization

# Deterministic Miller-Rabin witness set: the first 13 primes are complete
# below psi_13, the least strong pseudoprime to all of them (Sorenson &
# Webster, Math. Comp. 86 (2017)).  The first 12 are not: psi_12 < psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 3.3e24."""
    n = int(n)
    if n < 0 or n >= _MR_LIMIT:
        raise DomainError(f"n={n} outside supported primality range [0, {_MR_LIMIT})")
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """False when one of the bases proves n >= 0 composite.  True proves n
    prime only below _MR_LIMIT; any n it rejects is certainly composite."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SMALL_PRIMES = [int(p) for p in primes_up_to(1000)]


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, exact integer arithmetic."""
    if n < 2:
        return n
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, deterministic constant sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"rho failed to split {n}")  # unreachable in practice


@dataclass(frozen=True)
class Factorization:
    """Certified factorization n = prod p**e with p ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def tau(self) -> int:
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t

    @property
    def phi(self) -> int:
        v = self.n
        for p, _ in self.factors:
            v = v // p * (p - 1)
        return v

    def verify(self) -> bool:
        prod = 1
        for p, e in self.factors:
            if not is_prime(p):
                return False
            prod *= p**e
        return prod == self.n


def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1; every prime is certified by is_prime.

    Trial division below 1000, then perfect-power detection and Brent's
    cycle method on what remains.  A cofactor that the Miller-Rabin rounds
    prove composite is split at any size; one that passes them at or above
    the certified primality range raises DomainError.  Deterministic.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    powers: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _miller_rabin(m):
            if m >= _MR_LIMIT:
                raise DomainError(
                    f"cofactor {m} of {n} passes Miller-Rabin but lies outside the "
                    f"certified primality range [0, {_MR_LIMIT})"
                )
            powers[m] = powers.get(m, 0) + 1
            continue
        split = None
        for k in (2, 3, 5, 7):
            r = _iroot(m, k)
            if r**k == m:
                split = [r] * k
                break
        if split is None:
            d = _brent_rho(m)
            split = [d, m // d]
        stack.extend(split)
    fac = Factorization(n=n, factors=tuple(sorted(powers.items())))
    if not fac.verify():
        raise RuntimeError(f"factorization of {n} failed certification")
    return fac


def omega(n: int) -> int:
    """Number of distinct prime factors (omega(1) = 0)."""
    return factorize(n).omega


def tau(n: int) -> int:
    """Number of divisors."""
    return factorize(n).tau


def phi(n: int) -> int:
    """Euler totient."""
    return factorize(n).phi

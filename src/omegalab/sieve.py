"""Exact multiplicative backbone: one blocked multiplicative sieve for the
omega/tau/phi range tables, one block sieve over n for the values of
linear forms a*n + b (behind the primes themselves, as the odd numbers
2i + 1, and omegalab.tuples), and certified scalar factorization.  Both
sieves strike residue classes block by block through one helper,
``_strikes``: a strided slice for a modulus with more than _DENSE_HITS
(64) hits in the block, one gathered offset array for the rest.  The
tables take the first power of the primes up to 13 from a wheel, one
period of 30030 copied across each block, and keep the product of the
prime powers found in uint32 while the window ends below 2**32.  The one
prime factor of n above the square root of the block end is stepped in
by one contiguous pass over the block.  Every allocation is first
reserved by ``_reserve`` against OMEGALAB_MEMORY_BUDGET, read anew at
each call.

Conventions used throughout: omega(1) = 0, tau(1) = 1, phi(1) = 1.
Range functions return plain numpy arrays where index i corresponds to
n = lo + i.  Everything here is deterministic; the parallel paths split
the range into fixed blocks whose results do not depend on the thread
count or on block boundaries.
"""

from __future__ import annotations

import bisect
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
_DEFAULT_BLOCK = 1 << 20  # numbers per block of either sieve
_BLOCK_SCRATCH = 24  # bytes per n of one table block: the product and the leftover pass, 17 at most
_DENSE_HITS = 64  # a modulus with more hits per block strikes by a strided slice
_STRIKE_CHUNK = 1 << 13  # moduli per _strikes call of one table level
_LEVEL_BYTES = 40  # per base prime: a table level's int64 moduli and primes, the next level's, keep
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)  # level 1 of these is one periodic pattern of the tables
_WHEEL = math.prod(_WHEEL_PRIMES)  # 30030
_SMALL_LIMIT = 1000  # primes_up_to(n) for n up to this is a slice of _SMALL_PRIMES
_SMALL_PRIMES: list[int] = []  # the primes up to _SMALL_LIMIT, filled in at import below


def _reserve(nbytes: int, what: str) -> None:
    """Raise ResourceError unless nbytes fit the budget read from the
    environment now."""
    budget = int(os.environ.get(_BUDGET_ENV, _DEFAULT_BUDGET))
    if nbytes > budget:
        raise ResourceError(
            f"{what} needs ~{nbytes} bytes but the memory budget is {budget} "
            f"bytes (override via {_BUDGET_ENV})"
        )


def _pi_bound(x: int) -> int:
    """An upper bound on the number of primes <= x: pi(x) < 1.25506 x / ln x
    for x > 1 (Rosser & Schoenfeld, 1962)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array: 2, then the odd primes as the form
    2i + 1 sieved block by block over i by primes_up_to(isqrt(n)) (2 divides
    no value, so only the odd numbers are ever struck), down to the primes
    up to 1000 that are sieved once, at import."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if n <= _SMALL_LIMIT and _SMALL_PRIMES:
        return np.array(_SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, n)], dtype=np.int64)
    _reserve(16 * _pi_bound(n), f"primes up to {n}")  # the blocks' primes, then their join
    blocks = _form_blocks([(2, 1)], math.isqrt(n), (n - 1) // 2)
    return np.concatenate([[2], *(2 * (np.flatnonzero(mask) + lo) + 1 for lo, mask in blocks)])


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1 with mask[k] true iff k is prime."""
    _reserve(max(n + 1, 0), f"prime mask up to {n}")
    mask = np.zeros(max(n + 1, 0), dtype=bool)
    mask[primes_up_to(n)] = True
    return mask


# ---------------------------------------------------------------------------
# striking residue classes in a block; sieving the values of a linear form


def _strikes(ms: np.ndarray, starts: np.ndarray, n: int):
    """Plan the hits of the classes starts mod ms (0 <= starts < ms) in [0, n).

    Returns ``(dense, offsets, which)``: ``dense`` masks the moduli with
    more than _DENSE_HITS hits, each struck by the caller as the slice
    ``[start::m]``.  Every hit of the others is one entry of ``offsets``
    (repeated where two moduli meet) and ``which`` indexes its modulus;
    ``np.repeat`` builds both, with no Python loop per modulus.
    """
    hits = (n - starts + ms - 1) // ms
    dense = hits > _DENSE_HITS
    counts = np.where(dense, 0, hits)
    which = np.repeat(np.arange(ms.size), counts)
    offsets = np.arange(which.size) - np.repeat(np.cumsum(counts) - counts, counts)
    offsets *= ms[which]
    offsets += starts[which]
    return dense, offsets, which


def _strike_bytes(ms: np.ndarray, n: int) -> int:
    """Scratch of one ``_strikes`` call over the moduli ms in [0, n), hits
    included: 64 bytes per modulus and 40 per gathered hit, of which a
    modulus m plans at most min(_DENSE_HITS, ceil(n / m))."""
    return 64 * ms.size + 40 * int(np.minimum(-(-n // ms), _DENSE_HITS).sum())


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
    block, ``_strikes`` plans the hits of the roots.
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
        starts = (roots - lo % ps) % ps
        dense, offsets, _ = _strikes(ps, starts, hi - lo)
        for p, s in zip(ps[dense].tolist(), starts[dense].tolist()):
            out[s::p] = False
        out[offsets] = False
        if a * lo + b <= top_base:  # a value may be a base prime itself
            own = base[(base >= a * lo + b) & (base <= min(a * (hi - 1) + b, top_base))]
            own = own[(own - b) % a == 0]
            out[(own - b) // a - lo] = True
        out[: max(0, -(-(2 - b) // a) - lo)] = False
        return out

    return mask


def _form_blocks(pairs, bound: int, n_max: int):
    """(lo, mask) over ascending blocks [lo, lo + len(mask)) of [1, n_max];
    mask is True where no value a*n + b of the forms (a, b) in ``pairs`` is
    below 2 or has a prime factor up to ``bound`` other than itself.  Once
    the base primes are listed, their roots for each form, one form's
    strikes and two block masks are reserved before the first block.
    """
    base = primes_up_to(bound)
    block = min(n_max, _DEFAULT_BLOCK)
    _reserve(
        # int64 entries per base prime: the base, each form's primes and
        # roots, and the transient root arithmetic
        8 * (2 * len(pairs) + 6) * base.size + _strike_bytes(base, block) + 2 * block,
        f"block sieve of {len(pairs)} forms by the primes up to {bound}",
    )
    sieves = [_form_sieve(a, b, base) for a, b in pairs]
    for lo in range(1, n_max + 1, _DEFAULT_BLOCK):
        hi = min(lo + _DEFAULT_BLOCK, n_max + 1)
        acc = sieves[0](lo, hi)
        for mask in sieves[1:]:
            acc &= mask(lo, hi)
        yield lo, acc


# ---------------------------------------------------------------------------
# the factor sieve window and its blocked multiplicative kernel


@dataclass(eq=False)
class FactorSieve:
    """The window [lo, hi] with the base primes <= sqrt(hi) that factor it.

    The range functions sieve the window block by block against them.
    """

    lo: int
    hi: int
    base_primes: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def build_factor_sieve(lo: int, hi: int) -> FactorSieve:
    """Prepare the inclusive window [lo, hi] for the range functions.

    A window whose smallest table (one byte per n) cannot fit the
    OMEGALAB_MEMORY_BUDGET next to its base primes raises ResourceError
    here; each range function reserves its own table and block scratch
    before allocating them.

    Parameters
    ----------
    lo, hi : int
        Window endpoints, 1 <= lo <= hi <= 2**50.

    Returns
    -------
    FactorSieve
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > MAX_SIEVE_HI:
        raise DomainError(f"hi={hi} exceeds supported limit 2**50")
    root = math.isqrt(hi)
    _reserve(hi - lo + 1 + 8 * _pi_bound(root), f"factor sieve for [{lo}, {hi}]")
    return FactorSieve(lo, hi, primes_up_to(root))


def _sieve_table(sieve: FactorSieve, dtype, one: int, step, threads: int | None = 1) -> np.ndarray:
    """The multiplicative (or additive) function f over the sieve window.

    ``step(k, p)`` lists the updates ``(ufunc, x)`` that take f at the
    multiples of p**k from the contribution of p**(k-1) to that of p**k;
    f(1) = ``one``.  Per block, the product of the prime powers found is
    kept next to the table slice.  It divides some n <= hi, so it is a
    uint32 array when hi < 2**32, which halves the bytes that the strided
    strikes touch, and an int64 one otherwise.

    - Level 1 of the wheel primes 2, 3, 5, 7, 11, 13 repeats with period
      30030 in f and in the product: it is struck into the first period
      of the block and copied forward, a doubling run of periods per
      contiguous copy (the wheel of Pritchard, Acta Informatica 17
      (1982)).
    - Level k of every other base prime p <= sqrt(block end), and levels
      k >= 2 of the wheel primes, strike the multiples of p**k below the
      block end through ``_strikes``, at most _STRIKE_CHUNK moduli at a
      time.
    - Where the product stays below n, the one prime factor q of n above
      sqrt(block end) is stepped in with k = 1, in one contiguous pass
      over the block.  An update that does not read the prime (omega's
      + 1, tau's * 2) takes x where the product is below n and the
      ufunc's identity elsewhere.  phi's q - 1 reads it: n // product is
      q, or 1 where no prime is left over, and the block is multiplied
      by that quotient less 1 where it exceeds 1.

    Blocks touch disjoint slices of the table, so the result is invariant
    under block size and thread count.
    """
    lo, hi, base, bs = sieve.lo, sieve.hi, sieve.base_primes, _DEFAULT_BLOCK
    size = hi - lo + 1
    workers = min(max(1, threads or 1), -(-size // bs))
    dtype = np.dtype(dtype)
    scratch = (  # per worker
        _BLOCK_SCRATCH * min(bs, size)
        # the first chunk of level 1 plans the most hits: later chunks and
        # higher levels strike larger moduli
        + _strike_bytes(base[:_STRIKE_CHUNK], min(bs, size))
        + _LEVEL_BYTES * base.size
    )
    _reserve(dtype.itemsize * size + workers * scratch, f"{dtype.name} table for [{lo}, {hi}]")
    reads_prime = step(1, 2) != step(1, 3)  # phi's level-1 update reads p; omega's and tau's do not
    prod_type = np.uint32 if hi >> 32 == 0 else np.int64  # the product divides some n <= hi
    out = np.empty(size, dtype=dtype)

    def block(a: int) -> None:
        b = min(a + bs, hi + 1)
        view, prod = out[a - lo : b - lo], np.empty(b - a, dtype=prod_type)
        w = min(b - a, _WHEEL)
        view[:w], prod[:w] = one, 1
        for p in _WHEEL_PRIMES:
            s = (-a) % p
            prod[s:w:p] *= p
            v = view[s:w:p]
            for op, x in step(1, p):
                op(v, x, out=v)
        while w < b - a:  # [0, w) is a whole number of periods
            c = min(w, b - a - w)
            view[w : w + c], prod[w : w + c] = view[:c], prod[:c]
            w += c
        ps = base[: np.searchsorted(base, math.isqrt(b - 1), side="right")]
        ms, k = ps, 1
        while ms.size:
            for i in range(len(_WHEEL_PRIMES) if k == 1 else 0, ms.size, _STRIKE_CHUNK):
                cm, cp = ms[i : i + _STRIKE_CHUNK], ps[i : i + _STRIKE_CHUNK]
                starts = (-a) % cm
                dense, offsets, which = _strikes(cm, starts, b - a)
                for m, s, p in zip(cm[dense].tolist(), starts[dense].tolist(), cp[dense].tolist()):
                    prod[s::m] *= p
                    v = view[s::m]
                    for op, x in step(k, p):
                        op(v, x, out=v)
                # ufunc.at, since two primes may hit one n; levels run in order
                p = cp[which]
                np.multiply.at(prod, offsets, p.astype(prod_type, copy=False))
                for op, x in step(k, p):
                    op.at(view, offsets, np.asarray(x, dtype))  # a Python int slows ufunc.at
                del starts, offsets, which, p  # before the next chunk's hits
            keep = ms <= (b - 1) // ps  # p**(k+1) < b, without overflow
            ps, ms = ps[keep], ms[keep]
            ms *= ps
            k += 1
        n = np.arange(a, b, dtype=prod_type)
        if reads_prime:  # phi: n // prod is the prime left over, or 1 where none is
            n //= prod
            n -= n > 1  # q - 1 for a prime q, and 1 stays 1
            view *= n
            return
        big = prod < n  # x where big, the ufunc's identity elsewhere
        del prod, n
        for op, x in step(1, 2):
            u = big * dtype.type(x - op.identity)
            u += op.identity
            op(view, u, out=view)

    los = range(lo, hi + 1, bs)

    def stride(w: int) -> None:  # one task per worker, not one per block
        for a in los[w::workers]:
            block(a)

    if workers == 1:
        stride(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(stride, range(workers)))
    return out


def _omega_step(k: int, p):
    return ((np.add, 1),) if k == 1 else ()


def _tau_step(k: int, p):
    # tau gains the factor e + 1 for p**e || n, one ratio (k + 1) / k at a time
    return ((np.multiply, 2),) if k == 1 else ((np.floor_divide, k), (np.multiply, k + 1))


def _phi_step(k: int, p):
    # phi gains (p - 1) * p**(e - 1) for p**e || n
    return ((np.multiply, p - 1 if k == 1 else p),)


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


_SMALL_PRIMES = primes_up_to(_SMALL_LIMIT).tolist()


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, exact integer arithmetic."""
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
        return math.prod(e + 1 for _, e in self.factors)

    @property
    def phi(self) -> int:
        v = self.n
        for p, _ in self.factors:
            v = v // p * (p - 1)
        return v

    def verify(self) -> bool:
        primes = all(is_prime(p) for p, _ in self.factors)
        return primes and math.prod(p**e for p, e in self.factors) == self.n


def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1 into certified primes.

    Trial division below 1000 certifies a cofactor m > 1 as prime once the
    next trial prime p has p * p > m.  What remains goes to perfect-power
    detection and Brent's cycle method, and each prime found is certified
    by the Miller-Rabin rounds below their limit.  A cofactor that those
    rounds prove composite is split at any size; one that passes them at
    or above the certified primality range raises DomainError.
    Deterministic.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    powers: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            if m > 1:  # no prime factor below p, and p * p > m: m is prime
                powers[m] = 1
            m = 1
            break
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
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
    if math.prod(p**e for p, e in powers.items()) != n:
        raise RuntimeError(f"factorization of {n} failed certification")
    return Factorization(n=n, factors=tuple(sorted(powers.items())))


def omega(n: int) -> int:
    """Number of distinct prime factors (omega(1) = 0)."""
    return factorize(n).omega


def tau(n: int) -> int:
    """Number of divisors."""
    return factorize(n).tau


def phi(n: int) -> int:
    """Euler totient."""
    return factorize(n).phi

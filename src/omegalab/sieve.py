"""Exact multiplicative backbone: one blocked multiplicative sieve for the
omega/tau/phi range tables, one block sieve over n for the values of
linear forms a*n + b (behind the primes themselves, as the odd numbers
2i + 1, and omegalab.tuples), and certified scalar factorization.  Both
sieves strike residue classes block by block through one helper,
``_strikes``: a strided slice for a modulus with more than _DENSE_HITS
(64) hits in the block, one gathered offset array for the rest.  The
tables take the first power of the primes up to 13 from a wheel, one
period of 30030 copied across each block.  The one prime factor of n
above the square root of the block end is stepped in by one contiguous
pass over the block: phi reads it off the product of the prime powers
found (uint32 below 2**32); omega and tau read one count of primes from a
uint16 sum of rounded logs, which also tells where it exists, exactly up
to 2**50 (the margin is proved at ``_sieve_table``).
Every allocation is first reserved by ``_reserve`` against
OMEGALAB_MEMORY_BUDGET, read anew at each call.

Conventions used throughout: omega(1) = 0, tau(1) = 1, phi(1) = 1.
Range functions return plain numpy arrays where index i corresponds to
n = lo + i.  Everything here is deterministic, and no result depends on
block boundaries.
"""

from __future__ import annotations

import bisect
import math
import os
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
_DENSE_HITS = 64  # a modulus with more hits per block strikes by a strided slice
_STRIKE_CHUNK = 1 << 13  # moduli per _strikes call of one table level, and n per step of phi's leftover pass
_LEVEL_BYTES = 40  # per base prime: a table level's int64 moduli and primes, the next level's, keep
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)  # level 1 of these is one periodic pattern of the tables
_WHEEL = math.prod(_WHEEL_PRIMES)  # 30030
_SMALL_LIMIT = 1000  # primes_up_to(n) for n up to this is a slice of _SMALL_PRIMES
_SMALL_PRIMES: list[int] = []  # the primes up to _SMALL_LIMIT, filled in at import below
_RHO_STEPS = 1 << 22  # rho work allowed per cofactor, in steps on 64-bit words; see CHANGES.md


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


def _thresholds(a: int, b: int):
    """(i, j, t) over the pieces [a + i, a + j) that tile the block [a, b):
    t = 16 * max(0, floor(64 log2 c) - 30) for the piece start c, and a
    piece ends before c + c/12, so log2 n moves by less than
    log2(13/12) < 0.1155 bit across it."""
    c = a
    while c < b:  # t = 0 only at n = 1, which has no prime factor
        d = min(b, c + max(1, c // 12))
        yield c - a, d - a, 16 * max(0, math.floor(64 * math.log2(c)) - 30)
        c = d


def _log_marks(ps: np.ndarray) -> np.ndarray:
    """16 * round(64 log2 p) for each prime p, as uint16."""
    x = np.log2(ps)
    x *= 64
    return np.rint(x, out=x).astype(np.uint16) * np.uint16(16)


def _sieve_table(sieve: FactorSieve, dtype, step) -> np.ndarray:
    """The multiplicative (or additive) function f over the sieve window.

    ``step(k, p)`` lists the updates ``(ufunc, x)`` that take the table at
    the multiples of p**k from the contribution of p**(k-1) to that of
    p**k, from a table of ones.  ``step`` None is omega, the count of
    distinct primes, which the table takes from the accumulator alone.

    Per block, an accumulator sits next to the table slice, allocated once
    per call and reused by every block.  For phi it is the product of the
    prime powers found: it divides some n <= hi, so it is a uint32 array
    when hi < 2**32 and an int64 one otherwise.  For omega and tau it is a
    uint16 sum: a strike of p**k adds 16 * l_p, l_p = round(64 log2 p),
    and a level-1 strike adds 1 more, so that the low 4 bits count the
    primes found (the log-sum sieve of the quadratic sieve; Pomerance,
    EUROCRYPT '84).  tau's level-2 strikes take the 1 back: tau(n) = 2**c
    * prod (e + 1) over p**e || n with e >= 2, c counting the first powers.

    - Level 1 of the wheel primes 2, 3, 5, 7, 11, 13 repeats with period
      30030 in f and in the accumulator: it is struck into the first
      period of the block and copied forward, a doubling run of periods
      per contiguous copy (the wheel of Pritchard, Acta Informatica 17
      (1982)).
    - Level k of every other base prime p <= sqrt(block end), and levels
      k >= 2 of the wheel primes, strike the multiples of p**k below the
      block end through ``_strikes``, at most _STRIKE_CHUNK moduli at a
      time.
    - At most one prime factor q of n is above sqrt(block end); it is
      stepped in with k = 1, in one contiguous pass over the block.  phi
      multiplies by q - 1 where n // product = q exceeds 1 (n is made
      _STRIKE_CHUNK numbers at a time).  omega and tau only ask whether q
      exists: where the log sum L = acc >> 4 is below a threshold T(n), q
      adds 1 to the count c in the low 4 bits.  omega's table is c, and
      tau's is shifted left by c.

    Why the log test is exact.  Let x = 64 log2 n.  n <= 2**50 takes at
    most log2 n <= 50 strikes, each l_p within 1/2 of 64 log2 p, so L is
    within 25 of 64 log2 of the part of n that the strikes find.  With no
    q, that part is n and L >= x - 25.  With q >= 2 it is n / q <= 2**49,
    struck at most 49 times, so L <= x - 64 + 24.5 = x - 39.5.  Any T(n)
    in (x - 39.5, x - 25] tells the two apart.  ``_thresholds`` takes
    T(n) = floor(64 log2 c) - 30 on pieces [c, c') over which x grows by
    less than 64 log2(13/12) < 7.4, so x - 7.4 - 31 < T(n) <= x - 30:
    both margins exceed one unit, far above the float error of the logs,
    and no log is taken per n.  The bits fit: L <= 64 * 50 + 25 = 3225,
    and tau's count c, like omega's, is at most omega(n) <= 13 below 2**50
    (41# < 2**50 < 43#), so 16 * L + 13 < 2**16; and 16 * L + c < 16 * T
    exactly when L < T, with no mask.  tau's take-back never borrows, as
    level 1 runs before level 2 in every block.

    Blocks touch disjoint slices of the table, so the result is invariant
    under block size.
    """
    lo, hi, base, bs = sieve.lo, sieve.hi, sieve.base_primes, _DEFAULT_BLOCK
    size = hi - lo + 1
    width = min(bs, size)  # of the longest block
    dtype = np.dtype(dtype)
    updates = step or (lambda k, p: ())
    logs = step is not _phi_step  # omega and tau count primes; phi multiplies them out
    acc_type = np.dtype(np.uint16 if logs else np.uint32 if hi >> 32 == 0 else np.int64)
    scratch = (  # reused by every block
        (acc_type.itemsize + logs) * width  # the accumulator, and omega's and tau's mask
        + acc_type.itemsize * min(width, _STRIKE_CHUNK)  # phi's n, a chunk at a time
        + 2 * base.size  # the log marks
        # the first chunk of level 1 plans the most hits: later chunks and
        # higher levels strike larger moduli
        + _strike_bytes(base[:_STRIKE_CHUNK], width)
        + _LEVEL_BYTES * base.size
    )
    _reserve(dtype.itemsize * size + scratch, f"{dtype.name} table for [{lo}, {hi}]")
    out = np.empty(size, dtype=dtype)
    accs = np.empty(width, dtype=acc_type)
    mark = np.add if logs else np.multiply  # how a strike enters the accumulator
    if logs:
        bigs = np.empty(width, dtype=bool)  # where a prime is left over
        ells = np.empty(base.size, dtype=np.uint16)  # a chunk at a time, so the float scratch stays small
        for i in range(0, base.size, _STRIKE_CHUNK):
            ells[i : i + _STRIKE_CHUNK] = _log_marks(base[i : i + _STRIKE_CHUNK])

    def marks(k: int, i: int, ps: np.ndarray) -> np.ndarray:
        """What a strike of p**k adds to (or multiplies into) the
        accumulator, for the primes ps = base[i : i + ps.size]: each level
        keeps a prefix of the base primes, those with p**(k+1) < b."""
        if not logs:
            return ps.astype(acc_type, copy=False)
        ls = ells[i : i + ps.size]
        return ls + 1 if k == 1 else ls - 1 if k == 2 and step else ls  # a prime found; tau's take-back

    wheel = (_log_marks(np.array(_WHEEL_PRIMES)) + 1).tolist() if logs else _WHEEL_PRIMES
    for a in range(lo, hi + 1, bs):
        b = min(a + bs, hi + 1)
        view, acc = out[a - lo : b - lo], accs[: b - a]
        w = min(b - a, _WHEEL)
        acc[:w], view[:w] = 0 if logs else 1, 1
        for p, v in zip(_WHEEL_PRIMES, wheel):
            s = (-a) % p
            u = acc[s:w:p]
            mark(u, v, out=u)
            u = view[s:w:p]
            for op, x in updates(1, p):
                op(u, x, out=u)
        while w < b - a:  # [0, w) is a whole number of periods
            c = min(w, b - a - w)
            view[w : w + c], acc[w : w + c] = view[:c], acc[:c]
            w += c
        ps = base[: np.searchsorted(base, math.isqrt(b - 1), side="right")]
        ms, k = ps, 1
        while ms.size:
            for i in range(len(_WHEEL_PRIMES) if k == 1 else 0, ms.size, _STRIKE_CHUNK):
                cm, cp = ms[i : i + _STRIKE_CHUNK], ps[i : i + _STRIKE_CHUNK]
                vs = marks(k, i, cp)
                starts = (-a) % cm
                dense, offsets, which = _strikes(cm, starts, b - a)
                dense_cols = cm[dense].tolist(), starts[dense].tolist(), cp[dense].tolist(), vs[dense].tolist()
                for m, s, p, v in zip(*dense_cols):
                    u = acc[s::m]
                    mark(u, v, out=u)
                    u = view[s::m]
                    for op, x in updates(k, p):
                        op(u, x, out=u)
                # ufunc.at, since two primes may hit one n; levels run in order
                mark.at(acc, offsets, vs[which])
                for op, x in updates(k, cp[which]):
                    op.at(view, offsets, np.asarray(x, dtype))  # a Python int slows ufunc.at
                del vs, starts, offsets, which  # before the next chunk's hits
            keep = ms <= (b - 1) // ps  # p**(k+1) < b, without overflow
            ps, ms = ps[keep], ms[keep]
            ms *= ps
            k += 1
        if not logs:  # phi: n // prod is the prime left over, or 1 where none is
            for i in range(0, b - a, _STRIKE_CHUNK):
                u = acc[i : i + _STRIKE_CHUNK]
                np.floor_divide(np.arange(a + i, a + i + u.size, dtype=acc_type), u, out=u)
            acc -= 1
            np.maximum(acc, 1, out=acc)  # q - 1 for a prime q, and 1 stays 1
            view *= acc
            continue
        big = bigs[: b - a]
        for i, j, t in _thresholds(a, b):
            np.less(acc[i:j], t, out=big[i:j])  # L < T(n): a prime is left over
        acc &= 15
        acc += big  # the count c, the prime left over included
        if step is None:
            view[...] = acc
        else:
            view <<= acc
    return out


def _tau_step(k: int, p):
    # the factor e + 1 for p**e || n with e >= 2, one ratio (k + 1) / k at a time
    return () if k == 1 else ((np.multiply, 3),) if k == 2 else ((np.floor_divide, k), (np.multiply, k + 1))


def _phi_step(k: int, p):
    # phi gains (p - 1) * p**(e - 1) for p**e || n
    return ((np.multiply, p - 1 if k == 1 else p),)


def omega_range(sieve: FactorSieve, threads: int | None = None) -> np.ndarray:
    """Number of distinct prime factors for every n in the sieve window.

    Returns a uint8 array where index i corresponds to n = sieve.lo + i.
    threads is accepted and ignored so that existing callers that pass it
    keep working.
    """
    return _sieve_table(sieve, np.uint8, None)


def tau_range(sieve: FactorSieve) -> np.ndarray:
    """Divisor counts tau(n) over the window as an int32 array."""
    return _sieve_table(sieve, np.int32, _tau_step)


def phi_range(sieve: FactorSieve) -> np.ndarray:
    """Euler phi(n) over the window as an int64 array."""
    return _sieve_table(sieve, np.int64, _phi_step)


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
    """Floor of the k-th root of n >= 1: integer Newton steps, which fall
    monotonically onto it from the start 2**ceil(bits/k) above it."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, deterministic constant sweep.

    Raises ResourceError once the steps of the map y -> y^2 + c, over all
    constants c, have not split n within _RHO_STEPS units of work, a step
    costing one unit per started 64 bits of n.
    """
    steps, units = 0, -(-n.bit_length() // 64)
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
            steps += r + min(k, r)
            if g == 1 and steps * units > _RHO_STEPS:
                raise ResourceError(f"rho found no factor of the cofactor {n} in {steps} steps")
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

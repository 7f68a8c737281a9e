"""Exact multiplicative backbone: one blocked multiplicative sieve for the
omega/tau/phi range tables, one block sieve over n for the values of
linear forms a*n + b (behind the primes themselves, as the odd numbers
2i + 1, and omegalab.tuples), and certified scalar factorization.  The
primes come block by block from ``_prime_blocks``: ``primes_up_to`` joins
the blocks, and the Euler products of omegalab.linforms read them one at
a time, in O(block) memory, so only this module lists primes.  omega
over a run of integers streams the same way, from ``_omega_blocks``: one
omega table of the kernel per block up to 2**50, and ``factorize`` past
it.  The series numerators and the omega histogram read it block by
block, so only this module decides how and in what memory omega is
obtained.  Both sieves strike residue classes block by block, split once
per pass by ``_dense``: the ascending primes whose moduli have more than
_DENSE_HITS (64) hits per block are a prefix, each struck by a strided
slice, and ``_strikes`` plans one gathered offset array for the rest.  One
cap, _CHUNK_BYTES (2 MiB), bounds every chunked numpy pass:
``_plan_chunks`` cuts the rest so that no call plans more, and phi's
leftover steps and the log terms of omegalab.linforms are sized by it.
The table kernel, ``_sieve_table``, is told which table it builds, omega,
tau or phi.  It strikes the first power of each base prime (through a
wheel of period 30030 for the primes up to 13), finds each exponent by
one pass over the multiples of p**2, and steps in the one prime factor
above the square root of the block end by one contiguous pass: phi as a
float64 quotient of n, omega and tau from a uint16 sum of rounded logs,
exactly up to 2**50 (both proved there).  Every allocation is first
reserved by ``_reserve`` against OMEGALAB_MEMORY_BUDGET, read anew at
each call.

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
_CHUNK_BYTES = 1 << 21  # scratch cap of every chunked numpy pass: strike plans, phi's leftover steps, log terms
_WHEEL_PRIMES = np.array([2, 3, 5, 7, 11, 13])  # level 1 of these is one periodic pattern of the tables
_WHEEL = math.prod(_WHEEL_PRIMES.tolist())  # 30030
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


def _pi_bound(x: int, lo: int = 0) -> int:
    """An upper bound on the number of primes in (lo, x]: pi(x) < 1.25506
    x / ln x for x > 1 (Rosser & Schoenfeld, 1962), or, where less, the
    bound 2y / ln y for y = x - lo > 1 that _block_primes cites."""
    y = x - lo
    return min(int(1.25506 * x / math.log(x)), int(2 * y / math.log(y)) if y > 1 else y) + 1 if x > 1 else 0


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array: the join of _prime_blocks(n),
    down to the primes up to 1000 that are sieved once, at import."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if n <= _SMALL_LIMIT and _SMALL_PRIMES:
        return np.array(_SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, n)], dtype=np.int64)
    _reserve(16 * _pi_bound(n), f"primes up to {n}")  # the blocks' primes, then their join
    return np.concatenate(list(_prime_blocks(n)))


def _prime_blocks(n: int, lo: int = 0):
    """The primes in (lo, n] as ascending int64 arrays: [2] if lo < 2, then
    the odd primes 2i + 1 > lo of each block, sieved over i by
    primes_up_to(isqrt(n)) (2 divides no value, so only the odd numbers
    are ever struck).  No array holds more than _block_primes(n) primes."""
    if n < 2:
        return
    if lo < 2:
        yield np.array([2], dtype=np.int64)
    for i, mask in _form_blocks([(2, 1)], math.isqrt(n), (n - 1) // 2, max(1, (lo + 1) // 2)):
        yield 2 * (np.flatnonzero(mask) + i) + 1


def _block_primes(n: int) -> int:
    """A bound on the size of each array of _prime_blocks(n): _pi_bound of
    the first block's end.  Later blocks lie where primes are sparser; the
    proved bound 2y / ln y on the primes among any y consecutive numbers
    (Montgomery & Vaughan, Mathematika 20 (1973)) is 1.6 times this one."""
    return _pi_bound(min(n, 2 * _DEFAULT_BLOCK + 1))


# ---------------------------------------------------------------------------
# striking residue classes in a block; sieving the values of a linear form


def _dense(ps: np.ndarray, n: int, k: int = 1) -> int:
    """How many of the ascending primes ps lead with moduli p**k (k = 1, 2)
    struck by strided slices over [0, n): those with D * p**k < n for D =
    max(_DENSE_HITS, 1), each with a hit.  The rest have at most D hits."""
    v = (n - 1) // max(_DENSE_HITS, 1)
    return int(np.searchsorted(ps, math.isqrt(v) if k == 2 else v, side="right"))


def _strikes(ms: np.ndarray, starts: np.ndarray, n: int):
    """Plan the hits of the classes starts mod ms (0 <= starts < ms) in [0, n).

    Returns ``(offsets, which)``: every hit is one entry of ``offsets``
    (repeated where two moduli meet) and ``which`` indexes its modulus;
    ``np.repeat`` builds both, with no Python loop per modulus.
    """
    hits = (n - starts + ms - 1) // ms
    which = np.repeat(np.arange(ms.size), hits)
    offsets = np.arange(which.size) - np.repeat(np.cumsum(hits) - hits, hits)
    offsets *= ms[which]
    offsets += starts[which]
    return offsets, which


def _plan_chunks(ps: np.ndarray, n: int, k: int = 1):
    """Slices that tile the ascending ps, each of primes whose moduli p**k
    plan at most _CHUNK_BYTES over [0, n) (or of one modulus): as many
    moduli as the cap holds at the plan of the least, 64 + 40 * ceil(n / p**k)
    bytes, which is the most.  A modulus plans at least 64 bytes, so no
    chunk holds more than _CHUNK_BYTES // 64 of them."""
    i = 0
    while i < ps.size:
        most = 64 + 40 * -(-n // int(ps[i]) ** k)
        j = min(i + max(1, _CHUNK_BYTES // most), ps.size)
        yield slice(i, j)
        i = j


def _plan_bytes(ps: np.ndarray, n: int) -> int:
    """A bound on the plan of any chunk of ``_plan_chunks`` over what
    ``_dense`` leaves of ps in a block of length up to n: the cap, or the
    first _CHUNK_BYTES // 64 primes at min(max(_DENSE_HITS, 1), ceil(n / p))
    hits each, as a short block gathers what a long one strides."""
    m = ps[: _CHUNK_BYTES // 64]
    return min(64 * m.size + 40 * int(np.minimum(-(-n // m), max(_DENSE_HITS, 1)).sum()), _CHUNK_BYTES)


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
    block, the primes that ``_dense`` counts strike their roots by
    slices, and ``_strikes`` plans the hits of the rest, one chunk of
    ``_plan_chunks`` at a time.
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
        d = _dense(ps, hi - lo)
        for p, s in zip(ps[:d].tolist(), starts[:d].tolist()):
            out[s::p] = False
        rest, starts = ps[d:], starts[d:]
        for chunk in _plan_chunks(rest, hi - lo):
            offsets, _ = _strikes(rest[chunk], starts[chunk], hi - lo)
            out[offsets] = False
            del offsets  # before the next chunk's plan
        if a * lo + b <= top_base:  # a value may be a base prime itself
            own = base[(base >= a * lo + b) & (base <= min(a * (hi - 1) + b, top_base))]
            own = own[(own - b) % a == 0]
            out[(own - b) // a - lo] = True
        out[: max(0, -(-(2 - b) // a) - lo)] = False
        return out

    return mask


def _form_blocks(pairs, bound: int, n_max: int, start: int = 1):
    """(lo, mask) over ascending blocks [lo, lo + len(mask)) of [start, n_max];
    mask is True where no value a*n + b of the forms (a, b) in ``pairs`` is
    below 2 or has a prime factor up to ``bound`` other than itself.  Once
    the base primes are listed, their roots for each form, one plan of
    strikes and two block masks are reserved before the first block.
    """
    base = primes_up_to(bound)
    block = min(max(0, n_max + 1 - start), _DEFAULT_BLOCK)
    _reserve(
        # int64 entries per base prime: the base, each form's primes and
        # roots, and the transient root arithmetic
        8 * (2 * len(pairs) + 6) * base.size + _plan_bytes(base, block) + 2 * block,
        f"block sieve of {len(pairs)} forms by the primes up to {bound}",
    )
    sieves = [_form_sieve(a, b, base) for a, b in pairs]
    for lo in range(start, n_max + 1, _DEFAULT_BLOCK):
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


def _marks_at(ps: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The log marks of ps[which], from no more logs than the fewer of the
    primes and their hits."""
    return _log_marks(ps[which]) if which.size < ps.size else _log_marks(ps)[which]


def _sieve_table(sieve: FactorSieve, kind: str) -> np.ndarray:
    """The table of omega, tau or phi (``kind``) over the sieve window.

    Per block, the strikes go into two arrays.  For omega and tau these
    are a uint16 log sum and tau's table slice: a strike of p adds
    16 * l_p + 1, l_p = round(64 log2 p), so that the low 4 bits count the
    primes found (the log-sum sieve of the quadratic sieve; Pomerance,
    EUROCRYPT '84), and tau(n) = 2**c * prod (e + 1) over p**e || n with
    e >= 2, c counting the first powers.  For phi they are the product f
    of the prime powers found and its phi-part g = phi(f).  Below 2**32
    they live as a uint32 pair in the 8 bytes of phi's own int64 slot of
    n, so a strike touches one slot; from 2**32 on, f is a uint32 array of
    its own that wraps modulo 2**32, and g is the table slice.  All block
    scratch is allocated once per call and reused by every block.  Each
    pass strikes the prefix of primes that ``_dense`` counts by strided
    slices, and the rest by the plans of ``_strikes``, cut by
    ``_plan_chunks`` to _CHUNK_BYTES.

    - Level 1 strikes the multiples of each prime p once through one
      routine, ``level1``.  It runs first over the wheel primes
      2, 3, 5, 7, 11, 13 in the first period of 30030 of the block, which
      is then copied forward, a doubling run of periods per contiguous
      copy (the wheel of Pritchard, Acta Informatica 17 (1982)); then over
      every other base prime p <= sqrt(block end) in the whole block.
    - The exponent pass then strikes the multiples of p**2 once, for the
      wheel primes too.  At n = p**2 (t + j), p**e || n with
      e = 2 + v_p(t + j).  x = e - 1 (omega, tau) or x = p**(e - 1) (phi)
      starts at 1 or p and takes one ``mark`` by that step for each
      further power of p: for a prime of the prefix at k = 2, by strided
      steps at p, p**2, ... of one compact array over its progression (the
      scratch ``exps``, uint32 for phi: x stops below 2**32, and each
      further power of p, whose multiples lie at least 2**33 apart, is
      struck straight into f and g); for the gathered hits, by a
      vectorised valuation loop over n / p**2, whose powers are int64
      from 2**32 on and wrap into f.  Each x then takes one
      write-back: omega adds 16 * l_p * (e - 1) to the log sum; tau adds
      16 * l_p * (e - 1) - 1, taking level 1's unit back, and multiplies
      its table by e + 1; phi multiplies f and g by p**(e - 1).
    - At most one prime factor q of n is above sqrt(block end); it is
      stepped in by one contiguous pass over the block.  phi reads (f, g)
      in steps of _CHUNK_BYTES // 64 numbers and writes g * max(q - 1, 1),
      formed in float64, over them as int64.  q = n / f is exact where f
      is, since f divides n and the quotient of two integers below 2**53
      that is itself an integer is rounded to itself, and so is the rest,
      as g * (q - 1) = phi(n) < 2**53.  Below 2**32, q is the prime where
      it exists and 1 where not.  From 2**32 on, q exists where g < 2**29,
      the divisor is f there and 2**51 elsewhere, where n / 2**51 < 1
      gives the factor 1.  omega and tau only ask whether q exists: where the log sum
      L = acc >> 4 is below a threshold T(n), q adds 1 to the count c in
      the low 4 bits.  omega's table is c, and tau's is shifted left by c.
      The mask of q is held by omega's own table, and by tau's ``exps``,
      which for tau spans the block.

    Why the log test is exact.  Let x = 64 log2 n.  The log sum adds
    e * l_p for each p**e || n found, and n <= 2**50 has at most
    log2 n <= 50 prime factors counted with multiplicity, each l_p within
    1/2 of 64 log2 p, so L is within 25 of 64 log2 of the part of n that
    the strikes find.  With no q, that part is n and L >= x - 25.  With
    q >= 2 it is n / q <= 2**49, of at most 49 prime factors, so
    L <= x - 64 + 24.5 = x - 39.5.  Any T(n) in (x - 39.5, x - 25] tells
    the two apart.  ``_thresholds`` takes T(n) = floor(64 log2 c) - 30 on
    pieces [c, c') over which x grows by less than 64 log2(13/12) < 7.4,
    so x - 7.4 - 31 < T(n) <= x - 30: both margins exceed one unit, far
    above the float error of the logs, and no log is taken per n.  The
    bits fit: L <= 64 * 50 + 25 = 3225, and tau's count c, like omega's,
    is at most omega(n) <= 13 below 2**50 (41# < 2**50 < 43#), so
    16 * L + 13 < 2**16; and 16 * L + c < 16 * T exactly when L < T, with
    no mask.  tau's take-back never borrows from the count: level 1 still
    runs before the exponent pass in every block, so the unit of p is in
    the low 4 bits of every multiple of p**2 when the pass takes it back.

    Why phi's product fits.  Below 2**32, f divides n < 2**32,
    g = phi(f) <= f, and the exponent pass's factor p**(e - 1) divides
    n / p < 2**32, so each stays a uint32 through every product; n and
    phi(n) fit int64 up to 2**50.  From 2**32 on, f is only known modulo
    2**32, and the test g < 2**29 tells where it is exact up to 2**50.
    With a prime q > r = isqrt(b - 1) left over in the block [a, b),
    f = n / q <= (b - 1) / (r + 1) < r + 1, so f <= r < 2**25 is held
    exactly and g <= f.  With none, g = phi(n), and
    phi(n) > n / (e**gamma ln ln n + 3 / ln ln n) for every n >= 3
    (Rosser & Schoenfeld, Illinois J. Math. 6 (1962), Theorem 15, there
    with 2.50637 in place of 3 but at n = 23#), which exceeds 6.6e8 > 2**29
    for 2**32 <= n <= 2**50.  A window that reaches 2**32 from below takes
    this route for all its n; below 2**32, f is exact, so where g < 2**29
    and no prime is left over, n / f = 1 leaves g as it is.

    Blocks touch disjoint slices of the table, so the result is invariant
    under block size.
    """
    lo, hi, base, bs = sieve.lo, sieve.hi, sieve.base_primes, _DEFAULT_BLOCK
    size = hi - lo + 1
    width = min(bs, size)  # of the longest block
    span = -(-width // 4)  # hits of the densest p**2 progression, that of 4
    phi, tau = kind == "phi", kind == "tau"
    logs = not phi  # omega and tau count primes; phi multiplies them out
    dtype = np.dtype(np.int64 if phi else np.int32 if tau else np.uint8)
    pairs = phi and hi >> 32 == 0  # phi's product and phi-part fit its own 8 bytes per n
    part = np.dtype(np.uint32 if pairs else np.int64)  # of the gathered powers
    step = min(width, max(1, _CHUNK_BYTES // 64))  # 16 bytes per n: a whole cap beside exps would lift phi's peak
    if logs:  # the log sum; e - 1 over one p**2 progression, or tau's block; its log operand
        scratch = 2 * width + (width if tau else span) + 2 * span
    else:  # p**(e - 1) over one progression; a leftover step's n and q; the wrapping product
        scratch = 4 * span + 16 * step + (0 if pairs else 4 * width)
    # a plan's arrays and the operands made from them, which take no more
    scratch += 2 * _plan_bytes(base, width)
    _reserve(dtype.itemsize * size + scratch, f"{dtype.name} table for [{lo}, {hi}]")
    out = np.empty(size, dtype=dtype)
    # the log sum and count, or phi's wrapping product from 2**32 on
    accs = None if pairs else np.empty(width, dtype=np.uint16 if logs else np.uint32)
    # x over one p**2 progression; tau's spans the block, for its leftover mask
    exps = np.empty(width if tau else span, dtype=np.uint32 if phi else np.uint8)
    ops = np.empty(span, dtype=np.uint16) if logs else None  # the log sum operand of x
    mark = np.add if logs else np.multiply  # how a strike enters f

    def level1(ps: np.ndarray, n: int) -> None:
        # strike each p of ps at its multiples in [0, n) of the block at a
        d = _dense(ps, n)
        dps, rest = ps[:d], ps[d:]
        vs = _log_marks(dps) + 1 if logs else dps
        for p, s, v in zip(dps.tolist(), ((-a) % dps).tolist(), vs.tolist()):
            u = f[s:n:p]
            mark(u, v, out=u)
            if phi:
                u = g[s:n:p]
                u *= p - 1
        for chunk in _plan_chunks(rest, n):
            cp = rest[chunk]
            offsets, which = _strikes(cp, (-a) % cp, n)
            # ufunc.at, since two primes may hit one n; its operands take
            # their array's dtype, as a cast leaves numpy's fast loop
            x = _marks_at(cp, which) + 1 if logs else cp[which].astype(f.dtype)
            mark.at(f, offsets, x)
            if phi:
                x -= 1
                np.multiply.at(g, offsets, x.astype(g.dtype, copy=False))
            del offsets, which, x  # before the next chunk's hits

    for a in range(lo, hi + 1, bs):
        b = min(a + bs, hi + 1)
        view = out[a - lo : b - lo]
        if pairs:
            f, g = view.view(np.uint32).reshape(-1, 2).T
        else:
            f, g = accs[: b - a], None if kind == "omega" else view
        w = min(b - a, _WHEEL)
        f[:w] = 0 if logs else 1
        if g is not None:
            g[: w if phi else b - a] = 1  # level 1 leaves tau's table alone
        level1(_WHEEL_PRIMES, w)
        period = (f,) if logs else (view,) if pairs else (f, g)
        while w < b - a:  # [0, w) is a whole number of periods
            c = min(w, b - a - w)
            for x in period:
                x[w : w + c] = x[:c]
            w += c
        ps = base[: np.searchsorted(base, math.isqrt(b - 1), side="right")]
        level1(ps[_WHEEL_PRIMES.size :], b - a)
        d = _dense(ps, b - a, 2)  # the exponent pass
        dps, rest = ps[:d], ps[d:]
        cm = dps * dps
        ells = _log_marks(dps) if logs else dps
        for p, m, s, ell in zip(dps.tolist(), cm.tolist(), ((-a) % cm).tolist(), ells):
            h = (b - a - s - 1) // m + 1  # n = a + s + j * m < b
            t = (a + s) // m
            up = p if phi else 1
            x = exps[:h]
            x[...] = up
            r = p
            while (j := (-t) % r) < h:  # p**k divides t + j
                if phi and p * r >> 32:  # x would reach 2**32: straight into f and g
                    for u in (f[s + j * m :: r * m], g[s + j * m :: r * m]):
                        u *= p
                else:
                    u = x[j::r]
                    mark(u, up, out=u)
                r *= p
            y = np.multiply(x, ell, out=ops[:h]) if logs else x
            if tau:
                y -= 1  # the take-back
                x += 2  # tau(p**e) = e + 1
            u = f[s::m]
            mark(u, y, out=u)
            if g is not None:
                u = g[s::m]
                u *= x
        for chunk in _plan_chunks(rest, b - a, 2):
            cp = rest[chunk]
            cm = cp * cp
            offsets, which = _strikes(cm, (-a) % cm, b - a)
            ph = cp[which]
            q = offsets + a
            q //= cm[which]  # n / p**2
            ups = ph.astype(part, copy=False) if phi else np.ones(ph.size, dtype=np.uint8)
            x = ups.copy()
            k = np.flatnonzero(q % ph == 0)
            while k.size:
                x[k] = mark(x[k], ups[k])
                pk = ph[k]
                qk = q[k] // pk
                q[k] = qk
                k = k[qk % pk == 0]
            del q, k, ups
            y = _marks_at(cp, which) * x if logs else x
            if tau:
                y -= 1
                x += 2
            mark.at(f, offsets, y.astype(f.dtype, copy=False))  # phi's f wraps from 2**32 on
            if g is not None:
                np.multiply.at(g, offsets, x.astype(g.dtype, copy=False))
            del offsets, which
        if phi:  # q = n / f is the prime left over, or 1 where none is; f is exact below 2**32
            for i in range(0, b - a, step):
                j = min(i + step, b - a)
                d = f[i:j].astype(np.float64) if pairs else np.where(g[i:j] < 1 << 29, f[i:j], 2.0**51)
                np.divide(np.arange(a + i, a + j, dtype=np.float64), d, out=d)
                d -= 1
                np.maximum(d, 1, out=d)  # q - 1 for a prime q; 1 and n / 2**51 give 1
                d *= g[i:j]  # phi(n) < 2**53, so every float here is an exact integer
                view[i:j] = d
            continue
        big = (exps if tau else view)[: b - a].view(bool)
        for i, j, t in _thresholds(a, b):
            np.less(f[i:j], t, out=big[i:j])  # L < T(n): a prime is left over
        f &= 15
        if tau:
            f += big
            view <<= f
        else:
            np.add(f, view, out=view, casting="unsafe")  # the count c, the prime left over included
    return out


def omega_range(sieve: FactorSieve, threads: int | None = None) -> np.ndarray:
    """Number of distinct prime factors for every n in the sieve window.

    Returns a uint8 array where index i corresponds to n = sieve.lo + i.
    threads is accepted and ignored so that existing callers that pass it
    keep working.
    """
    return _sieve_table(sieve, "omega")


def _omega_blocks(lo: int, hi: int):
    """omega over [lo, hi] (1 <= lo) as consecutive uint8 arrays of at most
    _DEFAULT_BLOCK numbers: the one source of omega for code that reads a
    run of integers in turn.  Up to 2**50 each array is one omega table of
    _sieve_table, by the base primes up to isqrt(min(hi, 2**50)), listed
    (and reserved by primes_up_to) once per call; past 2**50, where the
    log test is not proved, each n is factorized."""
    base = primes_up_to(math.isqrt(min(hi, MAX_SIEVE_HI))) if lo <= MAX_SIEVE_HI else None
    a = lo
    while a <= hi:
        b = min(a + _DEFAULT_BLOCK - 1, hi)
        if a <= MAX_SIEVE_HI:
            b = min(b, MAX_SIEVE_HI)
            yield _sieve_table(FactorSieve(a, b, base), "omega")
        else:
            yield np.fromiter((factorize(n).omega for n in range(a, b + 1)), np.uint8, b - a + 1)
        a = b + 1


def tau_range(sieve: FactorSieve) -> np.ndarray:
    """Divisor counts tau(n) over the window as an int32 array."""
    return _sieve_table(sieve, "tau")


def phi_range(sieve: FactorSieve) -> np.ndarray:
    """Euler phi(n) over the window as an int64 array."""
    return _sieve_table(sieve, "phi")


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

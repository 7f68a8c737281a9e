"""Systems of linear forms a_k n + b_k: local root counts, admissibility,
and certified truncations of the singular series

    prod_p (1 - omega_L(p)/p) (1 - 1/p)^(-K),

where omega_L(p) counts residues v mod p at which some form vanishes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import sieve
from .errors import DomainError, PreconditionError
from .sieve import _block_primes, _prime_blocks, _reserve, factorize, is_prime, primes_up_to

__all__ = [
    "Admissibility",
    "LinearForm",
    "LinearFormSystem",
    "SingularSeriesValue",
    "is_admissible",
    "roots_mod_p",
    "singular_series",
]


@dataclass(frozen=True, order=True)
class LinearForm:
    """The form n |-> a*n + b with a >= 1, b >= 0."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0:
            raise DomainError(f"linear form needs a >= 1 and b >= 0, got {self.a}n+{self.b}")

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    def __str__(self) -> str:
        return f"{self.a}n+{self.b}" if self.b else f"{self.a}n"


class LinearFormSystem:
    """A finite set of distinct linear forms, kept in sorted order."""

    def __init__(self, forms) -> None:
        forms = tuple(sorted(forms))
        if not forms:
            raise DomainError("a form system needs at least one form")
        if len(set(forms)) != len(forms):
            raise DomainError("forms must be pairwise distinct")
        self.forms = forms

    @classmethod
    def from_pairs(cls, pairs) -> "LinearFormSystem":
        return cls(LinearForm(int(a), int(b)) for a, b in pairs)

    @classmethod
    def from_json(cls, text: str) -> "LinearFormSystem":
        try:
            pairs = [(d["a"], d["b"]) for d in json.loads(text)]
            if bad := [x for pair in pairs for x in pair if type(x) is not int]:  # int() reads 1.5, true, "3", 1e30
                raise TypeError(f"form coefficients must be JSON integers, got {json.dumps(bad[0])}")
            return cls.from_pairs(pairs)
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DomainError(f"malformed form-system JSON: {exc}") from exc

    def to_dicts(self) -> list[dict]:
        return [{"a": f.a, "b": f.b} for f in self.forms]

    def to_json(self) -> str:
        return json.dumps(self.to_dicts())

    @property
    def K(self) -> int:
        return len(self.forms)

    def pairwise_resultants(self) -> list[int]:
        """a_i b_j - a_j b_i over i < j; zero iff two forms are proportional."""
        fs = self.forms
        return [
            fs[i].a * fs[j].b - fs[j].a * fs[i].b
            for i in range(len(fs))
            for j in range(i + 1, len(fs))
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearFormSystem) and self.forms == other.forms

    def __hash__(self) -> int:
        return hash(self.forms)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.forms) + "}"


def roots_mod_p(system: LinearFormSystem, p: int) -> int:
    """omega_L(p): the number of residues v mod p with p | prod_k (a_k v + b_k).

    A form with p | a_k contributes every residue when p | b_k as well
    (so the count is p) and no residue otherwise; the remaining forms
    contribute the single root -b_k * a_k^{-1} mod p.
    """
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    roots: set[int] = set()
    for f in system.forms:
        a, b = f.a % p, f.b % p
        if a == 0:
            if b == 0:
                return p
            continue
        roots.add(-b * pow(a, -1, p) % p)
    return len(roots)


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    witness: int | None  # a prime p with omega_L(p) = p, when inadmissible

    def __bool__(self) -> bool:
        return self.admissible


def _coefficient_primes(system: LinearFormSystem) -> set[int]:
    return {p for f in system.forms for c in (f.a, f.b) if c > 1 for p, _ in factorize(c).factors}


def is_admissible(system: LinearFormSystem) -> Admissibility:
    """Decide whether some prime p has omega_L(p) = p (a full residue cover).

    Only finitely many primes can cover: if p > K and p divides no a_k,
    at most K < p residues are roots, so it suffices to test p <= K
    together with the primes dividing some coefficient.
    """
    candidates = {int(p) for p in primes_up_to(system.K)} | _coefficient_primes(system)
    for p in sorted(candidates):
        if roots_mod_p(system, p) == p:
            return Admissibility(False, p)
    return Admissibility(True, None)


@dataclass(frozen=True)
class SingularSeriesValue:
    """Truncated Euler product with a certified tail bound.

    The true value lies in [value * exp(-error_bound), value * exp(error_bound)].
    """

    value: float
    truncation_prime: int
    error_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def _local_factor_exact(p: int, nroots: int, K: int) -> Fraction:
    # (1 - nroots/p) * (1 - 1/p)^(-K)
    return Fraction((p - nroots) * p ** (K - 1), (p - 1) ** K)


_PRIME_BYTES = 16  # per prime a block may hold: its int64 and the arrays that make it (14 measured)
_TERM_BYTES = 64  # per prime of a chunk: its log term and _exact_sum's scratch (29 measured, masks included)


def _exact_sum(chunks) -> float:
    """The exact sum of the finite float64 arrays in chunks, each under 2**26
    terms, rounded once: the float math.fsum returns for their concatenation
    (Shewchuk, Discrete Comput. Geom. 18 (1997)) wherever fsum does not
    overflow.

    Each term is (-1)**s * m * 2**(e - 1075) for its biased exponent e and
    53-bit mantissa m (subnormals and zeros: no implicit bit, e = 1).  Per
    chunk, np.bincount sums the two 26-bit halves of m by exponent, signed,
    in float64, exact below 2**53; int64 buckets then hold every chunk,
    exact for fewer than 2**36 terms.  The 2048 buckets are joined into one
    Python int, and the one division by 2**1074 is correctly rounded; it
    raises OverflowError when the sum rounds beyond the largest float.
    """
    hi = np.zeros(2048, dtype=np.int64)
    lo = np.zeros(2048, dtype=np.int64)
    u = np.uint64
    for chunk in chunks:
        b = np.ascontiguousarray(chunk, dtype=np.float64).view(u)
        e = (b >> u(52)) & u(0x7FF)
        m = (b & u((1 << 52) - 1)) | ((e != 0).astype(u) << u(52))
        e = np.maximum(e, u(1)).astype(np.intp)
        sign = 1.0 - 2.0 * (b >> u(63)).astype(np.float64)
        hi += np.bincount(e, weights=(m >> u(26)) * sign, minlength=2048).astype(np.int64)
        lo += np.bincount(e, weights=(m & u((1 << 26) - 1)) * sign, minlength=2048).astype(np.int64)
    total = sum(
        ((h << 26) + l) << (e - 1)
        for e, (h, l) in enumerate(zip(hi.tolist(), lo.tolist()))
        if h or l
    )
    return total / (1 << 1074)


def _generic_product(K: int, P: int, exceptional) -> tuple[float, float]:
    """prod (1 - K/p)(1 - 1/p)^(-K) over the primes p <= P outside
    exceptional, and the tail bound 2 K^2 / P for the primes beyond P (see
    singular_series).  The primes come a block at a time, and their log
    terms in chunks of the sieve's scratch cap, _CHUNK_BYTES, with the
    scratch of one block and one chunk reserved before the first.  K = 1
    lists no prime: every factor (1 - 1/p)(1 - 1/p)^(-1) is exactly 1."""
    if K == 1:
        return 1.0, 0.0
    top = max(exceptional, default=0)
    block = _block_primes(P)
    step = sieve._CHUNK_BYTES // _TERM_BYTES  # primes per chunk of log terms
    _reserve(_PRIME_BYTES * block + _TERM_BYTES * min(block, step), f"Euler product over the primes up to {P}")

    def logs():
        for ps in _prime_blocks(P):
            if ps.size and ps[0] <= top:
                ps = ps[~np.isin(ps, exceptional)]
            for i in range(0, ps.size, step):
                q = ps[i : i + step].astype(np.float64)
                yield np.log1p(-K / q) - K * np.log1p(-1.0 / q)

    return math.exp(_exact_sum(logs())), 2.0 * K * K / P


def singular_series(system: LinearFormSystem, truncation_prime: int) -> SingularSeriesValue:
    """Evaluate prod_{p <= P} (1 - omega_L(p)/p)(1 - 1/p)^(-K) with a tail bound.

    Exceptional primes (p <= K, p | a_k, or p dividing a pairwise
    resultant) get exact rational local factors; for every other prime
    omega_L(p) = K, and those logs are summed exactly in numpy buckets and
    rounded once (the float math.fsum returns).
    For p >= 2K the local log is bounded by K^2/p^2, giving the certified
    tail bound 2 K^2 / P; for K = 1 every generic factor is identically 1
    and the bound is 0, with no prime listed (_generic_product).

    Preconditions: the system is admissible and truncation_prime is at
    least max(2K^2, every prime dividing an a_k, b_k, or a resultant).
    """
    adm = is_admissible(system)
    if not adm:
        raise DomainError(f"inadmissible system {system!r}: all residues mod {adm.witness} covered")
    K = system.K
    resultants = system.pairwise_resultants()
    if any(r == 0 for r in resultants):
        raise PreconditionError(
            "two forms are proportional (zero pairwise resultant); "
            "the Euler product has no convergent truncation"
        )
    structural = _coefficient_primes(system) | {p for r in resultants for p, _ in factorize(abs(r)).factors}
    required = max([2 * K * K, *structural, 2])
    P = int(truncation_prime)
    if P < required:
        raise PreconditionError(
            f"truncation_prime={P} below required minimum {required} "
            f"(max of 2K^2 and the primes dividing coefficients/resultants)"
        )

    exceptional = sorted({int(q) for q in primes_up_to(K)} | {p for p in structural if p <= P})
    exact = math.prod((_local_factor_exact(p, roots_mod_p(system, p), K) for p in exceptional), start=Fraction(1))

    # Generic factor: omega_L(p) = K exactly (K distinct roots, none merged).
    generic, error_bound = _generic_product(K, P, exceptional)
    return SingularSeriesValue(
        value=float(exact) * generic, truncation_prime=P, error_bound=error_bound
    )

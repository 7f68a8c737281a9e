"""Systems of linear forms a_k n + b_k: local root counts, admissibility,
and certified truncations of the singular series

    prod_p (1 - omega_L(p)/p) (1 - 1/p)^(-K),

where omega_L(p) counts residues v mod p at which some form vanishes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PreconditionError
from .sieve import factorize, is_prime, primes_up_to

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
            data = json.loads(text)
            return cls.from_pairs((d["a"], d["b"]) for d in data)
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
    out: set[int] = set()
    for f in system.forms:
        for p, _ in factorize(f.a).factors:
            out.add(p)
        if f.b > 1:
            for p, _ in factorize(f.b).factors:
                out.add(p)
    return out


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


_LOG_CHUNK = 1 << 16  # primes per chunk of Euler-product log terms


def _generic_product(K: int, P: int, exceptional) -> tuple[float, float]:
    """prod (1 - K/p)(1 - 1/p)^(-K) over the primes p <= P outside
    exceptional, and the tail bound for the primes beyond P (see
    singular_series)."""
    ps = primes_up_to(P)
    if exceptional:
        ps = ps[~np.isin(ps, exceptional)]

    def logs():  # chunked, so the float terms never exist all at once
        for i in range(0, ps.size, _LOG_CHUNK):
            q = ps[i : i + _LOG_CHUNK].astype(np.float64)
            yield (np.log1p(-K / q) - K * np.log1p(-1.0 / q)).tolist()

    # fsum rounds the exact sum of the terms, so chunking leaves it unchanged
    total = math.fsum(itertools.chain.from_iterable(logs()))
    return math.exp(total), (0.0 if K == 1 else 2.0 * K * K / P)


def singular_series(system: LinearFormSystem, truncation_prime: int) -> SingularSeriesValue:
    """Evaluate prod_{p <= P} (1 - omega_L(p)/p)(1 - 1/p)^(-K) with a tail bound.

    Exceptional primes (p <= K, p | a_k, or p dividing a pairwise
    resultant) get exact rational local factors; for every other prime
    omega_L(p) = K, and those logs are summed compensated in numpy.
    For p >= 2K the local log is bounded by K^2/p^2, giving the certified
    tail bound 2 K^2 / P; for K = 1 the tail factors are identically 1
    and the bound is 0.

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
    structural: set[int] = _coefficient_primes(system)
    for r in resultants:
        for p, _ in factorize(abs(r)).factors:
            structural.add(p)
    required = max([2 * K * K, *structural, 2])
    P = int(truncation_prime)
    if P < required:
        raise PreconditionError(
            f"truncation_prime={P} below required minimum {required} "
            f"(max of 2K^2 and the primes dividing coefficients/resultants)"
        )

    exceptional = sorted({int(q) for q in primes_up_to(K)} | {p for p in structural if p <= P})
    exact = Fraction(1)
    for p in exceptional:
        exact *= _local_factor_exact(p, roots_mod_p(system, p), K)

    # Generic factor: omega_L(p) = K exactly (K distinct roots, none merged).
    generic, error_bound = _generic_product(K, P, exceptional)
    return SingularSeriesValue(
        value=float(exact) * generic, truncation_prime=P, error_bound=error_bound
    )

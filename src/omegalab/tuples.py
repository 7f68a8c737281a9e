"""Empirical prime-tuple counts against singular-series predictions, and
the search for the least n making every (Q/k) n + 1 prime while the
omega values just past the prime block stay controlled.

Both run on the block sieve over n of ``omegalab.sieve``, which owns the
block size and reserves the memory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import mpmath
import numpy as np

from .errors import DomainError
from .linforms import LinearFormSystem, SingularSeriesValue, singular_series
from .params import form_family
from .sieve import _form_blocks, factorize, is_prime

__all__ = [
    "HLComparison",
    "SearchSpec",
    "SearchWitness",
    "count_prime_tuples",
    "hl_compare",
    "search_n0",
    "verify_witness",
]

#: Search pre-sieve: the forms (Q/k) n + 1 are sieved by the primes up to
#: this bound (or the square root of the largest value, if smaller) before
#: the survivors are certified one by one; see CHANGES.md for the timing
#: that chose it.
_PRESIEVE_BOUND = 1 << 12


def count_prime_tuples(system: LinearFormSystem, n_max: int) -> int:
    """#{1 <= n <= n_max : a_k n + b_k is prime for every k}.

    Every form is sieved over n itself, block by block, by the primes up
    to the square root of the largest form value, and the forms' masks
    are ANDed per block; memory is O(block + K * pi(sqrt(largest value))).
    Returns 0 for n_max <= 0 without building anything.
    """
    if n_max <= 0:
        return 0
    root = math.isqrt(max(f(n_max) for f in system.forms))
    blocks = _form_blocks([(f.a, f.b) for f in system.forms], root, n_max)
    return sum(int(np.count_nonzero(acc)) for _, acc in blocks)


@dataclass(frozen=True)
class HLComparison:
    """Empirical count next to two truncated-singular-series predictions.

    predicted_crude uses S * x / (log x)^K; predicted_integral replaces
    x/(log x)^K by the integral of dt/(log t)^K from 2 to x, which is the
    fairer finite-x yardstick and is our refinement, not part of the
    asymptotic statement itself.  The integral is reduced by parts to
    li(x) - li(2) exactly and evaluated at 40 digits.  Ratios are None
    (flagged undefined) for n_max < 3.
    """

    system: LinearFormSystem
    n_max: int
    empirical: int
    singular_series: SingularSeriesValue
    predicted_crude: float | None
    predicted_integral: float | None
    ratio_crude: float | None
    ratio_integral: float | None

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dicts(),
            "n_max": self.n_max,
            "empirical": self.empirical,
            "singular_series": self.singular_series.to_dict(),
            "predicted_crude": self.predicted_crude,
            "predicted_integral": self.predicted_integral,
            "ratio_crude": self.ratio_crude,
            "ratio_integral": self.ratio_integral,
            "note": "integral prediction is a finite-x refinement of x/(log x)^K",
        }


def _log_power_integral(K: int, x: int) -> float:
    """int_2^x dt/(log t)^K, rounded to float once.

    I_1 = li(x) - li(2), and integration by parts gives
    I_(j+1) = (I_j - x/(log x)^j + 2/(log 2)^j) / j; the recurrence runs in
    40-digit mpmath, far past the cancellation it meets for large K.
    """
    with mpmath.workdps(40):
        x_, two = mpmath.mpf(x), mpmath.mpf(2)
        integral = mpmath.li(x_) - mpmath.li(two)
        for j in range(1, K):
            integral = (integral - x_ / mpmath.log(x_) ** j + two / mpmath.log(two) ** j) / j
        return float(integral)


def hl_compare(
    system: LinearFormSystem,
    n_max: int,
    truncation_prime: int = 100_000,
) -> HLComparison:
    """Count prime tuples up to n_max and compare with S * x/(log x)^K.

    The singular series S is truncated at truncation_prime with its usual
    certified tail bound; see HLComparison for the two prediction styles.
    """
    ss = singular_series(system, truncation_prime)
    empirical = count_prime_tuples(system, n_max)
    K = system.K
    if n_max < 3:
        return HLComparison(system, n_max, empirical, ss, None, None, None, None)
    crude = ss.value * n_max / math.log(n_max) ** K
    integral = ss.value * _log_power_integral(K, n_max)
    return HLComparison(
        system=system,
        n_max=n_max,
        empirical=empirical,
        singular_series=ss,
        predicted_crude=crude,
        predicted_integral=integral,
        ratio_crude=empirical / crude if crude else None,
        ratio_integral=empirical / integral if integral else None,
    )


# ---------------------------------------------------------------------------
# search for the anchor index n0


@dataclass(frozen=True)
class SearchSpec:
    """Search parameters: find the least n <= n_max such that

      (1) (Q/k) n + 1 is prime for every k <= K,
      (2) omega(n Q + k) <= theta2 for every K < k <= L,
      (3) omega(n Q + K + 1) > theta3.

    Requires k^2 | Q for k <= K (so the scaled forms are integral) and
    L > K.  theta2/theta3 are free thresholds: at desk scale the loglog
    quantities they model are tiny, so pinned small integers stand in.
    """

    K: int
    Q: int
    L: int
    theta2: float  # omega ceiling for the controlled block
    theta3: float  # omega floor just past the prime block
    n_max: int

    def __post_init__(self) -> None:
        if self.K < 1 or self.L <= self.K:
            raise DomainError(f"need 1 <= K < L, got K={self.K}, L={self.L}")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if self.theta3 < 0:
            raise DomainError("theta3 must be nonnegative")
        form_family(self.K, self.Q)  # raises unless k^2 | Q for every k <= K

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchWitness:
    """Everything needed to re-check a hit without re-searching."""

    n0: int
    prime_certificates: tuple[int, ...]  # (Q/k) n0 + 1 for k = 1..K
    omega_table: dict[int, int] = field(hash=False)  # k -> omega(n0 Q + k), K < k <= L
    omega_after_block: int = 0  # omega(n0 Q + K + 1)

    def to_dict(self) -> dict:
        return {
            "n0": self.n0,
            "prime_certificates": list(self.prime_certificates),
            "omega_table": {str(k): v for k, v in sorted(self.omega_table.items())},
            "omega_after_block": self.omega_after_block,
        }


def _check_candidate(spec: SearchSpec, n: int) -> SearchWitness | None:
    certs = []
    for k in range(spec.K, 0, -1):  # larger k first: smaller values fail fastest
        c = (spec.Q // k) * n + 1
        if not is_prime(c):
            return None
        certs.append(c)
    certs.reverse()
    table = {}
    for k in range(spec.K + 1, spec.L + 1):
        w = factorize(n * spec.Q + k).omega
        if w > spec.theta2:
            return None
        table[k] = w
    if table[spec.K + 1] <= spec.theta3:
        return None
    return SearchWitness(
        n0=n,
        prime_certificates=tuple(certs),
        omega_table=table,
        omega_after_block=table[spec.K + 1],
    )


def search_n0(spec: SearchSpec, threads: int | None = None) -> SearchWitness | None:
    """Least n in [1, n_max] meeting all three conditions, or None.

    Ascending blocks of n are pre-sieved: an n where some (Q/k) n + 1 has
    a prime factor up to a fixed bound other than itself cannot qualify.
    The survivors, in order, are certified one by one with is_prime and
    factorize, so the least index is the one a plain scan finds.  That
    per-candidate work is pure-Python bigint arithmetic under the
    interpreter lock, so a thread pool does not pay; threads is accepted
    and ignored so that existing callers that pass it keep working.
    """
    top = spec.Q * spec.n_max + 1
    forms = [(f.a, f.b) for f in form_family(spec.K, spec.Q).forms]
    for lo, acc in _form_blocks(forms, min(math.isqrt(top), _PRESIEVE_BOUND), spec.n_max):
        for i in np.flatnonzero(acc).tolist():
            w = _check_candidate(spec, lo + i)
            if w is not None:
                return w
    return None


def verify_witness(spec: SearchSpec, witness: SearchWitness) -> bool:
    """Independent re-validation of a witness from scalar primitives only.

    Recomputes each certificate as (Q/k) n0 + 1, re-tests primality,
    re-derives every omega via factorize, and re-checks both thresholds.
    """
    n0 = witness.n0
    if not 1 <= n0 <= spec.n_max:
        return False
    if len(witness.prime_certificates) != spec.K:
        return False
    for k in range(1, spec.K + 1):
        c = witness.prime_certificates[k - 1]
        if c != (spec.Q // k) * n0 + 1 or not is_prime(c):
            return False
    expected_ks = set(range(spec.K + 1, spec.L + 1))
    if set(witness.omega_table) != expected_ks:
        return False
    for k in sorted(expected_ks):
        w = factorize(n0 * spec.Q + k).omega
        if w != witness.omega_table[k] or w > spec.theta2:
            return False
    w1 = witness.omega_table[spec.K + 1]
    return witness.omega_after_block == w1 and w1 > spec.theta3

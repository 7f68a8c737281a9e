"""Sieve backbone: factor sieve windows, the omega/tau/phi range tables,
scalar primality and factorization.

Oracles here are deliberately different algorithms: per-n trial division,
a vectorised modulo pass over a self-built prime list and sympy, never the
stride-sieve code under test.
"""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab.errors import DomainError, ResourceError


def _trial_omega(n: int) -> int:
    w, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            w += 1
            while n % d == 0:
                n //= d
        d += 1
    return w + (1 if n > 1 else 0)


def _trial_factor(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _trial_primes(limit: int) -> list:
    return [p for p in range(2, limit + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


class TestSpfTable:
    def test_tiny_window(self):
        sv = ol.build_factor_sieve(2, 2)
        assert sv.spf_of(2) == 2

    def test_shifted_window(self):
        sv = ol.build_factor_sieve(90, 92)
        assert [sv.spf_of(n) for n in (90, 91, 92)] == [2, 7, 2]

    def test_primes_have_themselves_as_spf(self):
        sv = ol.build_factor_sieve(1, 100)
        primes = [n for n in range(2, 101) if sv.spf_of(n) == n]
        assert primes == _trial_primes(100)
        assert len(primes) == 25

    def test_spf_divides_and_is_minimal(self):
        sv = ol.build_factor_sieve(2, 5000)
        for n in range(2, 5001):
            p = sv.spf_of(n)
            assert n % p == 0
            fac = _trial_factor(n)
            assert p == min(fac)

    def test_window_bounds_checked(self):
        sv = ol.build_factor_sieve(10, 20)
        with pytest.raises(DomainError):
            sv.spf_of(9)
        with pytest.raises(DomainError):
            ol.build_factor_sieve(0, 10)
        with pytest.raises(DomainError):
            ol.build_factor_sieve(10, 5)

    def test_memory_budget_refusal(self):
        with pytest.raises(ResourceError):
            ol.build_factor_sieve(1, 10**9, memory_budget=10**6)

    def test_each_table_checked_against_budget(self):
        sv = ol.build_factor_sieve(1, 10**5, block_size=1000, memory_budget=2 * 10**5)
        assert len(ol.omega_range(sv)) == 10**5  # 1 byte per n fits
        with pytest.raises(ResourceError):
            ol.phi_range(sv)  # 8 bytes per n does not


class TestOmegaRange:
    def test_matches_trial_division_exhaustively(self, sieve_1e6, omega_1e6):
        lo = 1
        for n in (1, 2, 12, 30030, 999983, 1000000):
            assert omega_1e6[n - lo] == _trial_omega(n)
        rng = random.Random(20240817)
        for n in (rng.randrange(1, 10**6 + 1) for _ in range(3000)):
            assert omega_1e6[n - lo] == _trial_omega(n)

    def test_small_prefix_exact(self, omega_1e6):
        for n in range(1, 20001):
            assert omega_1e6[n - 1] == _trial_omega(n)

    def test_shifted_window_exact(self):
        sv = ol.build_factor_sieve(999_000, 1_001_000)
        om = ol.omega_range(sv)
        for n in range(999_000, 1_001_001, 37):
            assert om[n - 999_000] == _trial_omega(n)

    def test_partition_invariance(self):
        ref = ol.omega_range(ol.build_factor_sieve(1, 300000, block_size=1 << 22))
        for bs in (10_000, 17_777):
            assert np.array_equal(ref, ol.omega_range(ol.build_factor_sieve(1, 300000, block_size=bs)))

    def test_thread_invariance(self, sieve_1e6, omega_1e6):
        assert np.array_equal(omega_1e6, ol.omega_range(sieve_1e6, threads=4))

    def test_additivity_on_coprime_pairs(self, omega_1e6):
        om = omega_1e6
        for m in range(2, 200):
            for n in range(2, 200):
                if math.gcd(m, n) == 1:
                    assert om[m * n - 1] == om[m - 1] + om[n - 1]
        rng = random.Random(7)
        checked = 0
        while checked < 2000:
            m, n = rng.randrange(2, 1000), rng.randrange(2, 1000)
            if math.gcd(m, n) == 1:
                assert om[m * n - 1] == om[m - 1] + om[n - 1]
                checked += 1

    def test_monotone_under_multiplication(self, omega_1e6):
        om = omega_1e6.astype(np.int64)
        g = np.arange(1, 1001)
        n = np.arange(1, 1001)
        prod = np.outer(g, n)
        assert np.all(om[(prod - 1).ravel()] >= np.tile(om[n - 1], 1000))


class TestTauPhiRanges:
    def test_tau_matches_divisor_count(self, sieve_1e6):
        tau = ol.tau_range(ol.build_factor_sieve(1, 10000))
        for n in range(1, 10001):
            fac = _trial_factor(n)
            expect = 1
            for e in fac.values():
                expect *= e + 1
            assert tau[n - 1] == expect

    def test_tau_shifted_window(self):
        tau = ol.tau_range(ol.build_factor_sieve(5000, 5100))
        for n in range(5000, 5101):
            assert tau[n - 5000] == sum(1 for d in range(1, n + 1) if n % d == 0)

    def test_phi_matches_coprime_count(self):
        phi = ol.phi_range(ol.build_factor_sieve(1, 3000))
        for n in range(1, 3001):
            assert phi[n - 1] == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_phi_shifted_window_product_formula(self):
        phi = ol.phi_range(ol.build_factor_sieve(100000, 101000))
        for n in range(100000, 101001, 13):
            fac = _trial_factor(n)
            expect = n
            for p in fac:
                expect = expect // p * (p - 1)
            assert phi[n - 100000] == expect

    def test_tau_at_least_two_to_omega(self, omega_1e6):
        sv = ol.build_factor_sieve(1, 10**5)
        tau = ol.tau_range(sv).astype(np.int64)
        om = omega_1e6[: 10**5].astype(np.int64)
        assert np.all(tau[1:] >= 2 ** om[1:])  # n >= 2
        assert tau[0] == 1 and om[0] == 0


@st.composite
def _windows(draw):
    lo = draw(st.integers(1, 10**8 - 1))
    return lo, draw(st.integers(lo, min(lo + 3000, 10**8 - 1)))


class TestRangeProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        window=_windows(),
        block_size=st.integers(64, 4096),
        threads=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_block_and_thread_invariance_against_factorint(self, window, block_size, threads, data):
        lo, hi = window
        whole = ol.build_factor_sieve(lo, hi)
        ref = (ol.omega_range(whole), ol.tau_range(whole), ol.phi_range(whole))
        assert [t.dtype for t in ref] == [np.uint8, np.int32, np.int64]
        sv = ol.build_factor_sieve(lo, hi, block_size=block_size)
        got = (ol.omega_range(sv, threads=threads), ol.tau_range(sv), ol.phi_range(sv))
        for r, g in zip(ref, got):
            assert r.dtype == g.dtype and np.array_equal(r, g)
        for n in data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=8)):
            fac = sympy.factorint(n)
            assert ref[0][n - lo] == len(fac)
            assert ref[1][n - lo] == math.prod(e + 1 for e in fac.values())
            assert ref[2][n - lo] == math.prod((p - 1) * p ** (e - 1) for p, e in fac.items())


@st.composite
def _below_2_64(draw):
    """n < 2**64: uniform draws, prime powers, and products of two ~32-bit primes."""
    kind = draw(st.sampled_from(["uniform", "prime_power", "semiprime"]))
    if kind == "uniform":
        return draw(st.integers(1, 2**64 - 1))
    if kind == "prime_power":
        p = sympy.prevprime(draw(st.integers(3, 2**32)))
        return p ** draw(st.integers(1, 63 // p.bit_length()))
    p, q = (sympy.prevprime(draw(st.integers(2**31, 2**32))) for _ in range(2))
    return p * q


class TestFactorizeProperty:
    @settings(max_examples=60, deadline=None)
    @given(n=_below_2_64())
    def test_agrees_with_factorint(self, n):
        assert dict(ol.factorize(n).factors) == sympy.factorint(n)


class TestScalarFactorization:
    @pytest.mark.parametrize(
        "n,factors",
        [
            (1, ()),
            (2, ((2, 1),)),
            (360, ((2, 3), (3, 2), (5, 1))),
            (1024, ((2, 10),)),
            (30030, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))),
        ],
    )
    def test_known_factorizations(self, n, factors):
        assert ol.factorize(n).factors == factors

    def test_against_trial_division(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            assert dict(ol.factorize(n).factors) == _trial_factor(n)

    def test_large_semiprime_and_big_values(self):
        p, q = 1_000_003, 1_000_033
        assert ol.factorize(p * q).factors == ((p, 1), (q, 1))
        n = 2**40 + 1
        fac = ol.factorize(n)
        assert fac.verify() and fac.n == n

    def test_perfect_powers(self):
        p = 65537
        assert ol.factorize(p * p).factors == ((p, 2),)
        assert ol.factorize(10**18).factors == ((2, 18), (5, 18))

    def test_zero_and_negative_rejected(self):
        with pytest.raises(DomainError):
            ol.factorize(0)
        with pytest.raises(DomainError):
            ol.factorize(-6)

    def test_twelve_base_pseudoprime_split(self):
        fac = ol.factorize(318_665_857_834_031_151_167_461)
        assert fac.factors == ((399_165_290_221, 1), (798_330_580_441, 1))
        assert fac.omega == 2

    def test_composite_past_primality_range_split(self):
        # every cofactor here is proved composite by the Miller-Rabin rounds
        n = 1061 * 1063 * 1069 * 1087 * 1091 * 1151 * 1361 * 1481
        assert n > 3_317_044_064_679_887_385_961_981
        assert dict(ol.factorize(n).factors) == sympy.factorint(n)

    def test_probable_prime_past_primality_range_refused(self):
        p = sympy.nextprime(3_317_044_064_679_887_385_961_981)
        with pytest.raises(DomainError):
            ol.factorize(3 * p)

    def test_scalar_helpers_consistent(self, omega_1e6):
        for n in (1, 2, 97, 5040, 123456):
            assert ol.omega(n) == omega_1e6[n - 1]
            assert ol.tau(n) == sum(1 for d in range(1, n + 1) if n % d == 0)
            assert ol.phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestPrimality:
    def test_small_range_exhaustive(self):
        primes = set(_trial_primes(2000))
        for n in range(0, 2001):
            assert ol.is_prime(n) == (n in primes)

    @pytest.mark.parametrize("n,expect", [
        (2, True),
        (1, False),
        (1000003, True),
        (341, False),          # 11 * 31, base-2 Fermat pseudoprime
        (3215031751, False),   # strong pseudoprime to bases 2,3,5,7
        (2**61 - 1, True),     # Mersenne prime
        # psi_t, the least strong pseudoprime to the first t prime bases
        # (Sorenson & Webster, Math. Comp. 86 (2017)); psi_4 is pinned above,
        # psi_8 = psi_7 and psi_11 = psi_10 = psi_9.
        (2047, False),                          # psi_1
        (1373653, False),                       # psi_2
        (25326001, False),                      # psi_3
        (2152302898747, False),                 # psi_5
        (3474749660383, False),                 # psi_6
        (341550071728321, False),               # psi_7
        (3825123056546413051, False),           # psi_9
        (318665857834031151167461, False),      # psi_12
    ])
    def test_pinned_cases(self, n, expect):
        assert ol.is_prime(n) is expect
        assert sympy.isprime(n) is expect

    def test_prime_mask_agrees(self):
        mask = ol.prime_mask(5000)
        primes = set(_trial_primes(5000))
        for n in range(0, 5001):
            assert mask[n] == (n in primes)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ol.is_prime(-1)
        with pytest.raises(DomainError):
            ol.is_prime(10**25)

"""Truncated Moebius sums, the weighted Euler-product identity, and
lambda^omega means, all against literal divisor enumerations."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab.brun import _balanced, _split_sum
from omegalab.cli import main
from omegalab.errors import DomainError, ResourceError


def brute_truncated(m: int, V: int) -> int:
    """Literal enumeration of sum_{d | m, omega(d) <= V} mu(d)."""
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        w, mu, r = 0, 1, d
        p = 2
        while p * p <= r:
            if r % p == 0:
                r //= p
                if r % p == 0:
                    mu = 0
                    break
                w += 1
                mu = -mu
            p += 1
        if mu and r > 1:
            w += 1
            mu = -mu
        if mu and w <= V:
            total += mu
    return total


FIRST8 = (2, 3, 5, 7, 11, 13, 17, 19)


class TestBrunTruncatedSum:
    @pytest.mark.parametrize("V", [0, 1, 2, 5])
    def test_unit(self, V):
        assert ol.brun_truncated_divisor_sum(1, V) == 1

    def test_hand_values(self):
        assert ol.brun_truncated_divisor_sum(30, 2) == 1 - 3 + 3
        assert ol.brun_truncated_divisor_sum(6, 1) == -1

    def test_matches_brute_enumeration(self):
        for m in (1, 2, 6, 10, 30, 210, 2310, 30030):
            for V in range(0, 8):
                assert ol.brun_truncated_divisor_sum(m, V) == brute_truncated(m, V)

    def test_full_depth_recovers_moebius_sum(self):
        for m in (2, 6, 30, 210):
            w = ol.omega(m)
            assert ol.brun_truncated_divisor_sum(m, w) == 0
            assert ol.brun_truncated_divisor_sum(m, w + 3) == 0

    def test_closed_form(self):
        for m in (6, 30, 210, 2310):
            w = ol.omega(m)
            for V in range(0, w):
                expect = (-1) ** V * math.comb(w - 1, V)
                assert ol.brun_truncated_divisor_sum(m, V) == expect

    def test_parity_sandwich_exhaustive_first8(self):
        for r in range(0, 9):
            for sub in combinations(FIRST8, r):
                m = math.prod(sub)
                ind = 1 if m == 1 else 0
                for V in range(0, 9):
                    s = ol.brun_truncated_divisor_sum(m, V)
                    if V % 2 == 0:
                        assert s >= ind
                    else:
                        assert s <= ind

    @settings(max_examples=100, deadline=None)
    @given(
        primes=st.lists(st.sampled_from(list(sympy.primerange(2, 2000))), max_size=10, unique=True),
        V=st.integers(0, 12),
    )
    def test_literal_divisor_loop_property(self, primes, V):
        # the divisors of a squarefree m are the products of subsets of its
        # primes, and a subset of size r has omega = r and mu = (-1)^r
        m = math.prod(primes)
        literal = 0
        for r in range(min(V, len(primes)) + 1):
            for _divisor in combinations(primes, r):
                literal += (-1) ** r
        got = ol.brun_truncated_divisor_sum(m, V)
        assert got == literal
        full = 1 if m == 1 else 0
        assert got >= full if V % 2 == 0 else got <= full

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError):
            ol.brun_truncated_divisor_sum(12, 2)
        with pytest.raises(DomainError):
            ol.brun_truncated_divisor_sum(49, 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            ol.brun_truncated_divisor_sum(6, -1)


class TestCompleteSieveProduct:
    def test_empty_interval(self):
        chk = ol.complete_sieve_product(2, ol.PrimeInterval(23, 28))
        assert chk.product == 1
        assert chk.divisor_sum == 1
        assert chk.sides_equal

    def test_hand_example(self):
        chk = ol.complete_sieve_product(2, ol.PrimeInterval(4, 10))
        assert chk.product == Fraction(1, 3)
        assert chk.divisor_sum == Fraction(1, 3)
        assert chk.sides_equal

    def test_hand_example_with_exclusion(self):
        chk = ol.complete_sieve_product(2, ol.PrimeInterval(4, 10, frozenset({5})))
        assert chk.product == Fraction(2, 3)
        assert chk.sides_equal

    def test_divisor_route_term_by_term(self):
        # 35 = 5 * 7: sum over d | 35 of mu(d) 2^omega(d)/phi(d)
        hand = 1 - Fraction(2, 4) - Fraction(2, 6) + Fraction(4, 24)
        assert hand == Fraction(1, 3)

    def test_zero_factor_rejected(self):
        with pytest.raises(DomainError):
            ol.complete_sieve_product(4, ol.PrimeInterval(4, 10))  # p=5=K+1

    def test_large_support_skips_brute_side(self):
        chk = ol.complete_sieve_product(1, ol.PrimeInterval(3, 100))
        assert chk.divisor_sum is None and chk.sides_equal is None
        assert 0 < chk.product < 1

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(1, 8), lo=st.integers(9, 20000), span=st.integers(1, 20000))
    def test_product_tree_matches_running_product(self, K, lo, span):
        ps = ol.PrimeInterval(lo, lo + span).primes()
        chk = ol.complete_sieve_product(K, ol.PrimeInterval(lo, lo + span))
        assert chk.product == Fraction(math.prod(p - 1 - K for p in ps), math.prod(p - 1 for p in ps))
        assert _balanced(mul, [p - 1 - K for p in ps], 1) == math.prod(p - 1 - K for p in ps)

    def test_interval_shape_checked(self):
        with pytest.raises(DomainError):
            ol.PrimeInterval(10, 10)


class TestTruncationErrorBound:
    def test_hand_example(self):
        rep = ol.truncation_error_bound(2, ol.PrimeInterval(4, 10), 1)
        assert rep.dropped_mass == Fraction(1, 6)
        assert rep.bound == Fraction(25, 72)
        assert rep.dominates

    def test_depth_beyond_support_drops_nothing(self):
        rep = ol.truncation_error_bound(2, ol.PrimeInterval(4, 10), 5)
        assert rep.dropped_mass == 0
        assert rep.bound >= 0

    def test_bound_decreasing_once_past_prime_sum(self):
        iv = ol.PrimeInterval(4, 40)
        S = sum(Fraction(2, p - 1) for p in iv.primes())
        reps = [ol.truncation_error_bound(2, iv, V).bound for V in range(0, 12)]
        for v in range(len(reps) - 1):
            if Fraction(v + 2, 1) > S:  # ratio S/(V+2) < 1 from here on
                assert reps[v + 1] < reps[v]

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 8), lo=st.integers(2, 3000), span=st.integers(1, 3000))
    def test_split_sum_matches_sequential_sum(self, K, lo, span):
        ps = ol.PrimeInterval(lo, lo + span).primes()
        sequential = Fraction(0)
        for p in ps:
            sequential += Fraction(K, p - 1)
        assert _split_sum([Fraction(K, p - 1) for p in ps]) == sequential

    def test_domination_on_many_instances(self):
        for hi in (20, 30, 50):
            for V in range(0, 4):
                rep = ol.truncation_error_bound(3, ol.PrimeInterval(4, hi), V)
                if rep.dropped_mass is not None:
                    assert rep.bound >= rep.dropped_mass


class TestMemoryBudget:
    @pytest.mark.parametrize("budget", [4_000_000, 16_000_000, 20_000_000])
    def test_sum_refused_or_within_budget(self, budget, monkeypatch):
        # the primes list and the Fraction terms of S are reserved before
        # they are built: the call is refused, or peaks within the budget
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        interval = ol.PrimeInterval(4, 10**6)
        tracemalloc.start()
        try:
            ol.truncation_error_bound(2, interval, 0)
        except ResourceError:
            assert budget < 20_000_000
        else:
            assert tracemalloc.get_traced_memory()[1] <= budget
        finally:
            tracemalloc.stop()

    def test_prime_list_refused(self, monkeypatch):
        # primes_up_to reserves ~1.7e5 bytes here, the list ~4.6e5
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", "300000")
        with pytest.raises(ResourceError, match="list of the primes"):
            ol.PrimeInterval(4, 10**5).primes()

    def test_cli_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", "4000000")
        argv = ["euler-identity", "--K", "2", "--lo", "4", "--hi", "1000000", "--V", "0", "--no-timing"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "resource"


class TestLambdaOmegaMean:
    def test_lambda_one_counts_integers(self):
        rep = ol.lambda_omega_mean(1, 1000)
        assert rep.value == 1000

    def test_hand_polynomial_at_six(self):
        lam = Fraction(1, 3)
        rep = ol.lambda_omega_mean(lam, 6)
        assert rep.value == 1 + 4 * lam + lam**2

    def test_float_route_matches_exact_route(self):
        exact = ol.lambda_omega_mean(Fraction(1, 10), 10**4)
        approx = ol.lambda_omega_mean(0.1, 10**4)
        assert abs(float(exact.value) - approx.value) <= approx.float_error_bound + 1e-9
        assert approx.float_error_bound < 1e-6

    def test_order_invariance_of_exact_route(self):
        lam = Fraction(2, 7)
        rep = ol.lambda_omega_mean(lam, 5000)
        om = ol.omega_range(ol.build_factor_sieve(1, 5000))
        reversed_sum = sum(lam ** int(w) for w in om[::-1])
        assert rep.value == reversed_sum

    def test_ratio_against_yardstick_tracks_shiu_shape(self):
        lam = Fraction(1, 10)
        small = ol.lambda_omega_mean(lam, 10**6)
        large = ol.lambda_omega_mean(lam, 10**7)
        mean_ratio = float(large.value) / float(small.value)
        yard = 10.0 * (math.log(10**7) / math.log(10**6)) ** (float(lam) - 1.0)
        assert abs(mean_ratio / yard - 1.0) < 0.05

    def test_lambda_trick_dominance_exhaustive(self):
        om = ol.omega_range(ol.build_factor_sieve(1, 10**4))
        for lam in (0.1, 0.5):
            for theta in (0.5, 1.0, 2.0, 3.5, 5.0):
                for n in range(1, 10**4 + 1):
                    w = int(om[n - 1])
                    ind = 1.0 if w <= theta else 0.0
                    assert ind <= lam ** (w - theta) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ol.lambda_omega_mean(Fraction(3, 2), 100)
        with pytest.raises(DomainError):
            ol.lambda_omega_mean(0.5, 0)

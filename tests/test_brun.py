"""Truncated Moebius sums, the weighted Euler-product identity, and
lambda^omega means, all against literal divisor enumerations."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import add, mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab.series import _balanced, _fold
from omegalab.cli import _parser, main
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


_PRIMES = list(sympy.primerange(11, 200_000))


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


_ENDS = st.one_of(st.integers(-50, 30000), st.floats(-50, 30000))
_WIDTHS = st.one_of(st.integers(1, 20000), st.floats(0.01, 20000))


class TestPrimeInterval:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_primerange(self, data):
        # float ends, and exclusions in range or not, prime or not, past 2**63 or not
        lo = data.draw(_ENDS)
        hi = lo + data.draw(_WIDTHS)
        want = list(sympy.primerange(math.floor(lo) + 1, math.floor(hi) + 1))
        entries = [st.integers(-100, 60000), st.integers(2**63, 2**70)]
        excluded = data.draw(st.frozensets(st.one_of(st.sampled_from(want or [0]), *entries), max_size=12))
        got = ol.PrimeInterval(lo, hi, excluded).primes()
        assert got == [p for p in want if p not in excluded]
        assert all(type(p) is int for p in got)


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
        with pytest.raises(DomainError, match=r"interval prime 5 <= K\+1 = 5 "):
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

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        K=st.integers(1, 8),
        start=st.integers(0, len(_PRIMES) - 301),
        count=st.one_of(st.integers(0, 300), st.sampled_from([63, 64, 65, 127, 128, 129])),
    )
    def test_fold_of_local_factors_matches_literal_quotient(self, data, K, start, count):
        # the window holds `count` primes above 10, so that the primes kept
        # straddle the leaves of 64 terms; lo is below the first of them
        # and above the prime before it, and hi below the next prime
        window = _PRIMES[start : start + count]
        lo, hi = _PRIMES[start] - 2, _PRIMES[start + count] - 1
        others = st.integers(0, 2 * hi)
        excluded = data.draw(st.frozensets(st.one_of(st.sampled_from(window), others) if window else others, max_size=20))
        kept = [p for p in window if p not in excluded]
        chk = ol.complete_sieve_product(K, ol.PrimeInterval(lo, hi, excluded))
        assert chk.n_primes == len(kept)
        assert chk.product == Fraction(math.prod(p - 1 - K for p in kept), math.prod(p - 1 for p in kept))

    def test_report_holds_the_product_itself(self):
        # to_dict is asdict, whose deep copy of a Fraction is the Fraction,
        # so the 1.4 M-bit product is not copied into the report
        chk = ol.complete_sieve_product(2, ol.PrimeInterval(4, 10**6))
        d = chk.to_dict()
        assert list(d) == ["K", "n_primes", "product", "divisor_sum", "sides_equal"]
        assert d["product"] is chk.product

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
        assert _balanced(add, [Fraction(K, p - 1) for p in ps], Fraction(0)) == sequential
        assert _fold(add, (Fraction(K, p - 1) for p in ps), Fraction(0)) == sequential

    def test_domination_on_many_instances(self):
        for hi in (20, 30, 50):
            for V in range(0, 4):
                rep = ol.truncation_error_bound(3, ol.PrimeInterval(4, hi), V)
                if rep.dropped_mass is not None:
                    assert rep.bound >= rep.dropped_mass


class TestMemoryBudget:
    @pytest.mark.parametrize("budget", [4_000_000, 16_000_000, 20_000_000])
    def test_sum_refused_or_within_budget(self, budget, monkeypatch):
        # the primes list and the fold of S are reserved before they are
        # built, by the product's rule (~4.9e6 bytes): the call is refused,
        # or peaks within the budget
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        interval = ol.PrimeInterval(4, 10**6)
        tracemalloc.start()
        try:
            ol.truncation_error_bound(2, interval, 0)
        except ResourceError:
            assert budget < 16_000_000
        else:
            assert tracemalloc.get_traced_memory()[1] <= budget
        finally:
            tracemalloc.stop()

    def test_power_refused_or_within_budget(self, monkeypatch):
        # S^401 / 401! peaks near 7.8e5 bytes, far past the ~8.7e4 that the
        # folds' rule reserves here: it is reserved from the size of S
        budget = 600_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        interval = ol.PrimeInterval(4, 10**4)
        tracemalloc.start()
        try:
            ol.truncation_error_bound(2, interval, 400)
        except ResourceError:
            pass
        else:
            assert tracemalloc.get_traced_memory()[1] <= budget
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(ol.truncation_error_bound, id="truncation_error_bound"),
            pytest.param(lambda K, interval, V: ol.complete_sieve_product(K, interval), id="complete_sieve_product"),
        ],
    )
    @given(lo=st.integers(-5, 29_999), width=st.integers(1, 30_000), K=st.integers(1, 8), V=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_peak_within_the_largest_request(self, call, lo, width, K, V):
        # every byte past a fixed allowance (Python frames, small ints and
        # Fractions, 4 kB) is in some reservation: the prime list's, a
        # fold's or the power's
        allowance = 4096
        requests = [0]
        real = ol.brun._reserve

        def record(nbytes, what):
            requests.append(nbytes)
            real(nbytes, what)

        interval = ol.PrimeInterval(lo, min(lo + width, 30_000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ol.brun, "_reserve", record)
            tracemalloc.start()
            try:
                call(K, interval, V)
                peak = tracemalloc.get_traced_memory()[1]
            except DomainError:  # an interval prime is at most K + 1
                return
            finally:
                tracemalloc.stop()
        assert peak <= max(requests) + allowance

    @pytest.mark.parametrize("budget", [3_800_000, 6_000_000, 20_000_000])
    def test_product_refused_or_within_budget(self, budget, monkeypatch):
        # the primes' list (~3.77e6 bytes) and the fold are reserved together
        # once the primes are listed: the call is refused, or peaks within
        # the budget
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        interval = ol.PrimeInterval(4, 10**6)
        tracemalloc.start()
        try:
            ol.complete_sieve_product(2, interval)
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

    def test_kept_primes_reserved(self, monkeypatch):
        # the list is reserved for the 6134 primes of (9.9e6, 1e7], not the 664579 up to 1e7
        budget = 20_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            ps = ol.PrimeInterval(9_900_000, 10_000_000).primes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ps) == sympy.primepi(10_000_000) - sympy.primepi(9_900_000)
        assert peak <= budget

    def test_window_alone_sieved(self, monkeypatch):
        # the sieve runs over (9.9e6, 1e7] alone, by the 446 primes up to
        # its root: the peak is set by the window's 6134 primes, where
        # listing the 664579 up to 1e7 first took over 1e7 bytes
        budget = 1_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            ps = ol.PrimeInterval(9_900_000, 10_000_000).primes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps == list(sympy.primerange(9_900_001, 10_000_001))
        assert peak <= budget

    @given(lo=st.integers(-5, 3000), width=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_window_matches_primerange(self, lo, width):
        assert ol.PrimeInterval(lo, lo + width).primes() == list(sympy.primerange(lo + 1, lo + width + 1))

    def test_cli_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", "4000000")
        argv = ["euler-identity", "--K", "2", "--lo", "4", "--hi", "1000000", "--V", "0", "--no-timing"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "resource"


    def test_cli_refusal_comes_before_the_products(self, monkeypatch, capsys):
        # the product's fold (~4.9e6 bytes with the list) is refused once the
        # primes are listed (~3.8e6 bytes), before any product is taken
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", "4000000")
        argv = ["euler-identity", "--K", "2", "--lo", "4", "--hi", "1000000", "--V", "0", "--no-timing"]
        _parser()  # built once per process, outside the traced peak
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "product over 78496 primes" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert peak <= 4_000_000

    @pytest.mark.parametrize(
        "K, V, message",
        [
            (0, 1, "K must be >= 1"),
            (4, 1, "interval prime 5 <= K+1 = 5 makes a factor vanish or flip"),
            (2, -1, "need K >= 1 and V >= 0"),
        ],
    )
    def test_cli_checks_win_over_the_budget(self, K, V, message, monkeypatch, capsys):
        # the checks on K, on the primes and on V come first, as without
        # the early reservation
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", "4000000")
        argv = ["euler-identity", "--K", str(K), "--lo", "4", "--hi", "1000", "--V", str(V), "--no-timing"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"]["message"] == message


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

    @pytest.mark.parametrize("lam", [Fraction(1, 2), 0.5])
    def test_histogram_invariant_under_block_size(self, lam, monkeypatch):
        want = ol.lambda_omega_mean(lam, 5000)
        monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", 61)
        assert ol.lambda_omega_mean(lam, 5000) == want

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

"""Exact series enclosures and the S1/S2/S3 decomposition."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab.errors import DomainError, ResourceError
from omegalab.series import _balanced, _coprime, _fold, _horner, _join, _omega_numerator, _over_power
from omegalab.sieve import build_factor_sieve, factorize, omega_range


def _trial_omega(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


class TestPartialSum:
    def test_first_term_vanishes(self):
        assert ol.partial_sum(2, 1) == 0

    def test_hand_sums(self):
        assert ol.partial_sum(2, 6) == Fraction(1, 2)
        assert ol.partial_sum(2, 10) == Fraction(33, 64)

    def test_against_direct_fraction_loop(self):
        for t in (2, 3, 10):
            for N in (1, 5, 37, 200):
                direct = sum(Fraction(ol.omega(n), t**n) for n in range(1, N + 1))
                assert ol.partial_sum(t, N) == direct

    def test_lowest_terms(self):
        v = ol.partial_sum(2, 10)
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v == Fraction(33, 64)

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(2, 40), N=st.integers(0, 400))
    def test_literal_sum_property(self, t, N):
        literal = sum(Fraction(_trial_omega(n), t**n) for n in range(1, N + 1))
        assert ol.partial_sum(t, N) == literal

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(-(10**40), 10**40),
        t=st.integers(2, 10**6),
        e=st.integers(0, 60),
        powers=st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80)),
    )
    def test_reduction_matches_fraction_gcd(self, num, t, e, powers):
        # valuations of num at t, 2 and 3 both below and above e * v_p(t)
        num *= t ** powers[0] * 2 ** powers[1] * 3 ** powers[2]
        got, want = _over_power(num, t, t**e), Fraction(num, t**e)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(-(10**40), 10**40),
        t=st.integers(2, 10**6),
        e=st.integers(0, 60),
        small=st.integers(1, 10**6),
        power=st.integers(0, 80),
    )
    def test_reduction_with_small_factor(self, num, t, e, small, power):
        num *= small * t**power
        got, want = _over_power(num, t, t**e, small), Fraction(num, small * t**e)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(-(10**40), 10**40), d=st.integers(1, 10**40))
    def test_coprime_matches_fraction(self, n, d):
        g = math.gcd(n, d)
        n, d = n // g, d // g
        got, want = _coprime(n, d), Fraction(n, d)
        assert type(got) is Fraction and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want) and str(got) == str(want)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.sampled_from([2, 3, 4, 8, 10, 16, 2**8, 2**9, 2**10]),
        ws=st.lists(st.integers(0, 40), max_size=300),
    )
    def test_numerator_matches_literal_loop(self, t, ws):
        # N = len(ws) runs over every residue mod 8; weights reach past t;
        # 2^8 is the last bit-plane base, 2^9 the first split one
        literal = sum(w * t ** (len(ws) - 1 - i) for i, w in enumerate(ws))
        assert _horner(ws, t) == literal

    @settings(max_examples=80, deadline=None)
    @given(
        t=st.sampled_from([2, 3, 4, 10, 256, 1024, 2**64]),
        block=st.sampled_from([61, None]),
        blocks=st.integers(0, 8),
        edge=st.integers(-1, 1),
    )
    def test_block_joined_numerator_matches_literal_sum(self, t, block, blocks, edge):
        # N at the edges of blocks of 61: one block, or several joined
        N = max(0, 61 * blocks + edge)
        literal = sum(factorize(n).omega * t ** (N - n) for n in range(1, N + 1))
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            assert _omega_numerator(t, N) == literal

    @settings(max_examples=150, deadline=None)
    @given(
        t=st.sampled_from([3, 10, 2**9, 2**16, 2**64]),
        parts=st.lists(st.tuples(st.integers(0, 2**300), st.integers(0, 200)), max_size=40),
    )
    def test_fold_matches_left_fold(self, t, parts):
        # runs of any length, so right operands of every length are joined
        literal = reduce(lambda x, y: (x[0] * t ** y[1] + y[0], x[1] + y[1]), parts, (0, 0))
        assert _balanced(_join(t), parts, (0, 0)) == literal

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        op=st.sampled_from([add, mul]),
        kind=st.sampled_from([int, Fraction]),
        n=st.one_of(st.integers(0, 300), st.sampled_from([63, 64, 65, 128, 129, 192, 256, 257])),
    )
    def test_leaf_fold_matches_balanced(self, data, op, kind, n):
        # lengths 0..300 end inside a leaf of 64 terms or on its edge
        elems = st.integers(-(2**64), 2**64) if kind is int else st.fractions(-10, 10, max_denominator=10**4)
        xs = data.draw(st.lists(elems, min_size=n, max_size=n))
        empty = kind(op is mul)
        got = _fold(op, iter(xs), empty)
        assert got == _balanced(op, xs, empty)
        assert type(got) is type(_balanced(op, xs, empty))

    @pytest.mark.parametrize("N", [2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5])
    def test_numerator_at_default_block_edges(self, N):
        # against the whole-window table of the same kernel
        om = omega_range(build_factor_sieve(1, N))
        for t in (2, 4, 16, 256):
            assert _omega_numerator(t, N) == _horner(om, t)

    def test_domain(self):
        with pytest.raises(DomainError):
            ol.partial_sum(1, 5)
        with pytest.raises(DomainError):
            ol.partial_sum(2, -1)


class TestTailBound:
    def test_positive_and_small(self):
        b = ol.tail_bound(2, 10)
        assert 0 < b < Fraction(1, 100)

    def test_majorises_sampled_tail_mass(self):
        # the bound at N must exceed the exact partial tail up to any M > N
        for t, N in ((2, 5), (2, 20), (3, 8)):
            bound = ol.tail_bound(t, N)
            M = N + 300
            true_piece = ol.partial_sum(t, M) - ol.partial_sum(t, N)
            assert true_piece < bound

    def test_decreasing_in_n(self):
        for t in (2, 3, 10):
            prev = None
            for N in range(2, 400):
                cur = ol.tail_bound(t, N)
                assert cur > 0
                if prev is not None:
                    assert cur < prev
                prev = cur

    def test_enclosure_example(self):
        enc = ol.alpha_enclosure(2, 10)
        assert enc.lo == Fraction(33, 64)
        assert Fraction(515, 1000) < enc.lo and enc.hi < Fraction(526, 1000)

    def test_nesting_consecutive(self):
        for t in (2, 3, 5):
            prev = ol.alpha_enclosure(t, 2)
            for N in range(3, 300):
                cur = ol.alpha_enclosure(t, N)
                assert cur.nested_in(prev)
                prev = cur

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(2, 40), N=st.integers(2, 2000))
    def test_nesting_property(self, t, N):
        assert ol.alpha_enclosure(t, N + 1).nested_in(ol.alpha_enclosure(t, N))

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(2, 40), N=st.integers(2, 600), M=st.integers(2, 600), u=st.integers(2, 40))
    def test_integer_ends_match_fraction_arithmetic(self, t, N, M, u):
        enc, other, foreign = ol.alpha_enclosure(t, N), ol.alpha_enclosure(t, M), ol.alpha_enclosure(u, M)
        # a tail whose denominator, the prime 10**9 + 7, does not divide (N + 1)(t - 1)^2 t^N
        odd = dataclasses.replace(other, tail_hi=Fraction(1, 10**9 + 7))
        # built by hand with four fields, and moved to another N: t^N follows N
        built = ol.SeriesEnclosure(t, N, enc.partial, enc.tail_hi)
        moved = dataclasses.replace(other, N=M + 1)
        for e in (enc, odd, built, moved):
            assert e.hi == e.partial + e.tail_hi
        assert enc.width == enc.hi - enc.lo
        for o in (other, foreign, odd):
            want = o.partial <= enc.partial and enc.partial + enc.tail_hi <= o.partial + o.tail_hi
            assert enc.nested_in(o) == want

    def test_nesting_at_paper_scale(self):
        assert ol.alpha_enclosure(2, 10**6).nested_in(ol.alpha_enclosure(2, 10**6 - 1))

    def test_numerator_budget(self, monkeypatch):
        # omega_range's own reservation (~36 MB at 1e7) fits 5e7 bytes; the
        # 8e7-byte weight list that t = 2^10 splits from does not, while the
        # 1e7 bytes of plane scratch for t = 2 fit
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(50_000_000))
        with pytest.raises(ResourceError, match="numerator") as err:
            ol.alpha_enclosure(1024, 10**7)
        assert int(re.search(r"needs ~(\d+)", str(err.value)).group(1)) > 8 * 10**7
        assert ol.alpha_enclosure(2, 10**7).N == 10**7

    def test_large_power_of_two_splits(self, monkeypatch):
        # past t = 2^8, k bytes of plane scratch per term would outgrow the
        # splitting's 8-byte list entry: t = 2^64 at N = 2e4 reserves ~0.83 MB
        # by splitting, where planes would need ~1.95 MB.  The enclosure
        # then holds t^N and its reduced copies beside the numerator: it is
        # refused, or it peaks within the budget
        budget = 1_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        assert _omega_numerator(2**64, 2 * 10**4).bit_length() == 64 * (2 * 10**4 - 2) + 1
        tracemalloc.start()
        try:
            enc = ol.alpha_enclosure(2**64, 2 * 10**4)
        except ResourceError:
            enc = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert enc is None or (enc.N == 2 * 10**4 and peak <= budget)

    @pytest.mark.parametrize(
        "call, budget",
        [
            (lambda: ol.tail_bound(2**64, 2 * 10**4), 200_000),
            (lambda: ol.integrality_probe(1, 2, 2**64, 2 * 10**4), 1_000_000),
            (lambda: ol.partial_sum(2**64, 2 * 10**4), 1_000_000),
        ],
        ids=["tail_bound", "integrality_probe", "partial_sum"],
    )
    def test_power_sized_integers_within_budget(self, monkeypatch, call, budget):
        # t^N is 160 kB here: each call is refused before it builds t^N and
        # its copies, or it peaks within the budget
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            call()
        except ResourceError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize(
        "n,t",
        [pytest.param(10**5, t, id=str(t)) for t in (10, 513, 1000)]
        + [(n, t) for n in (1, 2, 7, 63, 64, 65, 200, 1000) for t in (2, 4, 256, 10, 513, 2**64)],
    )
    def test_horner_within_its_reservation(self, monkeypatch, n, t):
        # the splitting route's last join holds its halves, t^m, their
        # product with its Karatsuba scratch and the sum, up to about 7
        # numerators, and the 1563 leaves of 10**5 terms ~96 bytes each
        # beyond their digits; a short sum holds mostly array headers,
        # packbits' output and the fold's small lists, which do not grow
        ws = omega_range(build_factor_sieve(1, n))
        reserved = []
        monkeypatch.setattr("omegalab.series._reserve", lambda nbytes, what: reserved.append(nbytes))
        tracemalloc.start()
        try:
            _horner(ws, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reserved and peak <= reserved[0]

    def test_paper_scale_within_budget(self, monkeypatch):
        # the blocks' join reserves ~1.75e7 bytes and the call peaks near
        # 1e7; a whole-window numerator reserved ~3e7 and was refused
        budget = 24_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            assert ol.alpha_enclosure(2, 10**7).N == 10**7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_nesting_requires_n_at_least_two(self):
        with pytest.raises(DomainError):
            ol.tail_bound(2, 1)


class TestDecomposeTail:
    def test_reference_decomposition(self):
        dec = ol.decompose_tail(2, 1, 3, 2, 4, 4)
        assert dec.S1 == 1
        assert dec.S2 == Fraction(5, 16)
        assert dec.identity_applicable
        assert dec.identity_holds
        assert dec.identity_rhs == 1

    def test_identity_hand_value(self):
        # omega parts: 0/2 + 1/4 = 1/4; unit parts: 1/2 + 1/4 = 3/4
        assert Fraction(1, 4) + Fraction(3, 4) == 1

    def test_linearity_in_b(self):
        one = ol.decompose_tail(2, 1, 3, 2, 4, 4)
        two = ol.decompose_tail(2, 2, 3, 2, 4, 4)
        assert two.S1 == 2 * one.S1
        assert two.S2 == 2 * one.S2
        assert two.S3_truncated == 2 * one.S3_truncated
        assert two.S3_tail_hi == 2 * one.S3_tail_hi

    def test_components_match_direct_sum(self):
        for t, b, n0, K, Q, L, M in (
            (2, 1, 3, 2, 4, 4, 30),
            (3, 2, 1, 3, 36, 6, 40),
            (2, 1, 7, 1, 2, 5, 20),
        ):
            dec = ol.decompose_tail(t, b, n0, K, Q, L, M)
            N = n0 * Q
            direct = sum(Fraction(b * ol.omega(N + k), t**k) for k in range(1, M + 1))
            assert dec.S1 + dec.S2 + dec.S3_truncated == direct
            assert dec.S3_tail_hi > 0

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(2, 20),
        b=st.integers(1, 5),
        n0=st.integers(1, 10**6),
        K=st.integers(1, 4),
        q_mult=st.integers(1, 30),
        gaps=st.tuples(st.integers(1, 20), st.integers(0, 200)),
        block=st.sampled_from([61, None]),
    )
    def test_blocks_match_factorint_loops(self, t, b, n0, K, q_mult, gaps, block):
        Q = math.lcm(*range(1, K + 1)) ** 2 * q_mult
        L = K + gaps[0]
        M = L + gaps[1]
        with pytest.MonkeyPatch.context() as mp:
            if block:  # omega(N + k) over several blocks of 61
                mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            dec = ol.decompose_tail(t, b, n0, K, Q, L, M)
        N = n0 * Q

        def block(lo, hi):
            return sum(Fraction(b * len(sympy.factorint(N + k)), t**k) for k in range(lo, hi + 1))

        assert dec.S1 == block(1, K)
        assert dec.S2 == block(K + 1, L)
        assert dec.S3_truncated == block(L + 1, M)
        if dec.identity_applicable:
            rhs = sum(Fraction(b * (len(sympy.factorint(k)) + 1), t**k) for k in range(1, K + 1))
            assert dec.identity_rhs == rhs and dec.identity_holds

    @pytest.mark.parametrize("n0", [2**48 - 10, 2**48 + 1], ids=["straddling", "past"])
    def test_blocks_across_the_sieve_limit(self, n0):
        # N + k crosses 2**50, or lies wholly past it, where factorize is
        # the route: the table's slices must agree with it on either side
        t, b, K, Q, L, M = 3, 2, 2, 4, 5, 60
        dec = ol.decompose_tail(t, b, n0, K, Q, L, M)
        N = n0 * Q

        def block(lo, hi):
            return sum(Fraction(b * factorize(N + k).omega, t**k) for k in range(lo, hi + 1))

        assert (dec.S1, dec.S2, dec.S3_truncated) == (block(1, K), block(K + 1, L), block(L + 1, M))

    def test_tail_bound_covers_extension(self):
        dec = ol.decompose_tail(2, 1, 3, 2, 4, 4, M=20)
        ext = sum(
            Fraction(ol.omega(12 + k), 2**k) for k in range(21, 200)
        )
        assert ext < dec.S3_tail_hi

    def test_identity_on_search_witnesses(self):
        for spec in (
            ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100),
            ol.SearchSpec(K=3, Q=36, L=6, theta2=4, theta3=0, n_max=200),
            ol.SearchSpec(K=1, Q=2, L=3, theta2=3, theta3=0, n_max=50),
        ):
            w = ol.search_n0(spec)
            dec = ol.decompose_tail(2, 1, w.n0, spec.K, spec.Q, spec.L)
            assert dec.identity_applicable
            assert dec.identity_holds

    def test_identity_not_applicable_without_primality(self):
        # n=2: 4*2+1 = 9 is composite, so the identity is not claimed
        dec = ol.decompose_tail(2, 1, 2, 2, 4, 4)
        assert not dec.identity_applicable
        assert dec.identity_holds is None

    def test_square_divisibility_enforced(self):
        with pytest.raises(DomainError):
            ol.decompose_tail(2, 1, 3, 2, 6, 4)

    def test_order_constraints(self):
        with pytest.raises(DomainError):
            ol.decompose_tail(2, 1, 3, 2, 4, 2)  # L <= K
        with pytest.raises(DomainError):
            ol.decompose_tail(2, 1, 3, 2, 4, 4, M=3)  # M < L


class TestIntegralityProbe:
    def test_probe_is_integer_valued(self):
        rep = ol.integrality_probe(1, 2, 2, 10)
        assert isinstance(rep["probe_integer"], int)
        # a t^N - b t^N partial = 2^10 - 2 * (33/64 * 2^10) = 1024 - 1056
        assert rep["probe_integer"] == 1024 - 2 * 528
        assert rep["window_hi"] > 0

    def test_consistency_flag(self):
        # alpha_2 is in (0.5156, 0.5198); a/b = 33/64 equals the partial sum
        # exactly, so the probe integer is 0, outside the open window
        rep = ol.integrality_probe(33, 64, 2, 10)
        assert rep["probe_integer"] == 0
        assert not rep["consistent"]

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(-50, 50), b=st.integers(1, 50), t=st.integers(2, 40), N=st.integers(2, 400))
    def test_window_is_scaled_tail_bound(self, a, b, t, N):
        rep = ol.integrality_probe(a, b, t, N)
        assert rep["window_hi"] == b * ol.tail_bound(t, N) * t**N
        assert rep["probe_integer"] == a * t**N - b * ol.partial_sum(t, N) * t**N

    def test_domain(self):
        with pytest.raises(DomainError):
            ol.integrality_probe(1, 0, 2, 10)

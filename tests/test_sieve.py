"""Sieve backbone: factor sieve windows, the omega/tau/phi range tables,
scalar primality and factorization.

Oracles here are deliberately different algorithms: per-n trial division,
a vectorised modulo pass over a self-built prime list and sympy, never the
stride-sieve code under test.
"""

import hashlib
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import omegalab as ol
from omegalab.cli import main
from omegalab.errors import DomainError, ResourceError
from omegalab.sieve import _DEFAULT_BLOCK, _DENSE_HITS, _iroot, _omega_blocks, _strikes, _thresholds


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


_PRIMES_TO_3000 = _trial_primes(3000)


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

    def test_partition_invariance(self, monkeypatch):
        sv = ol.build_factor_sieve(1, 300000)
        monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", 1 << 22)
        ref = ol.omega_range(sv)
        for bs in (10_000, 17_777):
            monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", bs)
            assert np.array_equal(ref, ol.omega_range(sv))

    def test_window_bounds_checked(self):
        with pytest.raises(DomainError):
            ol.build_factor_sieve(0, 10)
        with pytest.raises(DomainError):
            ol.build_factor_sieve(10, 5)

    def test_memory_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        with pytest.raises(ResourceError):
            ol.build_factor_sieve(1, 10**9)

    def test_each_table_checked_against_budget(self, monkeypatch):
        monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", 1000)
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(2 * 10**5))
        sv = ol.build_factor_sieve(1, 10**5)
        assert len(ol.omega_range(sv)) == 10**5  # 1 byte per n fits
        with pytest.raises(ResourceError):
            ol.phi_range(sv)  # 8 bytes per n does not

    @pytest.mark.parametrize("lo,hi", [(1, 3 * 10**5), (10**12, 10**12 + 2 * 10**5)])
    def test_tables_stay_within_budget(self, lo, hi, monkeypatch):
        # tracemalloc sees numpy's buffers: every table call either refuses
        # its budget or peaks at or below it, block scratch included
        for budget in (10**6, 4 * 10**6, 16 * 10**6, 64 * 10**6):
            monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
            try:
                sv = ol.build_factor_sieve(lo, hi)
            except ResourceError:
                assert budget < 64 * 10**6
                continue
            for call in (
                lambda: ol.omega_range(sv, threads=1),
                lambda: ol.omega_range(sv, threads=2),
                lambda: ol.tau_range(sv),
                lambda: ol.phi_range(sv),
            ):
                tracemalloc.start()
                try:
                    call()
                except ResourceError:
                    assert budget < 64 * 10**6
                else:
                    assert tracemalloc.get_traced_memory()[1] <= budget
                finally:
                    tracemalloc.stop()

    def test_small_blocks_stay_within_budget(self, monkeypatch):
        # 782 blocks of 64 numbers: the block loop must keep nothing per
        # block, which alone would take about 1.5e6 bytes
        monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", 64)
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        sv = ol.build_factor_sieve(1, 5 * 10**4)
        tracemalloc.start()
        try:
            ol.omega_range(sv, threads=2)
            assert tracemalloc.get_traced_memory()[1] <= 10**6
        finally:
            tracemalloc.stop()

    def test_short_window_near_2_50_within_budget(self, monkeypatch):
        # 2 063 689 base primes for 3001 numbers: level 1 and the exponent
        # pass plan their moduli through _strikes in chunks of at most
        # _CHUNK_BYTES, so only a few int64 arrays grow with the base primes
        budget = 150_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        sv = ol.build_factor_sieve(2**50 - 3000, 2**50)
        for table, last in ((ol.omega_range, 1), (ol.tau_range, 51), (ol.phi_range, 2**49)):
            tracemalloc.start()
            try:
                got = table(sv)
                assert tracemalloc.get_traced_memory()[1] <= budget
            finally:
                tracemalloc.stop()
            assert got.size == 3001 and got[-1] == last

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
def _blocked_windows(draw):
    """(lo, hi, block): lo up to 10**12, so that the gathered moduli include
    squares of large base primes; at most 64 blocks, to bound the run time."""
    block = draw(st.integers(8, 4096))
    lo = draw(st.integers(1, 10**12))
    return lo, draw(st.integers(lo, lo + min(3000, 64 * block))), block


class TestRangeProperties:
    @settings(max_examples=100, deadline=None)
    @given(window=_blocked_windows(), threads=st.sampled_from([1, 2]), data=st.data())
    def test_block_and_thread_invariance_against_factorint(self, window, threads, data):
        lo, hi, block = window
        sv = ol.build_factor_sieve(lo, hi)
        ref = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        assert [t.dtype for t in ref] == [np.uint8, np.int32, np.int64]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            got = (ol.omega_range(sv, threads=threads), ol.tau_range(sv), ol.phi_range(sv))
        for r, g in zip(ref, got):
            assert r.dtype == g.dtype and np.array_equal(r, g)
        for n in data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=8)):
            fac = sympy.factorint(n)
            assert ref[0][n - lo] == len(fac)
            assert ref[1][n - lo] == math.prod(e + 1 for e in fac.values())
            assert ref[2][n - lo] == math.prod((p - 1) * p ** (e - 1) for p, e in fac.items())

    def test_gathered_primes_sharing_one_n(self):
        # 500009 and 999983 are above 2**17, so at the default block both
        # strike n = 2 * 500009 * 999983 through the gathered offsets
        lo, n = 10**12, 2 * 500_009 * 999_983
        sv = ol.build_factor_sieve(lo, lo + 10**6)
        assert ol.omega_range(sv)[n - lo] == 3
        assert ol.tau_range(sv)[n - lo] == 8
        assert ol.phi_range(sv)[n - lo] == 499_998_999_856
        # one lost strike there would be made up by the leftover prime; in a
        # window of 8001 numbers every prime above 1000 is gathered, and three
        # of them strike 1009 * 1013 * 1019
        n = 1009 * 1013 * 1019
        sv = ol.build_factor_sieve(n - 4000, n + 4000)
        assert ol.omega_range(sv)[4000] == 3
        assert ol.tau_range(sv)[4000] == 8
        assert ol.phi_range(sv)[4000] == 1008 * 1012 * 1018


class TestOmegaBlocks:
    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(8, 4096), lo=st.integers(1, 10**8), span=st.integers(0, 3000))
    def test_blocks_join_to_the_table(self, block, lo, span):
        # the base primes are listed at the patched block too, so lo stays
        # where they are few
        want = ol.omega_range(ol.build_factor_sieve(lo, lo + span))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            blocks = list(_omega_blocks(lo, lo + span))
        sizes = [b.size for b in blocks]
        assert sizes[:-1] == [block] * (len(sizes) - 1) and 1 <= sizes[-1] <= block
        assert all(b.dtype == np.uint8 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize(
        "lo, hi, sizes", [(2**50 - 40, 2**50 + 40, [41, 40]), (2**50 + 1, 2**50 + 60, [60])]
    )
    def test_past_the_sieve_limit_by_factorize(self, lo, hi, sizes):
        # a block ends at 2**50, the last n the table reads
        blocks = list(_omega_blocks(lo, hi))
        assert [b.size for b in blocks] == sizes
        assert np.concatenate(blocks).tolist() == [len(sympy.factorint(n)) for n in range(lo, hi + 1)]


class TestProductWidth:
    # below 2**32 the kernel holds the product of the prime powers found in
    # uint32, from 2**32 on in int64: windows that end on either side of the
    # switch or straddle it, in blocks of 256, against sympy
    @pytest.mark.parametrize("lo,hi", [(2**32 - 1200, 2**32 - 1), (2**32 - 1200, 2**32), (2**32 - 600, 2**32 + 600)])
    def test_tables_at_2_32_against_factorint(self, lo, hi, monkeypatch):
        monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", 256)
        sv = ol.build_factor_sieve(lo, hi)
        om, om2 = ol.omega_range(sv, threads=1), ol.omega_range(sv, threads=2)
        tau, phi = ol.tau_range(sv), ol.phi_range(sv)
        for n in range(lo, hi + 1):
            fac = sympy.factorint(n)
            assert om[n - lo] == om2[n - lo] == len(fac)
            assert tau[n - lo] == math.prod(e + 1 for e in fac.values())
            assert phi[n - lo] == math.prod((p - 1) * p ** (e - 1) for p, e in fac.items())
        # 2**32 - 1 = 3 * 5 * 17 * 257 * 65537 is the largest n held in uint32
        n = 2**32 - 1
        if lo <= n <= hi:
            assert (om[n - lo], tau[n - lo], phi[n - lo]) == (5, 32, 2 * 4 * 16 * 256 * 65536)


@st.composite
def _wide_windows(draw):
    """(lo, hi, block): up to 201 numbers from 2**32 - 2000 (straddling
    2**32) to 2**50, at magnitudes spread evenly in bits, in blocks of
    64 to 4096."""
    top = 2 ** draw(st.integers(33, 50))
    lo = draw(st.integers(2**32 - 2000, top - 200))
    return lo, lo + draw(st.integers(0, 200)), draw(st.integers(64, 4096))


_P25 = sympy.prevprime(2**25)  # near 2**50, n = _P25 (_P25 - 1) has f = r = _P25 - 1, next to 2**25
_PRIMORIAL_23 = math.prod(_trial_primes(23))


class TestWrappedProduct:
    # from 2**32 on phi keeps the product f of the prime powers found as a
    # uint32 that wraps, and reads the prime left over, n / f, only where
    # its phi-part is below 2**29: against sympy's totient up to 2**50
    @settings(max_examples=20, deadline=None)
    @given(window=_wide_windows())
    @example(window=(3 * 2**32 - 100, 3 * 2**32 + 100, 64))  # f wraps to 0 at 3 * 2**32
    @example(window=(20 * _PRIMORIAL_23 - 100, 20 * _PRIMORIAL_23 + 100, 64))  # the least phi(n)/n
    @example(window=(_P25 * (_P25 - 1) - 10, _P25 * (_P25 - 1) + 10, 64))  # f = r, q the next prime
    def test_phi_against_totient(self, window):
        lo, hi, block = window
        sv = ol.build_factor_sieve(lo, hi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            got = ol.phi_range(sv)
        assert got.tolist() == [int(sympy.totient(n)) for n in range(lo, hi + 1)]

    def test_pinned_cases_are_what_they_pin(self):
        n = 20 * _PRIMORIAL_23
        assert 2**32 < n and 2**29 < sympy.totient(n) < 2**30
        n = _P25 * (_P25 - 1)
        assert n < 2**50 and math.isqrt(n + 10) == _P25 - 1

    def test_table_peaks(self):
        # the table and a block of scratch: a uint16 log sum (omega), an
        # exponent mask (tau), a uint32 product (phi), and a plan under the cap
        sv = ol.build_factor_sieve(10**12, 10**12 + 10**6)
        for table, bound in ((ol.omega_range, 6), (ol.tau_range, 10), (ol.phi_range, 15)):
            tracemalloc.start()
            try:
                table(sv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 2**20, table.__name__


def _assert_tables_match_factorint(sv, tables, ns):
    om, tau, phi = tables
    for n in ns:
        fac = sympy.factorint(n)
        i = n - sv.lo
        assert om[i] == len(fac), n
        assert tau[i] == math.prod(e + 1 for e in fac.values()), n
        assert phi[i] == math.prod((p - 1) * p ** (e - 1) for p, e in fac.items()), n


@st.composite
def _piece_windows(draw):
    """(lo, hi, block): blocks of 8 to 4096 numbers from lo up to 12 blocks
    in, where the log thresholds of one block change piece by piece, or
    from lo up to 10**12, where each block is one piece."""
    block = draw(st.integers(8, 4096))
    lo = draw(st.one_of(st.integers(1, 12 * block), st.integers(1, 10**12)))
    return lo, lo + draw(st.integers(0, min(3000, 16 * block))), block


_PRIMORIAL_41 = math.prod(_trial_primes(41))  # ~3.04e14: omega = 13, the most below 2**50


class TestLogThreshold:
    # omega and tau find the prime left over above sqrt(block end) by a sum
    # of rounded logs against a threshold that is constant on pieces of at
    # most 1/8 bit: windows with the most strikes, windows with the least
    # leftover primes, and windows whose blocks cut the pieces, against sympy

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (2**49 - 200, 2**49 + 200),
            (3**31 - 200, 3**31 + 200),
            (_PRIMORIAL_41 - 200, _PRIMORIAL_41 + 200),
        ],
        ids=["2^49", "3^31", "41#"],
    )
    def test_most_strikes_exhaustive(self, lo, hi):
        # 2**49 takes 49 strikes; 3**31 has the largest rounding deficit of
        # any prime power there (31 * 0.437 units of 1/64 bit)
        sv = ol.build_factor_sieve(lo, hi)
        tables = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        _assert_tables_match_factorint(sv, tables, range(lo, hi + 1))
        if lo <= _PRIMORIAL_41 <= hi:
            assert tables[0][_PRIMORIAL_41 - lo] == 13

    @pytest.mark.parametrize(
        "lo,hi",
        [(1, 2), (1, 3), (1, 36), (1, 289), (1, 300), (1, 10**4), (1, 2**20 + 5), (2**32 - 3000, 2**32), (10**12 - 10**5, 10**12)],
    )
    def test_least_leftover_prime(self, lo, hi):
        # q, the least prime a block [a, b) can leave over, is the least
        # prime above 13 (the wheel) and above isqrt(b - 1): every multiple
        # of it in the first block, 2q wherever the block reaches it, and
        # 2**32 - 1 = 65535 * 65537 at the edge of 2**32
        b = min(lo + _DEFAULT_BLOCK, hi + 1)
        q = sympy.nextprime(max(13, math.isqrt(b - 1)))
        ns = range(-(-lo // q) * q, b, q)
        assert len(ns) or hi < 17
        sv = ol.build_factor_sieve(lo, hi)
        tables = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        _assert_tables_match_factorint(sv, tables, ns)
        if hi <= 300:
            _assert_tables_match_factorint(sv, tables, range(lo, hi + 1))

    def test_squares_take_the_count_back_exhaustive(self):
        # tau counts the primes to the first power: at (19#)**2 all 8 primes
        # are squared, so every level-2 strike takes its level-1 unit back
        # and the count returns to 0
        c = math.prod(_trial_primes(19)) ** 2
        lo, hi = c - 200, c + 200
        sv = ol.build_factor_sieve(lo, hi)
        tables = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        _assert_tables_match_factorint(sv, tables, range(lo, hi + 1))
        assert tables[0][c - lo] == 8
        assert tables[1][c - lo] == 3**8

    @pytest.mark.parametrize("block", [None, 61])
    def test_powers_of_two_and_three_exhaustive(self, block, monkeypatch):
        # around 2**20 * 3**12, the exponent pass finds e = 20 and 12 at c:
        # by strided steps over the progressions of 4 and 9 in one block,
        # and in blocks of 61, where both plan gathered hits, by the
        # valuation loop with their hits in one ufunc.at call (the base
        # primes are listed in the default blocks)
        c = 2**20 * 3**12
        lo, hi = c - 2000, c + 2000
        sv = ol.build_factor_sieve(lo, hi)
        if block is not None:
            monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
        tables = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        _assert_tables_match_factorint(sv, tables, range(lo, hi + 1))
        assert tables[1][c - lo] == 21 * 13

    @pytest.mark.parametrize("block", [None, 61])
    @pytest.mark.parametrize("c", [131**7, 1021**5, 32749**3], ids=["131^7", "1021^5", "32749^3"])
    def test_gathered_high_powers_exhaustive(self, c, block, monkeypatch):
        # p**2 plans gathered hits for these p > 127 in one block and in
        # blocks of 61, so the valuation loop finds e = 7, 5 and 3 at c over
        # several rounds (the base primes are listed in the default blocks)
        lo, hi = c - 300, c + 300
        sv = ol.build_factor_sieve(lo, hi)
        if block is not None:
            monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
        tables = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        _assert_tables_match_factorint(sv, tables, range(lo, hi + 1))

    @settings(max_examples=50, deadline=None)
    @given(window=_piece_windows(), data=st.data())
    def test_blocks_across_pieces(self, window, data):
        lo, hi, block = window
        sv = ol.build_factor_sieve(lo, hi)
        ref = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            got = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)
        # the first and last n of each piece in the small blocks, where the
        # threshold is farthest from 64 log2 n on either side
        edges = sorted(
            {
                a + e
                for a in range(lo, hi + 1, block)
                for i, j, _ in _thresholds(a, min(a + block, hi + 1))
                for e in (i, j - 1)
            }
        )
        ns = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=8))
        _assert_tables_match_factorint(sv, got, ns)


def _literal_search(spec):
    """The least n that search_n0 must return, by a plain scan with sympy."""
    for n in range(1, spec.n_max + 1):
        if not all(sympy.isprime((spec.Q // k) * n + 1) for k in range(1, spec.K + 1)):
            continue
        ws = {k: len(sympy.factorint(n * spec.Q + k)) for k in range(spec.K + 1, spec.L + 1)}
        if max(ws.values()) <= spec.theta2 and ws[spec.K + 1] > spec.theta3:
            return n
    return None


_PLAN_WINDOWS = ((1, 4000), (10**12, 10**12 + 1000))
_PLAN_SPECS = (
    ol.SearchSpec(K=3, Q=36, L=6, theta2=4, theta3=0, n_max=200),
    ol.SearchSpec(K=4, Q=144, L=10, theta2=4, theta3=1, n_max=2000),
    ol.SearchSpec(K=2, Q=4, L=4, theta2=1, theta3=1, n_max=300),
)


@pytest.fixture(scope="module")
def plan_oracle():
    """Oracle values for the strike-plan checks: sympy factorint per n, a
    literal prime list, literal tuple counts and search scans."""
    tables = {}
    for lo, hi in _PLAN_WINDOWS:
        facs = [sympy.factorint(n) for n in range(lo, hi + 1)]
        tables[lo, hi] = (
            [len(f) for f in facs],
            [math.prod(e + 1 for e in f.values()) for f in facs],
            [math.prod((p - 1) * p ** (e - 1) for p, e in f.items()) for f in facs],
        )
    primes = _trial_primes(30011)
    pset = set(primes)
    family = ol.form_family(4, 144)
    return {
        "tables": tables,
        "primes": primes,
        "twins": sum(1 for n in range(1, 30001) if n in pset and n + 2 in pset),
        "family": sum(
            1 for n in range(1, 3001) if all(sympy.isprime(f(n)) for f in family.forms)
        ),
        "search": [_literal_search(spec) for spec in _PLAN_SPECS],
    }


def _plan(ms: np.ndarray, n: int) -> int:
    """The scratch one _strikes call may take: 64 bytes per modulus and 40
    per hit, of which a modulus m has at most ceil(n / m)."""
    return 64 * ms.size + 40 * int((-(-n // ms)).sum())


class TestStrikePlan:
    # the split between strided and gathered strikes is a plan, never a
    # result: every threshold, from all strided (0) to all gathered (1e9),
    # at a small and the default block, gives the oracle's values
    @pytest.mark.parametrize("block", [127, None])
    @pytest.mark.parametrize("dense_hits", [0, 1, 8, 64, 10**9])
    def test_results_independent_of_dense_threshold(self, dense_hits, block, plan_oracle, monkeypatch):
        monkeypatch.setattr("omegalab.sieve._DENSE_HITS", dense_hits)
        if block is not None:
            monkeypatch.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
        for window, (om, tau, phi) in plan_oracle["tables"].items():
            sv = ol.build_factor_sieve(*window)
            assert ol.omega_range(sv).tolist() == om
            assert ol.omega_range(sv, threads=2).tolist() == om
            assert ol.tau_range(sv).tolist() == tau
            assert ol.phi_range(sv).tolist() == phi
        assert ol.primes_up_to(30011).tolist() == plan_oracle["primes"]
        assert ol.count_prime_tuples(ol.LinearFormSystem.from_pairs([(1, 0), (1, 2)]), 30000) == plan_oracle["twins"]
        assert ol.count_prime_tuples(ol.form_family(4, 144), 3000) == plan_oracle["family"]
        for spec, n0 in zip(_PLAN_SPECS, plan_oracle["search"]):
            w = ol.search_n0(spec)
            assert (w.n0 if w else None) == n0

    # the reservation is per modulus and per hit, so moduli come in the
    # hundreds or more, where a few array headers do not count.  Each
    # drawn modulus has at most `hits` hits in [0, n): none (moduli past
    # the block, as a gathered prime beyond a short block), up to
    # _DENSE_HITS (the most the callers pass), or no bound but the total,
    # kept to 2**20 hits so that a draw stays within 40 MB
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 1 << 16),
        size=st.integers(256, 4096),
        top=st.integers(0, 1 << 18),
        seed=st.integers(0, 2**32 - 1),
    )
    @pytest.mark.parametrize("hits", [0, 8, _DENSE_HITS, 10**9])
    def test_strike_bytes_cover_the_planning_peak(self, hits, n, size, top, seed):
        rng = np.random.default_rng(seed)
        least = max(-(-n // hits) if hits else n + 1, -(-n * size // 2**20))
        ms = rng.integers(least, least + top + 1, size)
        starts = rng.integers(0, 1 << 62, size) % ms
        if not hits:
            starts = np.maximum(starts, n)
        assert ((n - starts + ms - 1) // ms).max() <= hits
        tracemalloc.start()
        try:
            _strikes(ms, starts, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _plan(ms, n)


@pytest.fixture(scope="module")
def cap_oracle():
    """sympy's omega, tau and phi over [10**12, 10**12 + 3000]."""
    facs = [sympy.factorint(n) for n in range(10**12, 10**12 + 3001)]
    return (
        [len(f) for f in facs],
        [math.prod(e + 1 for e in f.values()) for f in facs],
        [math.prod((p - 1) * p ** (e - 1) for p, e in f.items()) for f in facs],
    )


def _capped_values():
    """Values whose every chunked pass runs under _CHUNK_BYTES: the Euler
    products' log terms, and omega's blocks for the lambda-mean."""
    twins = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2)])
    return (
        ol.singular_series(twins, 10**5),
        ol.family_singular_series(4, 10**5),
        ol.lambda_omega_mean(Fraction(1, 2), 3 * 10**5),
    )


class TestPlanCap:
    # every _strikes call plans at most _CHUNK_BYTES: a chunk of moduli is
    # cut to the cap, and the results do not move; nor do the values of
    # the other passes that the cap chunks
    @pytest.mark.parametrize("cap", [3000, 10**4])
    def test_every_plan_within_the_cap(self, cap, plan_oracle, cap_oracle, monkeypatch):
        plans = []

        def recorded(ms, starts, n):
            plans.append(_plan(ms, n))
            return _strikes(ms, starts, n)

        default = _capped_values()
        monkeypatch.setattr("omegalab.sieve._CHUNK_BYTES", cap)
        monkeypatch.setattr("omegalab.sieve._strikes", recorded)
        for window, want in (((1, 4000), plan_oracle["tables"][1, 4000]), ((10**12, 10**12 + 3000), cap_oracle)):
            sv = ol.build_factor_sieve(*window)
            got = (ol.omega_range(sv), ol.tau_range(sv), ol.phi_range(sv))
            assert [t.tolist() for t in got] == list(want)
        assert ol.primes_up_to(30011).tolist() == plan_oracle["primes"]
        assert plans and max(plans) <= cap
        assert _capped_values() == default

    def test_only_sparse_moduli_are_planned(self, monkeypatch):
        # the strided moduli are the sorted prefix that _dense counts, so
        # no plan sees a modulus with more than _DENSE_HITS hits
        most = []

        def recorded(ms, starts, n):
            most.append(int(((n - starts + ms - 1) // ms).max(initial=0)))
            return _strikes(ms, starts, n)

        monkeypatch.setattr("omegalab.sieve._strikes", recorded)
        for window in ((10**12, 10**12 + 10**6), (2**50 - 3000, 2**50)):
            sv = ol.build_factor_sieve(*window)
            for table in (ol.omega_range, ol.tau_range, ol.phi_range):
                table(sv)
        ol.primes_up_to(3 * 10**7)
        ol.count_prime_tuples(ol.LinearFormSystem.from_pairs([(1, 0), (1, 2)]), 10**6)
        assert most and max(most) <= _DENSE_HITS


@st.composite
def _wheel_windows(draw):
    """(lo, hi): up to 400 numbers from k * 30030 + d with |d| <= 40, the
    wheel's period edge, or [1, hi] with hi <= 300."""
    if draw(st.booleans()):
        return 1, draw(st.integers(1, 300))
    lo = max(1, draw(st.integers(0, 10**6)) * 30030 + draw(st.integers(-40, 40)))
    return lo, lo + draw(st.integers(0, 399))


class TestWheel:
    @settings(max_examples=40, deadline=None)
    @given(
        window=_wheel_windows(),
        block=st.one_of(st.integers(1, 64), st.sampled_from([30029, 30030, 30031])),
    )
    def test_wheel_edges_against_factorint(self, window, block):
        lo, hi = window
        sv = ol.build_factor_sieve(lo, hi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            om, om2 = ol.omega_range(sv), ol.omega_range(sv, threads=2)
            tau, phi = ol.tau_range(sv), ol.phi_range(sv)
        for n in range(lo, hi + 1):
            fac = sympy.factorint(n)
            assert om[n - lo] == om2[n - lo] == len(fac)
            assert tau[n - lo] == math.prod(e + 1 for e in fac.values())
            assert phi[n - lo] == math.prod((p - 1) * p ** (e - 1) for p, e in fac.items())


# sha256 of the tables' bytes, omega at threads 1 and 2, tau, phi: the first
# two windows as the kernel computed them before the 30030 wheel and the
# contiguous leftover step, the last before the uint32 product
_TABLE_DIGESTS = {
    (1, 2 * 10**6): (
        "uint8:74b0d68b71fdbf43e1cdc21b895ecd765cff58cda6b7e99d4430a74f4bedd252",
        "uint8:74b0d68b71fdbf43e1cdc21b895ecd765cff58cda6b7e99d4430a74f4bedd252",
        "int32:2f9d221a92166cc209c2ff9ea68fff8df07c58c024a85074e2b9bd9317c86f1c",
        "int64:2cd5fbcdd0f14573b0a2237c25d15e28a3309f6da7e4e39d3d89946a65a3d5ca",
    ),
    (10**12, 10**12 + 10**5): (
        "uint8:44e74dafdf0b69283c88ae70007149caad817344c1f07c8b267b08c6008314fe",
        "uint8:44e74dafdf0b69283c88ae70007149caad817344c1f07c8b267b08c6008314fe",
        "int32:bc600e4bdb2944676f7baa38994cb2f2c6af92133c25921566c746fd7a6912ed",
        "int64:e33b648fb6ed4e0a24729bfeeb097e0a7bf6ab68bb887620bbbf0728938af89a",
    ),
    (2**32 - 10**5, 2**32 - 1): (
        "uint8:d72873e6775e5df974b8e6eb9cfb78e05b7dd65457d5895c7e224afc1f91f839",
        "uint8:d72873e6775e5df974b8e6eb9cfb78e05b7dd65457d5895c7e224afc1f91f839",
        "int32:84bf114c6cb1a05f60610aacbcd1b31273876c5bb5241f330a172aed716bf2ce",
        "int64:85c99a20ed3b8bf6b54fb02f837385991f0b97e05758556a687d3919d084c4b6",
    ),
    # as the kernel computed it with the uint32/int64 product for all three
    (2**50 - 3000, 2**50): (
        "uint8:3f9d3a3c29ad0dcc0c9f0b4432d0db453ff229d581fafa4a092d7fb2402214a4",
        "uint8:3f9d3a3c29ad0dcc0c9f0b4432d0db453ff229d581fafa4a092d7fb2402214a4",
        "int32:e3879f41539c7235a012e705f861f1d01b0a51995e54c1bed3e8238ec9620bb9",
        "int64:ff27be26e7f8063abb0771b3ec9605b97f6fd4949cdb93daeff4b4a59a2b4962",
    ),
}


@pytest.mark.parametrize("lo,hi", list(_TABLE_DIGESTS))
def test_table_bytes_pinned(lo, hi):
    sv = ol.build_factor_sieve(lo, hi)
    tables = (ol.omega_range(sv, threads=1), ol.omega_range(sv, threads=2), ol.tau_range(sv), ol.phi_range(sv))
    got = tuple(f"{t.dtype.name}:{hashlib.sha256(t.tobytes()).hexdigest()}" for t in tables)
    assert got == _TABLE_DIGESTS[lo, hi]


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

    @pytest.mark.parametrize(
        "n",
        [1009**120 * 1013, 1_000_003**64, (1009 * 1013 * 1019) ** 50 * 1021],
        ids=["1009^120*1013", "1000003^64", "(1009*1013*1019)^50*1021"],
    )
    def test_cofactor_past_float_range(self, n):
        # no prime factor below 1000 and a cofactor past 2**1024, beyond
        # what a float holds: the perfect-power test takes integer roots
        assert n > 2**1024
        assert dict(ol.factorize(n).factors) == sympy.factorint(n)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2**2000), k=st.integers(2, 9))
    @example(n=2**1024 + 1, k=2)  # past the float range
    def test_iroot_brackets_the_root(self, n, k):
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_zero_and_negative_rejected(self):
        with pytest.raises(DomainError):
            ol.factorize(0)
        with pytest.raises(DomainError):
            ol.factorize(-6)

    def test_verify_rejects_composite_factor(self):
        assert not ol.Factorization(15, ((15, 1),)).verify()
        assert ol.Factorization(15, ((3, 1), (5, 1))).verify()

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

    def test_rho_work_bound_refuses(self, monkeypatch, capsys):
        # two ~40-bit primes: rho splits their product in 887 038 steps, far past a cap of 1000
        p, q = sympy.nextprime(2**40), sympy.nextprime(3 * 2**39)
        assert ol.factorize(p * q).factors == ((p, 1), (q, 1))
        monkeypatch.setattr("omegalab.sieve._RHO_STEPS", 1000)
        with pytest.raises(ResourceError, match=str(p * q)):
            ol.factorize(7 * p * q)
        assert main(["brun-check", "--m", str(p * q), "--V", "1", "--no-timing"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "resource"

    def test_rho_steps_weighed_by_cofactor_words(self, monkeypatch):
        # a 201-bit cofactor costs 4 units a step: refused past 4096 / 4 steps, not 4096
        n = sympy.nextprime(2**100) * sympy.nextprime(3 * 2**99)
        assert -(-n.bit_length() // 64) == 4
        monkeypatch.setattr("omegalab.sieve._RHO_STEPS", 4096)
        with pytest.raises(ResourceError, match=str(n)) as err:
            ol.factorize(n)
        steps = int(re.search(r"in (\d+) steps", str(err.value)).group(1))
        assert 1024 < steps < 4096

    def test_trial_division_certifies_below_997_squared(self, monkeypatch):
        # the trial primes end at 997, so below 997**2 the loop always stops
        # at p * p > m and leaves 1 or a prime: Miller-Rabin is never run
        def refuse(n):
            raise AssertionError(f"Miller-Rabin run on {n}")

        monkeypatch.setattr("omegalab.sieve._miller_rabin", refuse)
        limit = 997**2
        spf = np.zeros(limit, dtype=np.int64)  # smallest prime factor, 0 at primes
        for d in range(2, 998):
            if not spf[d]:
                s = spf[d * d :: d]
                s[s == 0] = d
        spf = spf.tolist()
        for n in range(1, limit):
            expect, m = {}, n
            while m > 1:
                p = spf[m] or m
                expect[p] = expect.get(p, 0) + 1
                m //= p
            assert ol.factorize(n).factors == tuple(sorted(expect.items()))

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

    def test_primes_up_to_agrees(self):
        assert ol.primes_up_to(5000).tolist() == _trial_primes(5000)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(-2, 3000), block=st.integers(1, 64))
    def test_primes_across_block_edges(self, n, block):
        # tiny blocks cross many block edges, and primes_up_to(sqrt(n))
        # recurses down to its base cases
        literal = [p for p in _PRIMES_TO_3000 if p <= n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            got = ol.primes_up_to(n)
        assert got.dtype == np.int64 and got.tolist() == literal

    def test_small_primes_exhaustive(self):
        # up to 1000 the primes are a copy of a slice of one import-time list
        for n in range(0, 2001):
            assert ol.primes_up_to(n).tolist() == [p for p in _PRIMES_TO_3000 if p <= n]
        got = ol.primes_up_to(100)
        got[:] = 0
        assert ol.primes_up_to(100)[0] == 2

    def test_primes_honour_budget(self, monkeypatch):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        with pytest.raises(ResourceError):
            ol.primes_up_to(10**7)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ol.is_prime(-1)
        with pytest.raises(DomainError):
            ol.is_prime(10**25)

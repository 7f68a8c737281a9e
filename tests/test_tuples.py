"""Tuple counting, prediction comparison, and the anchor-index search."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab.errors import DomainError, ResourceError
from omegalab.sieve import _form_sieve


def _is_prime_slow(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


TWINS = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2)])


class TestCountPrimeTuples:
    def test_twins_to_100(self):
        assert ol.count_prime_tuples(TWINS, 100) == 8
        brute = sum(1 for n in range(1, 101) if _is_prime_slow(n) and _is_prime_slow(n + 2))
        assert brute == 8

    def test_scaled_pair_to_20(self):
        sys41 = ol.LinearFormSystem.from_pairs([(4, 1), (2, 1)])
        assert ol.count_prime_tuples(sys41, 20) == 5
        hits = [n for n in range(1, 21) if _is_prime_slow(4 * n + 1) and _is_prime_slow(2 * n + 1)]
        assert hits == [1, 3, 9, 15, 18]

    def test_empty_range(self):
        assert ol.count_prime_tuples(TWINS, 0) == 0
        assert ol.count_prime_tuples(TWINS, -5) == 0

    def test_matches_brute_force_on_random_systems(self):
        for pairs in ([(1, 1)], [(1, 0), (1, 4)], [(3, 2), (2, 3)], [(1, 0), (1, 2), (1, 6)]):
            system = ol.LinearFormSystem.from_pairs(pairs)
            expect = sum(
                1 for n in range(1, 501) if all(_is_prime_slow(f(n)) for f in system.forms)
            )
            assert ol.count_prime_tuples(system, 500) == expect

    def test_monotone_in_n_max(self):
        counts = [ol.count_prime_tuples(TWINS, n) for n in range(0, 2000, 50)]
        assert counts == sorted(counts)

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**4))
        with pytest.raises(ResourceError):
            ol.count_prime_tuples(TWINS, 10**7)

    def test_budget_environment_variable_honoured(self, monkeypatch):
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        with pytest.raises(ResourceError):
            ol.count_prime_tuples(TWINS, 10**6)

    def test_block_sieve_fits_small_budget(self, monkeypatch):
        # memory is O(block + K pi(sqrt(largest value))), not one byte per value
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**7))
        assert ol.count_prime_tuples(ol.form_family(4, 144), 5 * 10**5) == 174

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.sets(st.tuples(st.integers(1, 30), st.integers(0, 30)), min_size=1, max_size=3),
        n_max=st.integers(0, 3000),
        block=st.integers(1, 48),
    )
    def test_literal_loop_property(self, pairs, n_max, block):
        # b = 0 and values equal to a base prime occur among these systems;
        # a block of a few dozen makes the sieve cross many block edges
        system = ol.LinearFormSystem.from_pairs(pairs)
        literal = sum(
            1 for n in range(1, n_max + 1) if all(sympy.isprime(a * n + b) for a, b in pairs)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            assert ol.count_prime_tuples(system, n_max) == literal

    def test_kernel_refuses_base_primes_past_2_32(self):
        with pytest.raises(DomainError):
            _form_sieve(3, 1, np.array([2, 3, (1 << 32) + 15], dtype=np.int64))


class TestHLCompare:
    def test_single_form_tracks_prime_counts(self):
        # {n+1} count to 1e6 is pi(10^6 + 1); integral prediction within 5%
        rep = ol.hl_compare(ol.LinearFormSystem.from_pairs([(1, 1)]), 10**6)
        assert rep.empirical == 78498
        assert abs(rep.ratio_integral - 1.0) < 0.05

    def test_small_range_flagged_undefined(self):
        rep = ol.hl_compare(TWINS, 2)
        assert rep.empirical == 0
        assert rep.ratio_crude is None and rep.ratio_integral is None
        assert rep.predicted_crude is None and rep.predicted_integral is None

    def test_crude_vs_integral_shape(self):
        rep = ol.hl_compare(TWINS, 10**5)
        # at desk scale the crude form undercounts relative to the integral
        assert rep.predicted_crude < rep.predicted_integral
        assert rep.ratio_crude > rep.ratio_integral

    def test_inadmissible_rejected(self):
        trip = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2), (1, 4)])
        with pytest.raises(DomainError):
            ol.hl_compare(trip, 100)

    def test_report_serialises(self):
        d = ol.hl_compare(TWINS, 10**4).to_dict()
        assert d["empirical"] == ol.count_prime_tuples(TWINS, 10**4)
        assert "note" in d

    @pytest.mark.parametrize("x", [10**4, 10**5])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_integral_against_mpmath_quad(self, K, x):
        # the integral of dt/(log t)^K from 2 to x peaks at t = 2 for large K
        fam = ol.form_family(K, math.lcm(*range(1, K + 1)) ** 2)
        rep = ol.hl_compare(fam, x)
        got = rep.predicted_integral / rep.singular_series.value
        with mpmath.workdps(30):
            pts = [p for p in (2, 4, 16, 256, 65536) if p < x] + [x]
            ref = float(mpmath.quad(lambda t: 1 / mpmath.log(t) ** K, pts))
        assert abs(got - ref) <= 1e-12 * ref


class TestSearchN0:
    def test_reference_search(self):
        spec = ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100)
        w = ol.search_n0(spec)
        assert w.n0 == 3
        assert w.prime_certificates == (13, 7)
        assert w.omega_table == {3: 2, 4: 1}
        assert w.omega_after_block == 2

    def test_not_found_when_range_too_small(self):
        spec = ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=2)
        assert ol.search_n0(spec) is None

    def test_zero_floor_accepts_first_candidate(self):
        spec = ol.SearchSpec(K=2, Q=4, L=3, theta2=10, theta3=0, n_max=10)
        w = ol.search_n0(spec)
        assert w.n0 == 1
        assert w.prime_certificates == (5, 3)
        assert w.omega_table == {3: 1}

    def test_rejection_reasons_along_the_way(self):
        # n=1 fails the floor (omega(7)=1 not > 1); n=2 fails primality (9)
        assert ol.omega(7) == 1
        assert not ol.is_prime(2 * 4 + 1)

    def test_witness_reverifies(self):
        for spec in (
            ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100),
            ol.SearchSpec(K=3, Q=36, L=6, theta2=4, theta3=0, n_max=200),
            ol.SearchSpec(K=1, Q=2, L=3, theta2=3, theta3=0, n_max=50),
        ):
            w = ol.search_n0(spec)
            assert w is not None
            assert ol.verify_witness(spec, w)

    def test_corrupted_witness_rejected(self):
        spec = ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100)
        w = ol.search_n0(spec)
        bad_n0 = ol.SearchWitness(
            n0=w.n0 + 1,
            prime_certificates=w.prime_certificates,
            omega_table=w.omega_table,
            omega_after_block=w.omega_after_block,
        )
        assert not ol.verify_witness(spec, bad_n0)
        bad_cert = ol.SearchWitness(
            n0=w.n0,
            prime_certificates=(w.prime_certificates[0] + 2, w.prime_certificates[1]),
            omega_table=w.omega_table,
            omega_after_block=w.omega_after_block,
        )
        assert not ol.verify_witness(spec, bad_cert)
        bad_table = ol.SearchWitness(
            n0=w.n0,
            prime_certificates=w.prime_certificates,
            omega_table={k: v + 1 for k, v in w.omega_table.items()},
            omega_after_block=w.omega_after_block,
        )
        assert not ol.verify_witness(spec, bad_table)

    def test_omega_additivity_within_prime_block(self):
        # for k <= K: omega(n0 Q + k) = omega(k) + 1, the certificate being
        # a prime coprime to k
        for spec in (
            ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100),
            ol.SearchSpec(K=3, Q=36, L=6, theta2=4, theta3=0, n_max=200),
        ):
            w = ol.search_n0(spec)
            for k in range(1, spec.K + 1):
                assert ol.omega(w.n0 * spec.Q + k) == ol.omega(k) + 1
                assert math.gcd(k, w.prime_certificates[k - 1]) == 1

    def test_partition_and_thread_invariance(self):
        spec = ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=1, n_max=100)
        ref = ol.search_n0(spec)
        for th in (2, 4):
            assert ol.search_n0(spec, threads=th) == ref

    def test_spec_invariants_enforced(self):
        with pytest.raises(DomainError):
            ol.SearchSpec(K=2, Q=6, L=4, theta2=2, theta3=1, n_max=10)  # 4 does not divide 6
        with pytest.raises(DomainError):
            ol.SearchSpec(K=2, Q=4, L=2, theta2=2, theta3=1, n_max=10)  # L <= K
        with pytest.raises(DomainError):
            ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=-1, n_max=10)
        # a NaN ceiling or floor compares false everywhere and would switch its test off
        with pytest.raises(DomainError):
            ol.SearchSpec(K=2, Q=4, L=4, theta2=math.nan, theta3=1, n_max=10)
        with pytest.raises(DomainError):
            ol.SearchSpec(K=2, Q=4, L=4, theta2=2, theta3=math.nan, n_max=10)

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 3),
        m=st.integers(1, 12),
        extra=st.integers(1, 3),
        theta2=st.integers(0, 4),
        theta3=st.integers(0, 3),
        n_max=st.integers(1, 400),
        block=st.integers(1, 48),
    )
    def test_literal_scan_property(self, K, m, extra, theta2, theta3, n_max, block):
        Q = math.lcm(*range(1, K + 1)) ** 2 * m
        spec = ol.SearchSpec(K=K, Q=Q, L=K + extra, theta2=theta2, theta3=theta3, n_max=n_max)
        expect = None
        for n in range(1, n_max + 1):
            certs = tuple(Q // k * n + 1 for k in range(1, K + 1))
            if not all(sympy.isprime(c) for c in certs):
                continue
            table = {k: len(sympy.factorint(n * Q + k)) for k in range(K + 1, spec.L + 1)}
            if max(table.values()) <= theta2 and table[K + 1] > theta3:
                expect = ol.SearchWitness(n, certs, table, table[K + 1])
                break
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.sieve._DEFAULT_BLOCK", block)
            assert ol.search_n0(spec) == expect

    def test_real_valued_thresholds(self):
        # thresholds are reals: a fractional floor behaves like its ceiling-1
        spec = ol.SearchSpec(K=2, Q=4, L=4, theta2=2.5, theta3=1.5, n_max=100)
        w = ol.search_n0(spec)
        assert w.n0 == 3  # omega(15)=2 <= 2.5 and 2 > 1.5

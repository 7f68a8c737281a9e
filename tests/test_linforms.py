"""Linear-form systems: local root counts, admissibility, singular series.

The oracle for omega_L(p) is a literal loop over residues; the oracle
for the singular series is an exact Fraction product using that loop.
"""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omegalab as ol
from omegalab import sieve
from omegalab.errors import DomainError, PreconditionError
from omegalab.linforms import _exact_sum, _generic_product


def brute_roots(system, d: int) -> int:
    count = 0
    for v in range(d):
        prod = 1
        for f in system.forms:
            prod = prod * (f.a * v + f.b) % d
        if prod == 0:
            count += 1
    return count


TWINS = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2)])
SHIFT = ol.LinearFormSystem.from_pairs([(1, 1)])
PAIR41 = ol.LinearFormSystem.from_pairs([(4, 1), (2, 1)])


class TestRootsModP:
    @pytest.mark.parametrize("p,expect", [(2, 1), (3, 2), (5, 2)])
    def test_twin_examples(self, p, expect):
        assert ol.roots_mod_p(TWINS, p) == expect

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_scaled_pair(self, p):
        assert ol.roots_mod_p(PAIR41, p) == brute_roots(PAIR41, p)

    def test_brute_force_agreement_random_systems(self):
        rng = random.Random(42)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97]
        for _ in range(60):
            k = rng.randrange(1, 5)
            pairs = {(rng.randrange(1, 30), rng.randrange(0, 30)) for _ in range(k)}
            system = ol.LinearFormSystem.from_pairs(pairs)
            for p in primes:
                assert ol.roots_mod_p(system, p) == brute_roots(system, p)

    def test_generic_prime_sees_k_distinct_roots(self):
        # p > K and p coprime to all a_k and resultants => exactly K roots
        for p in (11, 13, 17, 101, 997):
            assert ol.roots_mod_p(TWINS, p) == 2
        family = ol.form_family(8, 7779240000)
        for p in (11, 13, 17, 19, 23, 997):
            assert ol.roots_mod_p(family, p) == 8
            assert brute_roots(family, p) == 8

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            ol.roots_mod_p(TWINS, 6)

    def test_multiplicativity_on_coprime_squarefree_moduli(self):
        # residues mod p*q covered iff covered mod p and mod q (CRT)
        cases = [(TWINS, 3, 5), (TWINS, 11, 13), (PAIR41, 5, 7), (PAIR41, 11, 13)]
        family = ol.form_family(8, 7779240000)
        cases += [(family, 11, 13), (family, 13, 17)]
        for system, p, q in cases:
            assert brute_roots(system, p * q) == ol.roots_mod_p(system, p) * ol.roots_mod_p(system, q)


class TestAdmissibility:
    def test_single_shift_admissible(self):
        assert ol.is_admissible(SHIFT).admissible

    def test_twins_admissible(self):
        assert ol.is_admissible(TWINS).admissible

    def test_full_cover_detected_with_witness(self):
        trip = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2), (1, 4)])
        adm = ol.is_admissible(trip)
        assert not adm.admissible
        assert adm.witness == 3
        assert brute_roots(trip, 3) == 3

    def test_cover_via_coefficient_prime(self):
        sys2 = ol.LinearFormSystem.from_pairs([(1, 0), (2, 1)])  # n even or 2n+1 == 0 mod ... none
        # {n, n+1}: p=2 covered? roots {0, 1} mod 2 -> both residues
        pair = ol.LinearFormSystem.from_pairs([(1, 0), (1, 1)])
        adm = ol.is_admissible(pair)
        assert not adm.admissible and adm.witness == 2
        assert ol.is_admissible(sys2).admissible

    def test_scaled_family_admissible(self):
        ps = ol.derive_params("1e100")
        assert ol.is_admissible(ps.forms()).admissible


def _no_primes(*args):
    raise AssertionError("the primes up to P were listed")


class TestSingularSeries:
    @pytest.mark.parametrize("pairs, value", [([(1, 0)], 1.0), ([(2, 1)], 2.0), ([(30, 7)], 3.75)])
    def test_one_form_lists_no_prime(self, pairs, value, monkeypatch):
        # every generic factor (1 - 1/p)(1 - 1/p)^-1 of one form is exactly 1,
        # so only the exceptional factors are taken
        monkeypatch.setattr("omegalab.linforms._prime_blocks", _no_primes)
        ss = ol.singular_series(ol.LinearFormSystem.from_pairs(pairs), 10**6)
        assert repr(ss.to_dict()) == repr({"value": value, "truncation_prime": 10**6, "error_bound": 0.0})

    def test_single_shift_is_exactly_one(self):
        ss = ol.singular_series(SHIFT, 1000)
        assert ss.value == 1.0
        assert ss.error_bound == 0.0

    def test_doubled_shift_is_exactly_two(self):
        ss = ol.singular_series(ol.LinearFormSystem.from_pairs([(2, 1)]), 1000)
        assert ss.value == 2.0
        assert ss.error_bound == 0.0

    def test_twin_constant_value(self):
        ss = ol.singular_series(TWINS, 10**7)
        assert ss.error_bound < 1e-6
        # 2 * prod (1 - 1/(p-1)^2), high-precision reference value
        assert abs(ss.value - 1.3203236793) < 2e-6

    def test_truncations_consistent_within_bounds(self):
        a = ol.singular_series(TWINS, 10**4)
        b = ol.singular_series(TWINS, 10**6)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        assert b.error_bound < a.error_bound

    def test_against_exact_fraction_oracle(self):
        rng = random.Random(5)
        primes = [p for p in range(2, 2000) if all(p % q for q in range(2, int(math.isqrt(p)) + 1))]
        for system in (TWINS, PAIR41, ol.LinearFormSystem.from_pairs([(1, 0), (1, 6), (1, 12)])):
            K = system.K
            oracle = Fraction(1)
            for p in primes:
                w = brute_roots(system, p)
                oracle *= Fraction((p - w) * p ** (K - 1), (p - 1) ** K)
            ours = ol.singular_series(system, 1999)
            assert abs(ours.value - float(oracle)) < 1e-12 * float(oracle)

    def test_local_factor_identity_for_twins(self):
        # (1 - 2/p)(1 - 1/p)^-2 == 1 - 1/(p-1)^2 exactly, p odd prime
        for p in (3, 5, 7, 11, 101, 997):
            lhs = Fraction(p - 2, p) * Fraction(p, p - 1) ** 2
            rhs = 1 - Fraction(1, (p - 1) ** 2)
            assert lhs == rhs

    def test_inadmissible_rejected(self):
        trip = ol.LinearFormSystem.from_pairs([(1, 0), (1, 2), (1, 4)])
        with pytest.raises(DomainError):
            ol.singular_series(trip, 10**4)

    def test_truncation_minimum_named(self):
        with pytest.raises(PreconditionError) as err:
            ol.singular_series(TWINS, 5)
        assert "minimum" in str(err.value)

    def test_twin_value_pinned(self):
        assert ol.singular_series(TWINS, 3 * 10**7).value.hex() == "0x1.5200baccaa26bp+0"

    def test_streamed_product_within_budget(self, monkeypatch):
        # a list of all 1.86e6 primes up to 3e7 would take ~1.5e7 bytes and
        # their float terms as much again; the product holds one block of
        # primes and the log terms of 2**15 of them
        budget = 8_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            ss = ol.singular_series(TWINS, 3 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ss.value.hex() == "0x1.5200baccaa26bp+0"
        assert peak <= budget

    def test_proportional_forms_rejected(self):
        # a proportional pair (a,b), (ca,cb) is inadmissible at any p | c,
        # so the zero-resultant divergence can never be reached silently
        prop = ol.LinearFormSystem.from_pairs([(1, 1), (2, 2)])
        with pytest.raises(DomainError):
            ol.singular_series(prop, 10**4)


_MAX = sys.float_info.max
_OVERFLOW = 2**1024 - 2**970  # an exact sum at least this large rounds past _MAX


@st.composite
def _chunked_terms(draw):
    """(terms, chunks): finite floats over the whole exponent range, with
    ±0, subnormals, the largest float and pairs that cancel, cut into
    chunks at random points, empty chunks included."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _MAX, -_MAX])
    terms = draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), special), max_size=40))
    terms += [-x for x in draw(st.lists(st.sampled_from(terms), max_size=10))] if terms else []
    terms = draw(st.permutations(terms))
    cuts = sorted(draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    edges = [0, *cuts, len(terms)]
    return terms, [np.array(terms[a:b], dtype=np.float64) for a, b in zip(edges, edges[1:])]


class TestExactSum:
    @settings(max_examples=400, deadline=None)
    @given(_chunked_terms())
    def test_matches_fsum_bit_for_bit(self, case):
        terms, chunks = case
        exact = sum(map(Fraction, terms), Fraction(0))
        if abs(exact) >= _OVERFLOW:  # the rounded sum overflows: both raise
            with pytest.raises(OverflowError):
                math.fsum(terms)
            with pytest.raises(OverflowError):
                _exact_sum(chunks)
            return
        got = _exact_sum(chunks)
        assert got.hex() == float(exact).hex()
        try:
            want = math.fsum(terms)
        except OverflowError:  # a partial sum of fsum overflowed, the exact sum did not
            return
        assert got.hex() == want.hex()  # the sign of zero included

    def test_intermediate_overflow_of_fsum_is_rounded(self):
        with pytest.raises(OverflowError):
            math.fsum([_MAX, _MAX, -_MAX])
        assert _exact_sum([np.array([_MAX, _MAX]), np.array([-_MAX])]) == _MAX

    def test_zero_sums_are_positive_zero(self):
        for chunks in ([], [np.array([])], [np.array([-0.0, -0.0])], [np.array([1.5]), np.array([-1.5])]):
            assert _exact_sum(chunks).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", [2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1, 2**17 - 2, 2**17 - 1, 2**17, 2**17 + 1])
    def test_one_chunk_fills_its_headroom(self, n):
        # n - 25 terms just below -1 take the extracted parts' sum to nearly
        # n * 2**e, which sigma's bitlen(n + 1) bits of headroom keep exact;
        # the -2**-j set each of its low bits, and 1/2 mixes the signs
        small = [-math.ldexp(1.0, -j) for j in range(30, 54)] + [0.5]
        terms = [-(1 - 2**-53)] * (n - len(small)) + small
        want = sum(map(Fraction, terms), Fraction(0))
        assert _exact_sum([np.array(terms)]).hex() == float(want).hex()

    def test_euler_terms_match_fsum(self):
        q = ol.primes_up_to(10**6).astype(np.float64)
        for K in (2, 3, 8):
            terms = np.log1p(-K / q[q > K]) - K * np.log1p(-1.0 / q[q > K])
            chunks = np.array_split(terms, 7)
            assert _exact_sum(chunks).hex() == math.fsum(terms.tolist()).hex()


def _eratosthenes(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, f in enumerate(flags) if f]


_PRIMES_TO_1E5 = _eratosthenes(10**5)


@st.composite
def _product_case(draw):
    """(K, P, exceptional): every prime up to K is exceptional, as in both
    Euler products, and so are a few primes drawn from all of [2, P]."""
    K = draw(st.integers(1, 12))
    P = draw(st.integers(max(2, K), 10**5))
    below = [p for p in _PRIMES_TO_1E5 if p <= P]
    drawn = draw(st.lists(st.sampled_from(below), max_size=8))
    return K, P, sorted({p for p in below if p <= K} | set(drawn))


class TestGenericProduct:
    @pytest.mark.parametrize("block", [61, 1000, None])
    @settings(max_examples=40, deadline=None)
    @given(case=_product_case())
    def test_matches_fsum_of_literal_terms(self, block, case):
        # blocks of 61 or 1000 odd numbers put most drawn primes past the first
        K, P, exceptional = case
        q = np.array([p for p in _PRIMES_TO_1E5 if p <= P and p not in exceptional], dtype=np.float64)
        terms = np.log1p(-K / q) - K * np.log1p(-1.0 / q)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(sieve, "_DEFAULT_BLOCK", block)
            value, tail = _generic_product(K, P, exceptional)
        assert value.hex() == math.exp(math.fsum(terms.tolist())).hex()
        assert tail == (0.0 if K == 1 else 2.0 * K * K / P)


class TestSystemPlumbing:
    def test_json_round_trip(self):
        text = TWINS.to_json()
        assert ol.LinearFormSystem.from_json(text) == TWINS

    def test_malformed_json_rejected(self):
        with pytest.raises(DomainError):
            ol.LinearFormSystem.from_json('[{"a": 1}]')
        with pytest.raises(DomainError):
            ol.LinearFormSystem.from_json("not json")
        # int() would read these as the forms n, n + 3 and int(1e30) n, where int(1e30) != 10**30
        for text in ['[{"a": 1.5, "b": 0}, {"a": 1, "b": 2}]', '[{"a": true, "b": "3"}]', '[{"a": 1e30, "b": 0}]']:
            with pytest.raises(DomainError, match="JSON integers"):
                ol.LinearFormSystem.from_json(text)

    def test_duplicate_forms_rejected(self):
        with pytest.raises(DomainError):
            ol.LinearFormSystem.from_pairs([(1, 2), (1, 2)])

    def test_empty_system_rejected(self):
        with pytest.raises(DomainError):
            ol.LinearFormSystem([])

    def test_coefficient_domain(self):
        with pytest.raises(DomainError):
            ol.LinearForm(0, 1)
        with pytest.raises(DomainError):
            ol.LinearForm(1, -1)

    def test_resultants(self):
        assert TWINS.pairwise_resultants() == [2]
        assert [abs(r) for r in PAIR41.pairwise_resultants()] == [2]

"""Parameter bundle derivation, the split singular-series floor, and the
exponent optimisation."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import omegalab as ol
from omegalab.errors import DomainError, PrecisionError, PreconditionError
from omegalab.params import MIN_SCALE, _bounded_brent


def _near_boundary(y, sign: int, offset: int) -> str:
    """e^(e^y) * (1 + sign * 10**-offset) in 260 significant digits."""
    with mpmath.workdps(600):
        return mpmath.nstr(mpmath.exp(mpmath.exp(y)) * (1 + sign * mpmath.mpf(10) ** -offset), 260)


def _mpmath_floors(x: str):
    """(K, L, V) of x from mpmath at 600 digits."""
    with mpmath.workdps(600):
        ll = mpmath.log(mpmath.log(mpmath.mpf(x)))
        return int(mpmath.floor(5 * mpmath.log(ll))), int(mpmath.floor(2 * ll)), 2 * int(mpmath.floor(ll**2))


def _floors_or_none(x: str):
    """(K, L, V) of derive_params(x), or None where it raises PrecisionError."""
    try:
        ps = ol.derive_params(x)
    except PrecisionError:
        return None
    return ps.K, ps.L, ps.V


class TestDeriveParams:
    def test_medium_scale(self):
        ps = ol.derive_params(10**6)
        assert (ps.K, ps.L, ps.Q, ps.g, ps.Q_prime, ps.K_prime) == (4, 5, 1296, 1, 1296, 5)

    def test_large_scale(self):
        ps = ol.derive_params("1e100")
        assert (ps.K, ps.L, ps.Q) == (8, 10, 7779240000)
        assert (ps.g, ps.Q_prime, ps.K_prime) == (9, 864360000, 1)

    def test_square_divisibility_of_q(self):
        for x in (10**6, "1e40", "1e100", "1e300"):
            ps = ol.derive_params(x)
            for k in range(1, ps.K + 1):
                assert ps.Q % (k * k) == 0

    def test_reduced_pair_coprime(self):
        for x in (10**6, "1e50", "1e100", "1e200"):
            ps = ol.derive_params(x)
            assert ps.g == math.gcd(ps.K + 1, ps.Q)
            assert ps.Q_prime * ps.g == ps.Q
            assert ps.K_prime * ps.g == ps.K + 1
            assert math.gcd(ps.K_prime, ps.Q_prime) == 1

    def test_monotone_in_x(self):
        scales = [f"1e{e}" for e in range(3, 301, 6)]  # 50 scales, 1e3 .. 1e297
        assert len(scales) == 50
        prev_k = prev_l = 0
        for x in scales:
            ps = ol.derive_params(x)
            assert ps.K >= prev_k and ps.L >= prev_l
            assert math.gcd(ps.K_prime, ps.Q_prime) == 1
            prev_k, prev_l = ps.K, ps.L

    def test_exponent_values_match_minimal_powers(self):
        ps = ol.derive_params("1e100")  # K = 8
        # Q = prod p^(2e_p) with e_p minimal such that p^e_p >= K
        expect = {2: 3, 3: 2, 5: 2, 7: 2}
        q = 1
        for p, e in expect.items():
            assert p ** (e - 1) < ps.K <= p**e
            q *= p ** (2 * e)
        assert q == ps.Q

    def test_growth_exponent_window_at_large_scale(self):
        for e in (50, 80, 120, 200, 300):
            ps = ol.derive_params(f"1e{e}")
            assert 10.0 <= ps.q_growth_exponent <= 20.0
            assert ps.q_growth_drift == 0.0

    def test_growth_drift_reported_below_threshold(self):
        # advisory region: the exponent may leave [10, 20] but the run
        # still succeeds and quantifies by how much
        ps = ol.derive_params(10**6)
        assert ps.q_growth_drift == max(
            0.0, 10.0 - ps.q_growth_exponent, ps.q_growth_exponent - 20.0
        )

    def test_excluded_prime_threaded(self):
        assert ol.derive_params("1e100").B_excluded == 1

    def test_sieve_level_and_depth(self):
        ps = ol.derive_params("1e100")
        with mpmath.workdps(50):
            ll = mpmath.log(mpmath.log(mpmath.mpf("1e100")))
            x_expect = float(mpmath.mpf("1e100") ** (1 / ll**3))
            v_expect = 2 * int(mpmath.floor(ll**2))
        assert ps.X == pytest.approx(x_expect, rel=1e-12)
        assert ps.V == v_expect

    def test_depth_floor_stable_a_hair_below_an_integer(self):
        # x = floor(e^(e^sqrt 24)): (log log x)^2 lies within 1e-60 below 24,
        # so a single floor at 60 digits rounds it up to 24
        x = "18273549468922647250184378649247806393452381417744514589698"
        with mpmath.workdps(300):
            v_expect = 2 * int(mpmath.floor(mpmath.log(mpmath.log(mpmath.mpf(x))) ** 2))
        assert v_expect == 46
        assert ol.derive_params(x).V == v_expect

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 10**30), e=st.integers(2, 10**6))
    @example(m=1, e=100).via("the README scale")
    @example(m=18273549468922647250184378649247806393452381417744514589698, e=0).via(
        "(log log x)^2 within 1e-60 below 24"
    )
    def test_floors_match_mpmath_at_300_digits(self, m, e):
        # the library computes in decimal; mpmath shares no code with it
        ps = ol.derive_params(f"{m}e{e}")
        with mpmath.workdps(300):
            ll = mpmath.log(mpmath.log(mpmath.mpf(m) * mpmath.mpf(10) ** e))
            expect = (
                int(mpmath.floor(5 * mpmath.log(ll))),
                int(mpmath.floor(2 * ll)),
                2 * int(mpmath.floor(ll**2)),
            )
        assert (ps.K, ps.L, ps.V) == expect

    @pytest.mark.parametrize(
        "kind, below, above",
        [("K", (7, 9, 48), (8, 9, 48)), ("L", (7, 8, 40), (7, 9, 40)), ("V", (7, 8, 38), (7, 8, 40))],
    )
    def test_floors_certified_a_hair_from_a_boundary(self, kind, below, above):
        # x = e^(e^y)(1 -+ 1e-170) in 260 digits, for log log x = y on a boundary
        # of K (5 log y = 8), L (2y = 9) or V (y^2 = 20); agreement of two
        # precisions took the floor above it on both sides
        with mpmath.workdps(600):
            y = {"K": mpmath.exp(mpmath.mpf(8) / 5), "L": mpmath.mpf(9) / 2, "V": mpmath.sqrt(20)}[kind]
        for sign, want in ((-1, below), (1, above)):
            x = _near_boundary(y, sign, 170)
            assert _mpmath_floors(x) == want
            assert _floors_or_none(x) == want

    def test_floor_closer_than_the_last_precision_raises(self):
        with mpmath.workdps(1200):
            x = mpmath.nstr(mpmath.exp(mpmath.exp(mpmath.mpf(9) / 2)) * (1 - mpmath.mpf(10) ** -1050), 1100)
        with pytest.raises(PrecisionError):
            ol.derive_params(x)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from("KLV"), sign=st.sampled_from((-1, 1)), offset=st.integers(1, 250), data=st.data()
    )
    def test_floors_near_boundaries_match_mpmath(self, kind, sign, offset, data):
        # log log x = y on a boundary of K (y = e^(m/5)), L (y = m/2) or V
        # (y = sqrt m), then x moved off it by a relative 10**-offset and
        # written in 260 digits
        m = data.draw(st.integers(*{"K": (2, 12), "L": (3, 40), "V": (2, 400)}[kind]))
        with mpmath.workdps(600):
            y = {"K": mpmath.exp(mpmath.mpf(m) / 5), "L": mpmath.mpf(m) / 2, "V": mpmath.sqrt(m)}[kind]
        x = _near_boundary(y, sign, offset)
        assert _floors_or_none(x) in (_mpmath_floors(x), None)

    def test_min_scale_is_the_triple_exponential(self):
        with mpmath.workdps(50):
            assert MIN_SCALE == float(mpmath.exp(mpmath.exp(mpmath.exp(0.2))))
        assert MIN_SCALE == 29.723633584240893
        # both round to the double MIN_SCALE; the comparison is exact
        with pytest.raises(DomainError):
            ol.derive_params("29.7236335842408931")
        assert ol.derive_params("29.7236335842408935").K == 1

    def test_too_small_scale_rejected(self):
        for x in (1, 10, 25):
            with pytest.raises(DomainError):
                ol.derive_params(x)

    def test_json_round_trip_shape(self):
        d = ol.derive_params("1e100").to_dict()
        assert set(d) == {
            "x", "K", "L", "Q", "g", "Q_prime", "K_prime", "X", "V",
            "q_growth_exponent", "q_growth_drift", "B_excluded",
        }


class TestFormFamily:
    def test_family_shape(self):
        fam = ol.form_family(4, 1296)
        assert [(f.a, f.b) for f in sorted(fam.forms)] == [
            (324, 1), (432, 1), (648, 1), (1296, 1),
        ]

    def test_square_divisibility_required(self):
        with pytest.raises(DomainError):
            ol.form_family(3, 12)  # 9 does not divide 12

    def test_scaled_forms_share_no_factor_with_index(self):
        fam = ol.form_family(8, 7779240000)
        for k in range(1, 9):
            a = 7779240000 // k
            assert a % k == 0  # k | Q/k, the gcd trick behind additivity


class TestFamilySingularSeries:
    def test_k_one_is_exactly_one(self):
        fss = ol.family_singular_series(1, 10**5)
        assert fss.value == 1.0
        assert fss.error_bound == 0.0

    @pytest.mark.parametrize("P", [1, 2, 97, 10**7])
    def test_k_one_lists_no_prime(self, P, monkeypatch):
        # the general path: piece_small is the empty product, piece_mid the
        # factor 1 at p = 2, and _generic_product lists no prime for K = 1
        def no_primes(*args):
            raise AssertionError("the primes up to P were listed")

        monkeypatch.setattr("omegalab.linforms._prime_blocks", no_primes)
        pieces = dict.fromkeys(["value", "piece_small", "piece_mid", "piece_large"], 1.0)
        want = {"K": 1, "truncation_prime": P, **pieces, "error_bound": 0.0}
        assert repr(ol.family_singular_series(1, P).to_dict()) == repr(want)

    def test_k_two_dual_formula(self):
        # independent route: 4 * prod_{2<p<=P} (1 - 1/(p-1)^2)
        P = 10**6
        fss = ol.family_singular_series(2, P)
        other = 4.0
        terms = []
        for p in ol.primes_up_to(P):
            p = int(p)
            if p > 2:
                terms.append(math.log1p(-1.0 / (p - 1) ** 2))
        other *= math.exp(math.fsum(terms))
        assert abs(fss.value - other) < 1e-10

    def test_k_eight_pinned(self):
        fss = ol.family_singular_series(8, 10**7)
        assert fss.value.hex() == "0x1.e76f637828db7p+14"
        assert fss.piece_large.hex() == "0x1.16f6e0bef8964p-1"

    def test_pieces_multiply_to_value(self):
        for K in (2, 3, 5, 8):
            fss = ol.family_singular_series(K, 10**5)
            assert fss.value == pytest.approx(
                fss.piece_small * fss.piece_mid * fss.piece_large, rel=1e-12
            )

    @pytest.mark.parametrize("K", list(range(1, 11)))
    def test_certified_floor_chain(self, K):
        fss = ol.family_singular_series(K, 10**6)
        assert fss.piece_small >= 1.0
        assert fss.piece_mid >= K ** (-K) * (1 - 1e-12)
        # fold the whole tail bound into the large piece before comparing
        assert fss.piece_large * math.exp(-fss.error_bound) >= math.exp(-K) * (1 - 1e-12)
        assert fss.certified_lower_bound() >= K ** (-2 * K)

    def test_matches_general_route_on_family(self):
        # same object through the generic linear-form machinery
        fam = ol.form_family(4, 1296)
        general = ol.singular_series(fam, 10**5)
        split = ol.family_singular_series(4, 10**5)
        tol = general.error_bound + split.error_bound + 1e-12
        assert abs(math.log(general.value) - math.log(split.value)) <= tol

    def test_truncation_floor_checked(self):
        with pytest.raises(PreconditionError):
            ol.family_singular_series(5, 10)

    def test_domain(self):
        with pytest.raises(DomainError):
            ol.family_singular_series(0)


class TestExponentOptimum:
    def test_optimum_location_and_value(self):
        lam, c0 = ol.exponent_optimum()
        assert abs(lam - 0.1) < 1e-6
        assert abs(c0 - (9 - math.log(10)) / 10) < 1e-9

    def test_strict_convexity_away_from_minimum(self):
        def f(lam):
            return lam + 0.1 * math.log(1 / lam)

        assert f(0.2) > f(0.1)
        assert f(0.05) > f(0.1)

    def test_other_weights(self):
        for w in (0.05, 0.25, 0.5):
            lam, c0 = ol.exponent_optimum(w)
            assert abs(lam - w) < 1e-6  # minimiser of lam + w log(1/lam) is w
            assert c0 == pytest.approx(1 - (w + w * math.log(1 / w)), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(w=0.1)
    @example(w=0.05)
    @example(w=0.25)
    @example(w=0.5)
    @example(w=1e-9)
    @example(w=1 - 1e-9)
    def test_bit_identical_to_scipy_bounded(self, w):
        # the in-tree search is scipy's bounded Brent loop, operation for operation
        def f(lam):
            return lam + w * math.log(1.0 / lam)

        res = minimize_scalar(f, bounds=(1e-12, 1 - 1e-12), method="bounded", options={"xatol": 1e-13})
        assert ol.exponent_optimum(w) == (float(res.x), 1.0 - float(res.fun))

    @pytest.mark.parametrize(
        "g",
        [
            lambda x: x + 0.1 * math.log(1.0 / x),
            lambda x: abs(x - 0.3),
            lambda x: (x - 0.5) ** 2,  # a parabolic step of exactly 0: the sign rule's +tol1
            lambda x: 0.0,  # every comparison is a tie
            lambda x: math.sin(1e6 * x),
            lambda x: -x,
        ],
        ids=["optimum", "kink", "zero-step", "flat", "oscillating", "edge"],
    )
    def test_same_iterates_as_scipy_bounded(self, g):
        ours, theirs = [], []
        best = _bounded_brent(lambda x: ours.append(x) or g(x))
        res = minimize_scalar(
            lambda x: theirs.append(float(x)) or g(x),
            bounds=(1e-12, 1 - 1e-12),
            method="bounded",
            options={"xatol": 1e-13},
        )
        assert ours == theirs
        assert best == (float(res.x), float(res.fun))

    def test_weight_domain(self):
        with pytest.raises(DomainError):
            ol.exponent_optimum(0.0)
        with pytest.raises(DomainError):
            ol.exponent_optimum(1.5)

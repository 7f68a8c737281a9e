"""Plateau window geometry, derivative growth, and Mellin decay."""

import math

import mpmath
import numpy as np
import pytest

import omegalab as ol
from omegalab.errors import DomainError, PrecisionError


class TestWindowGeometry:
    def test_pointwise_anchors(self, window):
        assert window(1.0) == 1.0
        assert window(0.2) == 0.0
        assert window(4.1) == 0.0

    def test_range_bounds_on_grid(self, window):
        xs = np.linspace(0.0, 5.0, 10001)
        vals = window(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_support_region_exact(self, window):
        left = np.linspace(-1.0, 0.25, 1000)
        right = np.linspace(4.0, 6.0, 1000)
        assert np.all(window(left) == 0.0)
        assert np.all(window(right) == 0.0)

    def test_plateau_region_exact(self, window):
        xs = np.linspace(0.5, 2.0, 1000)
        assert np.all(window(xs) == 1.0)

    def test_transition_monotone(self, window):
        rise = window(np.linspace(0.26, 0.49, 500))
        fall = window(np.linspace(2.01, 3.99, 500))
        assert np.all(np.diff(rise) >= 0)
        assert np.all(np.diff(fall) <= 0)

    def test_derivatives_finite_through_order_eight(self, window):
        xs = np.linspace(0.0, 4.5, 2001)
        for j in range(0, 9):
            vals = window.deriv(j, xs)
            assert np.all(np.isfinite(vals))

    def test_derivative_matches_finite_difference(self, window):
        h = 1e-6
        for x in (0.3, 0.42, 2.5, 3.2, 3.8):
            fd = (window(x + h) - window(x - h)) / (2 * h)
            assert window.deriv(1, x) == pytest.approx(fd, rel=1e-4, abs=1e-4)

    def test_derivative_growth_constant_not_increasing(self, window):
        rows = window.derivative_growth()
        consts = [c for _, _, c in rows]
        assert len(consts) == 8
        for a, b in zip(consts, consts[1:]):
            assert b <= a  # fitted C in |W^(j)| <= C j^(3j) does not grow

    def test_derivatives_against_mpmath(self, window):
        # oracle: mpmath's numerical differentiation of the literal
        # exp(-1/u) formula at 50 digits; x = 0.375 and x = 3 are skipped
        # because every even derivative vanishes there
        def f(u):
            return mpmath.exp(-1 / u) if u > 0 else mpmath.mpf(0)

        def literal(x):
            def step(u):
                return f(u) / (f(u) + f(1 - u))

            return step(4 * x - 1) * step((4 - x) / 2)

        xs = (0.27, 0.29, 0.31, 0.34, 0.36, 0.39, 0.42, 0.44, 0.46, 0.475,
              2.15, 2.3, 2.45, 2.7, 2.85, 3.15, 3.4, 3.6, 3.75, 3.85)
        with mpmath.workdps(50):
            for j in range(0, 9):
                got = window.deriv(j, np.array(xs))
                for x, v in zip(xs, got):
                    ref = float(mpmath.diff(literal, mpmath.mpf(x), j))
                    assert abs(v - ref) <= 1e-9 * abs(ref), (j, x, v, ref)

    def test_value_is_literal_closed_form(self, window):
        def step(u):
            with np.errstate(divide="ignore", over="ignore"):
                fu = np.where(u > 0, np.exp(-1 / u), 0.0)
                fv = np.where(1 - u > 0, np.exp(-1 / (1 - u)), 0.0)
            return fu / (fu + fv)

        xs = np.concatenate([np.linspace(0.0, 4.5, 200_001), [0.25, 0.5, 2.0, 4.0]])
        literal = step(4 * xs - 1) * step((4 - xs) / 2)
        assert np.array_equal(window.deriv(0, xs), literal)

    def test_order_cap_enforced(self, window):
        with pytest.raises(DomainError):
            window.deriv(9, 1.0)


class TestMellinTransform:
    def test_value_at_one_within_plateau_support_bracket(self, window):
        v = ol.mellin_transform(window, 1)
        assert v.imag == 0
        assert 1.5 <= v.real <= 3.75

    def test_two_schemes_agree(self, window):
        for s in (1, 2, 0.5 + 1j, 2 + 3j, 0.5 + 20j):
            a = ol.mellin_transform(window, s)
            b = ol.mellin_transform_quad(window, s)
            assert abs(a - b) < 1e-8

    def test_parts_identity_at_reference_point(self, window):
        s = 2 + 3j
        lhs = ol.mellin_transform(window, s) * s
        # -integral of W'(x) x^s dx, via the k=1 parts route times s
        rhs = ol.mellin_via_parts(window, s, 1) * s
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("s", [1 + 0j, 2 + 3j, 0.5 + 40j, 1 + 99j])
    def test_parts_identity_higher_orders(self, window, k, s):
        assert abs(s) <= 100
        direct = ol.mellin_transform(window, s)
        parts = ol.mellin_via_parts(window, s, k)
        assert abs(direct - parts) < 1e-6

    def test_plateau_only_lower_bound_reasoning(self, window):
        # int_{1/2}^{2} x^{s-1} dx at s=1 is 3/2; the transform adds
        # nonnegative transition mass, hence the bracket above
        assert ol.mellin_transform(window, 1).real > 1.5

    def test_large_imaginary_part_still_converges(self, window):
        v = ol.mellin_transform(window, 0.5 + 500j, tol=1e-10)
        assert abs(v) < 1e-3

    def test_overflow_guard(self, window):
        with pytest.raises(DomainError):
            ol.mellin_transform(window, 300.0)

    def test_precision_error_when_depth_exhausted(self, window, monkeypatch):
        # x^199 concentrates near x=4; a single split cannot resolve it
        monkeypatch.setattr("omegalab.window._MAX_DEPTH", 1)
        with pytest.raises(PrecisionError):
            ol.mellin_transform(window, 200, tol=1e-10)

    def test_each_panel_evaluated_once(self):
        # a refined panel's halves are its children's whole estimates, so
        # within one transform no node array reaches the integrand twice
        w = ol.build_window()
        deriv, seen = w.deriv, []

        def recording(j, x):
            seen.append((j, np.asarray(x).tobytes()))
            return deriv(j, x)

        w.deriv = recording
        calls = [lambda s=s: ol.mellin_transform(w, s) for s in (1, 0.5 + 40j, 200)]
        calls += [lambda k=k: ol.mellin_via_parts(w, 2 + 3j, k) for k in (1, 8)]
        for call in calls:
            seen.clear()
            call()
            assert len(seen) > 3 and len(set(seen)) == len(seen)

    def test_large_real_part_matches_quad_route(self, window):
        a = ol.mellin_transform(window, 200)
        b = ol.mellin_transform_quad(window, 200)
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_pole_guard_in_parts_route(self, window):
        with pytest.raises(DomainError):
            ol.mellin_via_parts(window, 0, 1)


@pytest.fixture(scope="module")
def profile(window):
    ts = np.linspace(1.0, 200.0, 24)
    return ol.decay_profile(window, 0.5, ts)


class TestDecayProfile:
    def test_fitted_rate_positive(self, profile):
        assert profile.fitted_c > 0

    def test_every_sample_below_envelope(self, profile):
        for t, mag, env in profile.rows():
            assert mag <= env

    def test_magnitudes_decay_overall(self, profile):
        mags = profile.magnitudes
        assert mags[-1] < mags[0] * 1e-4

    def test_envelope_constant_sigma_shift(self, window):
        ts = np.linspace(1.0, 60.0, 10)
        p0 = ol.decay_profile(window, 0.0, ts)
        p1 = ol.decay_profile(window, 1.0, ts)
        # the 4^|Re s| factor absorbs the sigma difference: after removing
        # it, the fitted constants stay within a factor 4 of each other
        ratio = math.exp(abs(p1.envelope_log_c - p0.envelope_log_c))
        assert ratio <= 4.0

    def test_positive_grid_required(self, window):
        with pytest.raises(DomainError):
            ol.decay_profile(window, 0.5, [-1.0, 2.0])

"""Plateau window geometry, derivative growth, and Mellin decay."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import omegalab as ol
from omegalab.errors import DomainError, PrecisionError
from omegalab.window import _GRID_CHUNK, _mellin_panels


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

    @pytest.mark.parametrize("samples", [2, _GRID_CHUNK, _GRID_CHUNK + 1, 20001])
    def test_grid_maximum_taken_in_chunks_is_the_whole_grid_maximum(self, window, samples):
        xs = np.linspace(*window.support, samples)
        for j in (0, 1, 6):
            assert window.max_abs_deriv(j, samples) == float(np.max(np.abs(window.deriv(j, xs))))

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


def _quad_oracle(w, s: complex) -> complex:
    """scipy.integrate.quad on the real and imaginary parts of W(x) x^(s-1)."""
    s = complex(s)

    def f(x: float) -> complex:
        return w(x) * x ** (s - 1)

    kw = dict(limit=400, epsabs=1e-13, epsrel=1e-11, points=[0.5, 2.0])
    re, _ = quad(lambda x: f(x).real, 0.25, 4.0, **kw)
    im, _ = quad(lambda x: f(x).imag, 0.25, 4.0, **kw)
    return complex(re, im)


# The depth-first recursion that the level-batched quadrature replaced,
# kept verbatim as an exact oracle: panel by panel, one integrand call per
# panel, each refined panel's halves handed down as its children's wholes.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _panel(f, a: float, b: float) -> complex:
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    xs = xm + xr * _GL_X
    return complex(xr * np.sum(f(xs) * _GL_W))


def _adaptive(f, a: float, b: float, whole: complex, tol: float, depth: int) -> complex:
    m = 0.5 * (a + b)
    left, right = _panel(f, a, m), _panel(f, m, b)
    refined = left + right
    err = abs(whole - refined)
    noise = 2048 * np.finfo(float).eps * max(abs(whole), abs(refined))
    if err <= tol * max(1.0, abs(refined)) or err < 1e-17 or err <= noise:
        return refined
    if depth <= 0:
        raise PrecisionError(f"adaptive quadrature on [{a}, {b}] cannot reach tolerance {tol}")
    return _adaptive(f, a, m, left, tol / 2, depth - 1) + _adaptive(f, m, b, right, tol / 2, depth - 1)


def _recursive_parts(w, s: complex, k: int, depth: int, tol: float = 1e-10) -> complex:
    """mellin_via_parts (k = 0: mellin_transform) by the recursive oracle."""

    def f(xs: np.ndarray) -> np.ndarray:
        return w.deriv(k, xs) * np.power(xs.astype(complex), s + k - 1)

    pts = _mellin_panels(s)
    per_panel = tol / (len(pts) - 1)
    moment = sum(_adaptive(f, a, b, _panel(f, a, b), per_panel, depth) for a, b in zip(pts, pts[1:]))
    if k == 0:
        return moment
    denom = 1 + 0j
    for i in range(k):
        denom *= s + i
    return (-1) ** k * moment / denom


def _same_outcome(got, want) -> None:
    """got() == want() exactly, or both raise PrecisionError."""
    try:
        expected = want()
    except PrecisionError:
        with pytest.raises(PrecisionError):
            got()
        return
    assert got() == expected


def _hex_digest(values) -> str:
    """sha256 over float.hex of the values, complex ones as real then imag."""
    parts = []
    for v in values:
        parts += [v.real.hex(), v.imag.hex()] if isinstance(v, complex) else [float(v).hex()]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class TestMellinTransform:
    def test_value_at_one_within_plateau_support_bracket(self, window):
        v = ol.mellin_transform(window, 1)
        assert v.imag == 0
        assert 1.5 <= v.real <= 3.75

    def test_two_schemes_agree(self, window):
        for s in (1, 2, 0.5 + 1j, 2 + 3j, 0.5 + 20j, 0.5 + 40j, 1 + 99j):
            a = ol.mellin_transform(window, s)
            b = ol.mellin_transform_quad(window, s)
            oracle = _quad_oracle(window, s)
            assert abs(a - b) < 1e-8
            assert abs(a - oracle) < 1e-8 and abs(b - oracle) < 1e-8

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
        v = ol.mellin_transform(window, 0.5 + 500j)
        assert abs(v) < 1e-3

    def test_overflow_guard(self, window):
        with pytest.raises(DomainError):
            ol.mellin_transform(window, 300.0)

    def test_precision_error_when_depth_exhausted(self, window, monkeypatch):
        # x^199 concentrates near x=4; a single split cannot resolve it
        monkeypatch.setattr("omegalab.window._MAX_DEPTH", 1)
        with pytest.raises(PrecisionError):
            ol.mellin_transform(window, 200)

    def test_each_panel_evaluated_once(self):
        # a refined panel's halves are its children's whole estimates, and
        # each refinement level is one integrand call over all open panels:
        # within one transform no node reaches the integrand twice, and the
        # calls number at most the top level plus one per halving level
        w = ol.build_window()
        deriv, seen, calls = w.deriv, [], []

        def recording(j, x):
            seen.extend(np.asarray(x).tolist())
            calls.append(j)
            return deriv(j, x)

        w.deriv = recording
        runs = [lambda s=s: ol.mellin_transform(w, s) for s in (1, 0.5 + 40j, 200)]
        runs += [lambda k=k: ol.mellin_via_parts(w, 2 + 3j, k) for k in (1, 8)]
        for run in runs:
            seen.clear()
            calls.clear()
            run()
            assert len(seen) > 3 and len(set(seen)) == len(seen)
            assert 2 <= len(calls) <= ol.window._MAX_DEPTH + 2

    @settings(max_examples=20, deadline=None)
    @given(re=st.floats(-30.0, 30.0), im=st.floats(0.0, 150.0))
    def test_matches_recursive_oracle_exactly(self, window, re, im):
        s, depth = complex(re, im), ol.window._MAX_DEPTH
        _same_outcome(lambda: ol.mellin_transform(window, s), lambda: _recursive_parts(window, s, 0, depth))
        for k in range(0, 9):
            if any(abs(s + i) < 1e-12 for i in range(k)):
                continue  # the parts route refuses poles
            _same_outcome(lambda: ol.mellin_via_parts(window, s, k), lambda: _recursive_parts(window, s, k, depth))

    @settings(max_examples=40, deadline=None)
    @given(
        re=st.floats(-60.0, 250.0),
        im=st.floats(0.0, 150.0),
        k=st.integers(0, 8),
        depth=st.integers(0, 4),
    )
    def test_precision_error_exactly_when_recursion_raises(self, window, re, im, k, depth):
        s = complex(re, im)
        if any(abs(s + i) < 1e-12 for i in range(k)):
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.window._MAX_DEPTH", depth)
            _same_outcome(lambda: ol.mellin_via_parts(window, s, k), lambda: _recursive_parts(window, s, k, depth))

    def test_chunked_levels_bit_identical(self, window, monkeypatch):
        # a level wider than _CHUNK panels is evaluated in several calls
        s = 0.5 + 99j
        want = [ol.mellin_via_parts(window, s, k) for k in (0, 3)]
        monkeypatch.setattr("omegalab.window._CHUNK", 5)
        assert [ol.mellin_via_parts(window, s, k) for k in (0, 3)] == want

    def test_values_pinned(self, window):
        # sha256 of float.hex of the values the depth-first recursion
        # computed: decay profiles (magnitudes, fitted_c, envelope_log_c)
        # and the parts route at k = 1..8
        ts = np.linspace(1.0, 200.0, 40)
        for sigma, digest in (
            (0.5, "502b06d2ccd5599050b4359ea592da356208ea9d5bc89350046bb82e7eb964c7"),
            (2.0, "f2c792cde31c6976e928f29ff4eafc0e75761c160abba5f54b2aff9b1e539c32"),
            (-1.0, "c72257bb17b03d13be9549d668ae42e318f55df65adc384fd1ba5e3e900a3665"),
        ):
            p = ol.decay_profile(window, sigma, ts)
            assert _hex_digest([*p.magnitudes, p.fitted_c, p.envelope_log_c]) == digest
        parts = [ol.mellin_via_parts(window, s, k) for s in (1, 2 + 3j, 0.5 + 40j, 1 + 99j) for k in range(1, 9)]
        assert _hex_digest(parts) == "6bb0f5dcf9a7afe7faee148226f39b5990bb1594cef50092b748e0873b8f8625"

    def test_large_real_part_matches_quad_route(self, window):
        a = ol.mellin_transform(window, 200)
        b = ol.mellin_transform_quad(window, 200)
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_trapezoid_nodes_evaluated_once(self):
        # each halving of the trapezoid route evaluates only the new midpoints
        w = ol.build_window()
        deriv, seen = w.deriv, []

        def recording(j, x):
            seen.extend(np.asarray(x).tolist())
            return deriv(j, x)

        w.deriv = recording
        for s in (1, 0.5 + 40j, 200):
            seen.clear()
            ol.mellin_transform_quad(w, s)
            assert len(seen) > 3 and len(set(seen)) == len(seen)

    def test_trapezoid_first_grid_resolves_oscillation(self, window):
        # at this t the nodes of the 512- and 1024-interval grids all share
        # one phase, so their sums agree on int W(x) dx = 2.625; the true
        # transform is below 1e-15
        s = 1 + 2j * math.pi * 1024 / math.log(16)
        assert abs(ol.mellin_transform_quad(window, s)) < 1e-10

    def test_trapezoid_interval_cap(self, window, monkeypatch):
        monkeypatch.setattr("omegalab.window._MAX_INTERVALS", 64)
        with pytest.raises(PrecisionError):
            ol.mellin_transform_quad(window, 2 + 3j)

    def test_trapezoid_cap_checked_before_first_grid(self, monkeypatch):
        # the first grid at Im s = 100 has 128 intervals: past the cap, so
        # the route must raise before it evaluates a single node
        monkeypatch.setattr("omegalab.window._MAX_INTERVALS", 64)
        w = ol.build_window()

        def refuse(j, x):
            raise AssertionError("integrand evaluated past the interval cap")

        w.deriv = refuse
        with pytest.raises(PrecisionError):
            ol.mellin_transform_quad(w, 2 + 100j)

    def test_trapezoid_overflow_guard(self, window):
        with pytest.raises(DomainError):
            ol.mellin_transform_quad(window, -300.0)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("s", [300.0, -300.0])
    def test_overflow_guard_in_parts_route(self, window, s, k):
        with pytest.raises(DomainError):
            ol.mellin_via_parts(window, s, k)

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

"""Plateau window geometry, derivative growth, and Mellin decay."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import omegalab as ol
from omegalab.errors import DomainError, PrecisionError, ResourceError
from omegalab.window import _GRID_CHUNK, _PANEL_BYTES, _abs, _mellin_panels


# The derivative as it was computed one join at a time, two exp jets per
# join, kept verbatim as an exact oracle for the single pass over both.
def _per_join_step_deriv(u: np.ndarray, c: float, j: int) -> np.ndarray:
    def exp_neg_recip(v: np.ndarray, dv: float) -> list[np.ndarray]:
        g = [-1 / v]
        for _ in range(j):
            g.append(g[-1] * (-dv / v))
        e = [np.exp(g[0])]
        for k in range(1, j + 1):
            e.append(sum(i * g[i] * e[k - i] for i in range(1, k + 1)) / k)
        return e

    a = exp_neg_recip(u, c)
    b = exp_neg_recip(1 - u, -c)
    if j == 0:
        return a[0] / (b[0] + a[0])
    d = [x + y for x, y in zip(a, b)]
    low = u < 0.5
    n = [np.where(low, x, y) for x, y in zip(a, b)]
    q: list[np.ndarray] = []
    for k in range(j + 1):
        q.append((n[k] - sum(d[i] * q[k - i] for i in range(1, k + 1))) / d[0])
    return math.factorial(j) * np.where(low, q[j], -q[j])


def _per_join_deriv(j: int, xs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xs)
    if j == 0:
        out[(xs >= 0.5 - 1e-6) & (xs <= 2.0 + 1e-6)] = 1.0
    for lo, hi, z, c in ((0.25, 0.5, 0.25, 4.0), (2.0, 4.0, 4.0, -0.5)):
        mask = (xs > lo + 1e-6) & (xs < hi - 1e-6)
        if mask.any():
            out[mask] = _per_join_step_deriv(c * (xs[mask] - z), c, j)
    return out


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

    def test_one_jet_pass_matches_per_join_oracle(self, window):
        # both joins and both exp jets in one pass change no bit, also
        # within 2e-6 of the joins, where the jets underflow
        rng = np.random.default_rng(7)
        near = np.array([0.25, 0.5, 2.0, 4.0])[:, None] + rng.uniform(-2e-6, 2e-6, (4, 2500))
        xs = np.concatenate([rng.uniform(0.2, 4.1, 100_000), near.ravel()])
        for j in range(0, 9):
            got = [v.hex() for v in window.deriv(j, xs).tolist()]
            assert got == [v.hex() for v in _per_join_deriv(j, xs).tolist()], j


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

    @pytest.mark.parametrize(
        "s",
        [complex(math.nan, 1.0), complex(0.5, math.inf), complex(0.5, -math.inf), complex(0.5, math.nan)],
        ids=["nan-re", "inf-im", "minus-inf-im", "nan-im"],
    )
    @pytest.mark.parametrize("route", [ol.mellin_transform, ol.mellin_transform_quad])
    def test_non_finite_s_is_a_domain_error(self, window, route, s):
        def refuse(j, x):
            raise AssertionError("integrand evaluated at a non-finite s")

        w = ol.build_window()
        w.deriv = refuse
        with pytest.raises(DomainError):
            route(w, s)

    def test_first_grid_reserved_before_it_is_built(self, window, monkeypatch):
        # about 0.44 |Im s| panels: 4.4e11 of them at Im s = 1e12
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))

        def refuse(j, x):
            raise AssertionError("integrand evaluated past the budget")

        w = ol.build_window()
        w.deriv = refuse
        with pytest.raises(ResourceError):
            ol.mellin_transform(w, 0.5 + 1e12j)

    def test_refinement_levels_reserved(self, window, monkeypatch):
        # k = 8 at 1/2 + 1000i: 443 first-grid panels, 667 held once refined
        s = 0.5 + 1000j
        want = ol.mellin_via_parts(window, s, 8)
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(500 * _PANEL_BYTES))
        with pytest.raises(ResourceError):
            ol.mellin_via_parts(window, s, 8)
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(700 * _PANEL_BYTES))
        assert ol.mellin_via_parts(window, s, 8) == want

    def test_pole_guard_in_parts_route(self, window):
        with pytest.raises(DomainError):
            ol.mellin_via_parts(window, 0, 1)


# values whose magnitude np.abs rounds one ulp away from abs(complex),
# and subnormal and huge parts
_ABS_CASES = [
    complex(-1.7585539561205085e152, 6.988175025278273e152),
    complex(5.734225151419398e-102, -2.5396326913335183e-101),
    complex(1.1296549962858352e75, -4.987380695745155e74),
    complex(-9.83863507050445e-277, -4.082967416944445e-278),
    complex(5e-324, -3e-310),
    complex(1e300, -1e300),
]
_PARTS = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-290, 1e-290))


@settings(max_examples=100, deadline=None)
@given(zs=st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=50))
@example(zs=_ABS_CASES)
def test_abs_helper_is_python_abs(zs):
    # the quadrature's accept test reads |z| through this helper, bit for
    # bit as the panel-by-panel test read abs(complex)
    assert [v.hex() for v in _abs(np.array(zs)).tolist()] == [abs(z).hex() for z in zs]


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

    @settings(max_examples=25, deadline=None)
    @given(
        sigma=st.floats(-30.0, 30.0),
        ts=st.lists(st.floats(0.0, 2000.0, exclude_min=True), min_size=2, max_size=60),
    )
    @example(sigma=0.5, ts=np.linspace(20.0, 2000.0, 60).tolist())
    def test_grouped_samples_match_single_transforms(self, window, sigma, ts):
        # the samples settle together, in groups of first grids, and each
        # magnitude is that of its own transform, bit for bit
        want = [abs(ol.mellin_transform(window, complex(sigma, t))).hex() for t in ts]
        assert [m.hex() for m in ol.decay_profile(window, sigma, ts).magnitudes.tolist()] == want

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @settings(max_examples=30, deadline=None)
    @given(
        sigma=st.floats(-30.0, 30.0),
        ts=st.lists(st.floats(0.0, 300.0, exclude_min=True), min_size=2, max_size=30),
    )
    @example(sigma=0.5, ts=[0.5, 1.0, 1.5])
    @example(sigma=0.5, ts=[150.0, 299.0, 2.0, 1.0])
    @example(sigma=0.5, ts=[1000.0, 1200.0, 80.0, 3.0, 1.0])
    def test_precision_error_exactly_when_a_sample_raises(self, window, depth, sigma, ts):
        # the first sample whose own transform raises names the error
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omegalab.window._MAX_DEPTH", depth)
            mags = []
            try:
                mags = [abs(ol.mellin_transform(window, complex(sigma, t))) for t in ts]
            except PrecisionError as exc:
                with pytest.raises(PrecisionError) as got:
                    ol.decay_profile(window, sigma, ts)
                assert str(got.value) == str(exc)
            else:
                assert ol.decay_profile(window, sigma, ts).magnitudes.tolist() == mags

    def test_groups_fit_the_budget_of_the_largest_transform(self, window, monkeypatch):
        # first grids of more than 4 * _CHUNK panels in all, refined at
        # Re s = 30; no group holds more than _CHUNK of them unless it is
        # one transform, so a budget that admits the largest single
        # transform admits the profile
        sigma, ts = 30.0, np.linspace(100.0, 1500.0, 12)
        assert sum(len(_mellin_panels(complex(sigma, t))) - 1 for t in ts) > 4 * ol.window._CHUNK
        want = ol.decay_profile(window, sigma, ts)
        reserve, need, peaks = ol.window._reserve, [], []
        monkeypatch.setattr("omegalab.window._reserve", lambda n, what: need.append(n) or reserve(n, what))
        for t in ts:
            need.clear()
            ol.mellin_transform(window, complex(sigma, t))
            peaks.append(max(need))
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(max(peaks) - 1))
        with pytest.raises(ResourceError):
            ol.mellin_transform(window, complex(sigma, ts[int(np.argmax(peaks))]))
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(max(peaks)))
        got = ol.decay_profile(window, sigma, ts)
        assert _hex_digest([*got.magnitudes, got.fitted_c, got.envelope_log_c]) == _hex_digest(
            [*want.magnitudes, want.fitted_c, want.envelope_log_c]
        )

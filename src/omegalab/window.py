"""Smooth compactly supported window with plateau, built from the classic
exp(-1/u) bump calculus:

    step(u) = f(u) / (f(u) + f(1-u)),  f(u) = exp(-1/u) for u > 0 else 0,
    W(x)    = step(4x - 1) * step((4 - x)/2),

so W = 0 off [1/4, 4], W = 1 on [1/2, 2], and W is C^infinity with all
derivatives vanishing to infinite order at the joins.  Derivatives come
from Taylor-jet recurrences for exp and division (Griewank & Walther,
Evaluating Derivatives, ch. 13) on the open rise/fall regions; within
1e-6 of a join the true values are below exp(-1e5), so they are returned
as exact zeros rather than risking 0 * inf in the recurrences.

The Mellin transform W~(s) = int W(x) x^(s-1) dx is evaluated by an
adaptive Gauss-Legendre scheme with panels split at the structural
breakpoints and at the oscillation scale 2*pi/|Im s|.  Refinement is
level-batched, for one transform or for decay_profile's samples in
groups: each level halves every panel that has not settled, evaluates
their halves _CHUNK panels per integrand call and tests them at once,
and the values are summed as the depth-first recursion would sum them;
the first grid and each level reserve their panels against the memory
budget before they are built.  An independent route for cross-checks
is the trapezoid rule in u = log x, which converges exponentially
because W(e^u) e^(su) vanishes to all orders at both ends (Trefethen &
Weideman, SIAM Review 56 (2014)).  The transform decays like
exp(-c |s|^(1/3)) along vertical lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .sieve import _reserve

__all__ = [
    "DecayProfile",
    "WindowFn",
    "build_window",
    "decay_profile",
    "mellin_transform",
    "mellin_transform_quad",
    "mellin_via_parts",
]

_EPS_JOIN = 1e-6
_MAX_RE_S = 256.0  # beyond this, x**(s-1) overflows double on [1/4, 4]
_MAX_DEPTH = 14  # halvings of a panel before the quadrature gives up
_MAX_INTERVALS = 1 << 20  # trapezoid intervals before the cross-check route gives up
_TOL = 1e-10  # the Gauss-Legendre route's target for each moment integral
# bytes per panel held by the Gauss-Legendre route: its tracemalloc peak was
# 0.27 KiB per panel at 136 183 first-grid panels and 0.12-0.16 KiB per
# panel once refinement levels held more than 10^6
_PANEL_BYTES = 320
_GRID_CHUNK = 1 << 11  # grid points per derivative call of max_abs_deriv: jets of up to 32 KiB

def _step_deriv(u: np.ndarray, c: np.ndarray, j: int) -> np.ndarray:
    """j-th x-derivative of step(u + c*(x - x0)) at x0, elementwise in u and c.

    step = a/(a + b) with a = exp(-1/v) on v = u + c*h and b the same on
    v = 1 - u - c*h; both jets run as one over [u, 1 - u] with slopes
    [c, -c].  The jet of -1/v is geometric, exp follows k e_k =
    sum_i i g_i e_(k-i), and the quotient recurrence puts the smaller of a
    and b on top (step = 1 - b/(a + b)), so that no coefficient is a
    difference of near-equal terms.  Order 0 is the closed form, op for op.
    """
    m, v = u.size, np.concatenate([u, 1 - u])
    g = [-1 / v]
    e = [np.exp(g[0])]
    if j == 0:
        return e[0][:m] / (e[0][m:] + e[0][:m])
    r = np.concatenate([-c, c]) / v
    for _ in range(j):
        g.append(g[-1] * r)
    ig = [i * x for i, x in enumerate(g)]
    for k in range(1, j + 1):
        e.append(sum(ig[i] * e[k - i] for i in range(1, k + 1)) / k)
    a, b = [x[:m] for x in e], [x[m:] for x in e]
    d = [x + y for x, y in zip(a, b)]
    low = u < 0.5
    n = [np.where(low, x, y) for x, y in zip(a, b)]
    q: list[np.ndarray] = []
    for k in range(j + 1):
        q.append((n[k] - sum(d[i] * q[k - i] for i in range(1, k + 1))) / d[0])
    return math.factorial(j) * np.where(low, q[j], -q[j])


class WindowFn:
    """The window W and its derivatives up to order j_max = 8."""

    support = (0.25, 4.0)
    plateau = (0.5, 2.0)
    j_max = 8

    def deriv(self, j: int, x):
        """j-th derivative of W at x (scalar or array)."""
        if not 0 <= j <= self.j_max:
            raise DomainError(f"derivative order {j} outside [0, {self.j_max}]")
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.zeros_like(xs)
        if j == 0:
            out[(xs >= 0.5 - _EPS_JOIN) & (xs <= 2.0 + _EPS_JOIN)] = 1.0
        # W = step(c (x - z)), z the outer join: step(4x - 1) rising, step((4 - x)/2) falling
        mask = (xs > 0.25 + _EPS_JOIN) & (xs < 0.5 - _EPS_JOIN) | (xs > 2.0 + _EPS_JOIN) & (xs < 4.0 - _EPS_JOIN)
        if mask.any():
            rise = xs[mask] < 1.0
            c = np.where(rise, 4.0, -0.5)
            out[mask] = _step_deriv(c * (xs[mask] - np.where(rise, 0.25, 4.0)), c, j)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.deriv(0, x)

    def max_abs_deriv(self, j: int, samples: int = 20001) -> float:
        """Grid maximum of |W^(j)| over the support, the maximum of the
        maxima over chunks of _GRID_CHUNK points, so that each chunk's
        scratch arrays stay small."""
        xs = np.linspace(self.support[0], self.support[1], samples)
        chunks = (xs[i : i + _GRID_CHUNK] for i in range(0, samples, _GRID_CHUNK))
        return max(float(np.max(np.abs(self.deriv(j, x)))) for x in chunks)

    def derivative_growth(self) -> list[tuple[int, float, float]]:
        """Rows (j, max|W^(j)|, max|W^(j)| / j^(3j)) for 1 <= j <= j_max.

        The normalised column is bounded (empirically decreasing), i.e.
        the derivatives grow no faster than j^(3j).
        """
        rows = []
        for j in range(1, self.j_max + 1):
            m = self.max_abs_deriv(j)
            rows.append((j, m, m / j ** (3 * j)))
        return rows


def build_window() -> WindowFn:
    """Construct the plateau window (derivative orders 0..8); derivatives
    are evaluated per call, nothing is cached."""
    return WindowFn()


# ---------------------------------------------------------------------------
# Mellin transform: adaptive Gauss-Legendre with certified-by-refinement
# error model, plus an independent trapezoid route.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# panels per integrand call, so node arrays stay in cache for any |Im s|: the analytic
# benchmark read 0.108 s and 42.5 MiB peak RSS at 1 << 12, 0.100 s and 38.9 MiB at 1 << 9
_CHUNK = 1 << 9
# exp(-1/u) in the window tails carries relative noise of (1/u)*eps, up to
# ~745 eps just above underflow, hence the wide safety factor
_NOISE = 2048 * np.finfo(float).eps


def _gauss_legendre(f, a: np.ndarray, b: np.ndarray, own: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre values of f(., own[i]) on the panels [a[i], b[i]]."""
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    out = []
    for i in range(0, len(a), _CHUNK):
        m, r = xm[i : i + _CHUNK, None], xr[i : i + _CHUNK]
        fx = f((m + r[:, None] * _GL_X).ravel(), own[i : i + _CHUNK].repeat(_GL_X.size)).reshape(-1, _GL_X.size)
        out.append(r * np.sum(fx * _GL_W, axis=1))
    return np.concatenate(out)


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| bit for bit as Python's abs(complex), C's hypot; np.abs is not."""
    return np.hypot(z.real, z.imag)


def _quadrature(f, grids: list[list[float]], tol: float) -> list[complex]:
    """int f(., i) over [g[0], g[-1]] for each grid g = grids[i], each panel
    of g halved until its share of tol, tol / (len(g) - 1), is met.  All
    panels settle together; each value sums its own panels in order."""
    n = [len(g) - 1 for g in grids]
    own = np.repeat(np.arange(len(grids)), n)
    a, b = np.concatenate([g[:-1] for g in grids]), np.concatenate([g[1:] for g in grids])
    share = np.repeat([tol / m for m in n], n)
    vals = _settle(f, a, b, own, _gauss_legendre(f, a, b, own), share, _MAX_DEPTH, own.size)
    return [sum(v.tolist()) for v in np.split(vals, np.cumsum(n)[:-1])]


def _settle(f, a: np.ndarray, b: np.ndarray, own, whole, tol: np.ndarray, depth: int, held: int) -> np.ndarray:
    """The integral of f(., own[i]) over each panel [a[i], b[i]], whose
    16-point value is whole[i]: left + right once the halves agree with it
    to tol[i], else each half settled to tol[i] / 2.  One level evaluates
    the halves of every panel, _CHUNK panels per call of f, and tests them
    all at once; one recursive call settles every open half, once they and
    the held panels of the levels above fit the memory budget."""
    m = 0.5 * (a + b)
    a, b, own = np.column_stack([a, m]).ravel(), np.column_stack([m, b]).ravel(), own.repeat(2)
    halves = _gauss_legendre(f, a, b, own)
    refined = halves[0::2] + halves[1::2]
    err, mag = _abs(whole - refined), _abs(refined)
    # tol acts absolutely for order-one integrals and relatively for the
    # huge magnitudes that large real parts of s produce on this support;
    # the final clause stops refinement once the discrepancy is evaluation
    # noise for the magnitudes involved, which no extra depth can beat
    shut = (err <= tol * np.maximum(1.0, mag)) | (err < 1e-17) | (err <= _NOISE * np.maximum(_abs(whole), mag))
    if shut.all():
        return refined
    if depth <= 0:
        j = int(np.argmin(shut))
        raise PrecisionError(
            f"adaptive quadrature on [{a[2 * j]}, {b[2 * j + 1]}] cannot reach "
            f"tolerance {float(tol[j])} at the configured refinement depth"
        )
    opened = np.repeat(~shut, 2)
    held += int(opened.sum())
    _reserve(_PANEL_BYTES * held, f"Mellin quadrature refined to {held} panels")
    sub = _settle(f, a[opened], b[opened], own[opened], halves[opened], tol[~shut].repeat(2) / 2, depth - 1, held)
    refined[~shut] = sub[0::2] + sub[1::2]
    return refined


def _mellin_panels(s: complex) -> list[float]:
    """The first grid: {1/4, 1/2, 2, 4}, each gap split into panels at most
    2*pi/|Im s| wide in log x, counted and reserved before they are built."""
    pts = [0.25, 0.5, 2.0, 4.0]
    t = abs(s.imag)
    if t <= 2.0:
        return pts
    max_log_width = 2 * math.pi / t
    n_subs = [max(1, math.ceil(math.log(b / a) / max_log_width)) for a, b in zip(pts, pts[1:])]
    n = sum(n_subs)
    _reserve(_PANEL_BYTES * n, f"Mellin quadrature at s = {s} on {n} panels")
    out = [pts[0]]
    for a, b, n_sub in zip(pts, pts[1:], n_subs):
        ratio = (b / a) ** (1.0 / n_sub)
        out.extend(a * ratio ** (i + 1) for i in range(n_sub))
        out[-1] = b  # kill accumulated rounding at the breakpoint
    return out


def _checked_s(s) -> complex:
    """s as a complex, or DomainError unless |Re s| <= _MAX_RE_S and Im s is
    finite; the test is written so that a NaN real part fails it too."""
    s = complex(s)
    if not (abs(s.real) <= _MAX_RE_S and math.isfinite(s.imag)):
        raise DomainError(f"s = {s}: need |Re s| <= {_MAX_RE_S} and a finite Im s")
    return s


def mellin_transform(w: WindowFn, s: complex) -> complex:
    """int_0^inf W(x) x^(s-1) dx by adaptive panel Gauss-Legendre.

    Panels start at the structural points {1/4, 1/2, 2, 4} and are
    pre-split to the oscillation scale 2*pi/|Im s|; each panel is then
    halved until the 16-point estimate is stable to its share of _TOL, its
    halves getting half that share each.  Refinement is level-batched:
    each level evaluates the halves of every panel still open, _CHUNK
    panels per integrand call.  Raises PrecisionError if a panel still misses its share
    after _MAX_DEPTH = 14 halvings, DomainError when |Re s| is large
    enough to overflow doubles on the support or Im s is not finite, and
    ResourceError when the panels held would pass the memory budget.
    """
    return mellin_via_parts(w, s, 0)


def mellin_transform_quad(w: WindowFn, s: complex) -> complex:
    """Independent route: the trapezoid rule in u = log x on [log 1/4, log 4]
    applied to W(e^u) e^(su).

    The first grid resolves the oscillation (at least two nodes per period
    of e^(i Im(s) u)); each halving then evaluates only the new midpoints,
    and the sum is returned once two successive sums differ by at most
    1e-13 * h * sum|f|.  Raises PrecisionError past _MAX_INTERVALS = 2^20
    intervals, DomainError as for mellin_transform.
    """
    s = _checked_s(s)

    def f(u: np.ndarray) -> np.ndarray:
        return w(np.exp(u)) * np.exp(s * u)

    a, b = math.log(0.25), math.log(4.0)
    n = 1 << math.ceil(math.log2(abs(s.imag) * (b - a) / math.pi + 1))
    if n >= _MAX_INTERVALS:  # the first grid grows with |Im s|: check before it is built
        raise PrecisionError(f"trapezoid route at s = {s} needs more than {_MAX_INTERVALS} intervals")
    h = (b - a) / n
    vals = f(a + h * np.arange(n + 1))  # f is 0 at both ends: every node weighs h
    total, mag = vals.sum(), np.abs(vals).sum()
    est = h * total
    while n < _MAX_INTERVALS:
        n, h = 2 * n, h / 2
        vals = f(a + h * np.arange(1, n, 2))
        total, mag = total + vals.sum(), mag + np.abs(vals).sum()
        prev, est = est, h * total
        if abs(est - prev) <= 1e-13 * h * mag:
            return complex(est)
    raise PrecisionError(f"trapezoid route at s = {s} not settled after {_MAX_INTERVALS} intervals")


def mellin_via_parts(w: WindowFn, s: complex, k: int) -> complex:
    """The k-fold integration-by-parts form of the transform, k = 0..8:

        W~(s) = (-1)^k / (s (s+1) ... (s+k-1)) * int W^(k)(x) x^(s+k-1) dx.

    Boundary terms vanish because W is flat at both ends of its support.
    _TOL bounds the moment integral, not its quotient by s (s+1) ... (s+k-1)
    (2.2e-8 from W~ at s = 1, k = 8).  DomainError as for mellin_transform,
    and for k outside 0..8 or s at a pole 0, -1, ..., 1-k.
    """
    s = _checked_s(s)
    if not 0 <= k <= w.j_max:
        raise DomainError(f"k={k} outside [0, {w.j_max}]")
    denom = 1 + 0j
    for i in range(k):
        if abs(s + i) < 1e-12:
            raise DomainError(f"s + {i} is at a pole of the parts formula")
        denom *= s + i
    return (-1) ** k * _moments(w, [(s, _mellin_panels(s))], k)[0] / denom


def _moments(w: WindowFn, group: list[tuple[complex, list[float]]], k: int) -> list[complex]:
    """int W^(k)(x) x^(s+k-1) dx for each (s, first grid) of the group, by
    one level-batched quadrature over all their panels."""
    power = np.array([s + k - 1 for s, _ in group])

    def f(xs: np.ndarray, own: np.ndarray) -> np.ndarray:
        return w.deriv(k, xs) * np.power(xs.astype(complex), power[own])

    return _quadrature(f, [grid for _, grid in group], _TOL)


@dataclass(frozen=True)
class DecayProfile:
    """|W~(sigma + it)| along a vertical line, with the fitted envelope

        |W~| <= C * 4^|sigma| * exp(-c |s|^(1/3)).

    The envelope is an empirical fit over the sampled t, not a proven bound:
    fitted_c comes from least squares in (|s|^(1/3), log|W~|) space, and
    envelope_log_c is then shifted so the envelope dominates every sample.
    """

    sigma: float
    ts: np.ndarray
    magnitudes: np.ndarray
    fitted_c: float
    envelope_log_c: float

    def envelope(self, t: float) -> float:
        u = abs(complex(self.sigma, t)) ** (1.0 / 3.0)
        return math.exp(self.envelope_log_c + abs(self.sigma) * math.log(4.0) - self.fitted_c * u)

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(t), float(m), self.envelope(float(t)))
            for t, m in zip(self.ts, self.magnitudes)
        ]

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "fitted_c": self.fitted_c,
            "envelope_log_c": self.envelope_log_c,
            "rows": [
                {"t": r[0], "magnitude": r[1], "envelope": r[2]} for r in self.rows()
            ],
        }


def decay_profile(w: WindowFn, sigma: float, ts) -> DecayProfile:
    """Sample |W~(sigma + it)| over the given t grid and fit the decay rate.

    Consecutive samples settle together in groups of first grids of at
    most _CHUNK panels in all, or of one larger grid, and each magnitude
    is bit for bit that of mellin_transform.  The fit explains log|W~| -
    |sigma| log 4 as log C - c |s|^(1/3); the reported envelope constant
    is inflated so that every sampled point sits on or below the envelope.
    """
    ts = np.array(ts, dtype=float)
    if ts.size < 2:
        raise DomainError("need at least two sample points to fit a decay rate")
    if not np.all(ts > 0):
        raise DomainError("t grid must be positive")
    mags, group = [], []
    for t in ts.tolist():
        s = _checked_s(complex(sigma, t))
        grid = _mellin_panels(s)
        if group and sum(len(g) - 1 for _, g in group) + len(grid) - 1 > _CHUNK:
            mags += map(abs, _moments(w, group, 0))
            group = []
        group.append((s, grid))
    mags = np.maximum(mags + [*map(abs, _moments(w, group, 0))], 1e-300)
    u = np.abs(sigma + 1j * ts) ** (1.0 / 3.0)
    y = np.log(mags) - abs(sigma) * math.log(4.0)
    design = np.column_stack([np.ones_like(u), -u])
    (log_c, c_fit), *_ = np.linalg.lstsq(design, y, rcond=None)
    # the 1e-9 nudge keeps the exp/log round trip from landing an ulp
    # below the maximizing sample, so every row satisfies mag <= envelope
    envelope_log_c = float(np.max(y + c_fit * u)) + 1e-9
    return DecayProfile(
        sigma=float(sigma),
        ts=ts,
        magnitudes=mags,
        fitted_c=float(c_fit),
        envelope_log_c=envelope_log_c,
    )

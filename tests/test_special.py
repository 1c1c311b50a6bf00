"""Special-function tests: every nontrivial evaluation has an independent
oracle (integral representation, closed form, or high-precision residual)."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp
from scipy.interpolate import CubicSpline

from strata import special
from strata.special import (
    _BESSEL_BUDGET,
    _W_BUDGET,
    _W_MU_MAX,
    _W_NODES,
    _W_X_MIN_REAL,
    RadialProfile,
    _hankel_rule,
    _uniform_spline,
    bessel_j,
    gamma_w,
    hankel_transform,
    log_gamma,
    s_transform,
    t_transform,
    whittaker_asymptotic_smally,
    whittaker_ode_residual,
    whittaker_w,
)

from oracles import (mp_whittaker_ode_residual, whittaker_m,
                     whittaker_w_bessel)


# -- gamma / bessel ---------------------------------------------------------


def test_log_gamma_matches_factorials_and_reflection():
    for n in range(1, 8):
        assert abs(math.exp(log_gamma(n).real) - math.factorial(n - 1)) < 1e-9
    z = 0.3 + 0.7j
    lhs = np.exp(log_gamma(z)) * np.exp(log_gamma(1 - z))
    rhs = math.pi / np.sin(math.pi * z)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    with pytest.raises(ValueError):
        log_gamma(-3)


def test_bessel_matches_hansen_integral():
    """J_k(z) = (1/2pi) int exp(-i k theta + i z sin theta) d theta."""
    thetas = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    for k in (0, 1, 2, 5):
        for z in (0.3, 2.0, 11.5):
            integrand = np.exp(-1j * k * thetas + 1j * z * np.sin(thetas))
            oracle = integrand.mean().real
            assert abs(bessel_j(k, z) - oracle) < 1e-12


def test_bessel_order_two_recurrence_matches_jv():
    # one upward step from j0/j1, with the small-x series down to zero and
    # through the subnormal range
    tiny = [0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-9, 1e-8, 1.0000001e-8]
    x = np.concatenate([tiny, np.geomspace(1e-12, 1.0, 400),
                        np.linspace(0.0, 2e4, 400_001)])
    x = np.concatenate([x, -x])
    got = bessel_j(2, x)
    assert np.max(np.abs(got - sp.jv(2, x))) <= 2e-14
    assert bessel_j(2, 0.0) == 0.0 and np.ndim(bessel_j(2, 0.0)) == 0
    assert bessel_j(2, np.zeros((2, 3))).shape == (2, 3)


# -- whittaker --------------------------------------------------------------


def test_whittaker_ode_residuals():
    # mpmath's W and M to 1e-12, and the library's own W (its float64 rule
    # at every point here, differenced in float64) to criterion 8's 1e-6
    for kappa, mu in [(1.0, 0.8j), (0.0, 1.3j), (-1.0, 0.5j), (0.5, 0.25)]:
        for x in (0.1, 1.0, 5.0, 20.0):
            assert mp_whittaker_ode_residual(kappa, mu, x, "w") < 1e-12
            assert mp_whittaker_ode_residual(kappa, mu, x, "m") < 1e-12
            assert whittaker_ode_residual(kappa, mu, x) < 1e-6


def test_whittaker_degenerate_closed_form(monkeypatch):
    """W_{kappa, kappa - 1/2}(x) = x^kappa exp(-x/2), on the float64 rule
    and on the mpmath fallback: complex kappa, mu on neither axis,
    |mu| > 2 and x below the real-order minimum.  One real-kappa point
    with |t| > 4 is checked against W_{0, mu}(x) = sqrt(x/pi) K_mu(x/2)."""
    for kappa in (1.0, 2.0, 1.5):
        for x in (0.2, 1.0, 7.0):
            want = x ** kappa * math.exp(-x / 2)
            got = whittaker_w(kappa, kappa - 0.5, x)
            assert abs(got - want) < 1e-12 * abs(want)
    calls = []

    def spy(kappa, mu, x):
        calls.append((kappa, mu, x))
        return fallback(kappa, mu, x)

    fallback = special._whit
    monkeypatch.setattr(special, "_whit", spy)
    for kappa, xs in ((0.5 + 5j, (0.2, 1.0, 7.0)), (1 + 0.5j, (0.2, 1.0, 7.0)),
                      (3.0, (0.2, 1.0, 7.0)), (1.5, (1e-3,))):
        for x in xs:
            calls.clear()
            want = x ** kappa * cmath.exp(-x / 2)
            got = whittaker_w(kappa, kappa - 0.5, x)
            assert calls == [(kappa, kappa - 0.5, x)]
            assert abs(got - want) < 1e-12 * abs(want)
    calls.clear()
    got = whittaker_w(0.0, 5j, 0.8)
    want = whittaker_w_bessel(5j, 0.8)
    assert calls == [(0.0, 5j, 0.8)]
    assert abs(got - want) < 1e-12 * abs(want)


def test_whittaker_w_decays_m_grows():
    kappa, mu = 1.0, 0.7j
    big = 40.0
    assert abs(whittaker_w(kappa, mu, big)) < 1e-6
    assert abs(whittaker_m(kappa, mu, big)) > 1e3


def test_whittaker_vectorized_matches_scalar():
    xs = np.array([0.5, 1.0, 2.0])
    vals = whittaker_w(1.0, 0.8j, xs)
    for x, v in zip(xs, vals):
        assert abs(v - whittaker_w(1.0, 0.8j, float(x))) == 0.0


def _mp_whittaker_w(kappa, mu, xs):
    with mp.workdps(30):
        return np.array([complex(mp.whitw(kappa, mu, x)) for x in xs])


@settings(max_examples=40)
@given(kappa=st.sampled_from([j / 2.0 for j in range(-4, 5)] + [0.3, -1.7]),
       t=st.floats(0.3, 4.0),
       log_x=st.lists(st.floats(math.log(1e-12), math.log(1e3)),
                      min_size=12, max_size=12))
def test_whittaker_imaginary_order_matches_mpmath(kappa, t, log_x):
    # the float64 rule against mpmath, relative to the grid's largest |W|:
    # pointwise relative error is ill-posed near the zeros of the
    # oscillating W.  Past x = 30, beyond the turning point of the ODE, W
    # decays without zeros, and there it holds pointwise.  The imaginary
    # part of the real W is exactly +0.0.
    xs = np.exp(np.array(log_x))
    got = whittaker_w(kappa, 1j * t, xs)
    want = _mp_whittaker_w(kappa, 1j * t, xs)
    err = np.abs(got - want)
    assert np.max(err) <= 1e-12 * np.max(np.abs(want))
    far = xs > 30.0
    assert np.all(err[far] <= 1e-12 * np.abs(want[far]))
    assert np.all(got.imag.view(np.uint64) == 0)


def _mp_whittaker_w_real(kappa, mu, xs):
    """30-digit ``W_{kappa, mu}`` for real ``mu``.  Where ``1/2 + mu - kappa
    = -n`` is a non-positive integer, ``W`` is the Laguerre polynomial
    ``e^(-x/2) x^(mu+1/2) (-1)^n n! L_n^(2 mu)(x)`` (DLMF 13.14.3, 13.6.19),
    whose exact zeros ``mpmath.whitw`` does not settle."""
    n = kappa - mu - 0.5
    if n < 0.0 or n != int(n):
        return _mp_whittaker_w(kappa, mu, xs)
    n = int(n)
    with mp.workdps(30):
        return np.array([complex(mp.exp(-x / 2) * mp.mpf(x) ** (mu + 0.5)
                                 * (-1) ** n * mp.factorial(n)
                                 * mp.laguerre(n, 2 * mu, x)) for x in xs])


# the real-order domain, for the scale of each example's error
_REAL_ORDER_GRID = np.geomspace(_W_X_MIN_REAL, 1e3, 25)
_REAL_ORDER_EDGE = np.linspace(math.log(_W_X_MIN_REAL), math.log(1e3),
                               12).tolist()


@settings(max_examples=40)
@example(kappa=2.0, mu=1.5, log_x=_REAL_ORDER_EDGE)
@example(kappa=1.5, mu=1.0, log_x=_REAL_ORDER_EDGE)
@example(kappa=-2.0, mu=_W_MU_MAX, log_x=_REAL_ORDER_EDGE)
@given(kappa=st.sampled_from([j / 2.0 for j in range(-4, 5)] + [0.3, -1.7]),
       mu=st.sampled_from([j / 2.0 for j in range(5)])
       | st.floats(0.0, _W_MU_MAX),
       log_x=st.lists(st.floats(math.log(_W_X_MIN_REAL), math.log(1e3)),
                      min_size=12, max_size=12))
def test_whittaker_real_order_matches_mpmath(kappa, mu, log_x):
    # the float64 rule on the real axis against mpmath, relative to the
    # largest |W| over the domain of x, and pointwise past x = 30.  Near
    # kappa = mu + 1/2 + n (the half-integer pairs drawn) the climb in kappa
    # cancels the small-x term of W; the domain's minimum keeps that below
    # the bound, and the explicit examples sweep its edge at two such pairs.
    # W_{kappa, -mu} = W_{kappa, mu} bit for bit, and the imaginary part of
    # the real W is exactly +0.0.
    xs = np.maximum(np.exp(np.array(log_x)), _W_X_MIN_REAL)
    got = whittaker_w(kappa, mu, xs)
    want = _mp_whittaker_w_real(kappa, mu, xs)
    scale = max(np.max(np.abs(want)), np.max(np.abs(
        _mp_whittaker_w_real(kappa, mu, _REAL_ORDER_GRID))))
    err = np.abs(got - want)
    assert np.max(err) <= 1e-12 * scale
    far = xs > 30.0
    assert np.all(err[far] <= 1e-12 * np.abs(want[far]))
    assert np.all(got.imag.view(np.uint64) == 0)
    assert np.array_equal(got.view(np.uint64),
                          whittaker_w(kappa, -mu, xs).view(np.uint64))


def test_whittaker_kappa_recurrence():
    # DLMF 13.15.11, W_{k+1} = (x - 2k) W_k + (mu^2 - (k - 1/2)^2) W_{k-1},
    # builds every kappa > -1 from two quadratures; it holds for mpmath's
    # values, and for quadratures at three orders <= -1, which it links
    # without being used to compute any of them
    xs = np.geomspace(1e-6, 60.0, 40)
    for kappa, t in [(-2.0, 0.7), (-2.25, 2.2), (-2.5, 3.1)]:
        mu = 1j * t

        def residual(w, x):
            return np.max(np.abs(w[2] - (x - 2 * kappa) * w[1]
                                 - (mu * mu - (kappa - 0.5) ** 2) * w[0]))

        quad = [whittaker_w(kappa + j, mu, xs) for j in (-1, 0, 1)]
        scale = max(np.max(np.abs(w) * np.maximum(1.0, xs)) for w in quad)
        assert residual(quad, xs) <= 1e-12 * scale
        exact = [_mp_whittaker_w(kappa + j, mu, xs[::8]) for j in (-1, 0, 1)]
        assert residual(exact, xs[::8]) <= 1e-14 * scale


def test_whittaker_value_independent_of_batch():
    # the batch spans three (x, node) blocks; each value equals its
    # single-point call bit for bit, on both sides of each block edge
    rows = _W_BUDGET // (_W_NODES[1] - _W_NODES[0])
    for mu, x_min in ((1.9j, 1e-12), (1.3, _W_X_MIN_REAL)):
        xs = np.geomspace(x_min, 800.0, 2 * rows + 7)
        for kappa in (-1.5, -0.5, 1.5):
            batch = whittaker_w(kappa, mu, xs)
            for i in (0, rows - 1, rows, 2 * rows, xs.size - 1):
                single = np.atleast_1d(whittaker_w(kappa, mu, xs[i]))
                assert np.array_equal(batch[i:i + 1].view(np.uint64),
                                      single.view(np.uint64))


def test_whittaker_memory_bounded():
    # 10^5 values in (x, node) blocks of a fixed budget (16 MiB); all of
    # exp(-x u) at once would take about 570 MB (285 MB for real mu)
    for mu, x_min in ((1.1j, 1e-3), (0.7, _W_X_MIN_REAL)):
        xs = np.geomspace(x_min, 50.0, 100_000)
        tracemalloc.start()
        try:
            whittaker_w(-0.5, mu, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def test_whittaker_rejects_bad_x():
    for x in (-1.0, 0.0, math.nan, math.inf, [1.0, -2.0]):
        for mu in (0.8j, 0.25, 3.5, 1.0 + 0.5j):
            for fn in (whittaker_w, whittaker_m):
                with pytest.raises(ValueError, match="x must be"):
                    fn(1.0, mu, x)
            if np.ndim(x) == 0:
                with pytest.raises(ValueError, match="x must be"):
                    whittaker_ode_residual(1.0, mu, x)
                with pytest.raises(ValueError, match="x must be"):
                    mp_whittaker_ode_residual(1.0, mu, x, "w")


# -- archimedean factor -----------------------------------------------------


def test_gamma_w_reflection_and_positivity():
    for (t, k, sgn) in [(0.8, 2, 1), (1.3, 0, 1), (0.5, 2, -1), (2.0, 4, 1)]:
        gp, gm = gamma_w(t, k, sgn), gamma_w(-t, k, sgn)
        assert abs(gp - np.conjugate(gm)) < 1e-13 * abs(gp)
        prod = gp * gm
        assert prod.real > 0 and abs(prod.imag) < 1e-15 * prod.real
    with pytest.raises(ValueError):
        gamma_w(0.0, 2, 1)


def _expansion_error(k, n, t, ys):
    X = 4 * math.pi * abs(n) * ys
    exact = np.array([
        complex(whittaker_w(np.sign(n) * k / 2.0, 1j * t, float(x))) * x ** (-k / 2.0)
        for x in X
    ])
    return np.abs(exact - whittaker_asymptotic_smally(k, n, t, ys))


def test_smally_asymptotic_order_sharp_at_k2():
    """Remainder ~ y^((3-k)/2); at k = 2 the order is attained.

    The remainder oscillates in log y, so the fitted slope is checked with a
    generous window and the ratio err / y^(1/2) is required to stay bounded.
    """
    k, n, t = 2, 1, 0.8
    ys = np.logspace(-4.5, -1.5, 25)
    err = _expansion_error(k, n, t, ys)
    slope = np.polyfit(np.log(ys), np.log(err), 1)[0]
    assert 0.35 < slope < 0.75, slope
    assert np.max(err / ys ** 0.5) < 2.0


def test_smally_asymptotic_bound_at_k0():
    """At k = 0 the claimed O(y^(3/2)) bound holds with room to spare.

    The first correction term vanishes there (the confluent series with equal
    parameters is even), so the measured decay is strictly faster than the
    guaranteed order; only the bound is asserted.
    """
    k, n, t = 0, 1, 1.1
    ys = np.logspace(-4, -2, 9)
    err = _expansion_error(k, n, t, ys)
    assert np.max(err / ys ** 1.5) < 1.0
    slope = np.polyfit(np.log(ys), np.log(err), 1)[0]
    assert slope > 1.4, slope


def test_smally_asymptotic_rejects_bad_y():
    # the expansion has no value at y <= 0, and none to return for nan or inf
    for y in (-1.0, 0.0, math.nan, math.inf, [0.01, -0.02]):
        with pytest.raises(ValueError, match="^y must be finite and positive"):
            whittaker_asymptotic_smally(2, 1, 0.8, y)


# -- hankel -----------------------------------------------------------------


def adaptive_hankel(k: int, f0: RadialProfile, s, tol: float = 1e-11):
    """Oracle: adaptive quadrature split at the zeros of ``J_k`` inside the
    support, one ``quad`` call each for the real and imaginary parts."""
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    R = f0.support_radius
    out = np.empty(ss.size, dtype=complex)
    for i, sv in enumerate(ss):
        breaks: list[float] = []
        if sv * R > math.pi:
            zeros = sp.jn_zeros(k, int(sv * R / math.pi) + 2) / sv
            breaks = [z for z in zeros if 0.0 < z < R]

        def part(fn):
            return integrate.quad(
                fn, 0.0, R, points=breaks or None,
                limit=max(50, 10 * len(breaks) + 10),
                epsabs=tol, epsrel=0.0)[0]

        out[i] = (part(lambda r: (f0(r) * sp.jv(k, sv * r) * r).real)
                  + 1j * part(lambda r: (f0(r) * sp.jv(k, sv * r) * r).imag))
    return out


def gaussian_profile(k: int, radius: float = 6.0) -> RadialProfile:
    return RadialProfile(lambda r: r ** k * np.exp(-r * r), radius)


def _window(r, radius):
    s = np.asarray(r, float) / radius
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def _windowed_gaussian(r):
    r = np.asarray(r, float)
    return np.exp(-r * r) * _window(r, 2.4)


def _mean_zero_profile() -> RadialProfile:
    x, w = np.polynomial.legendre.leggauss(400)
    t = 1.5 * (x + 1.0)
    base_t = np.exp(-t * t) * _window(t, 3.0)
    c = np.sum(w * t * base_t) / np.sum(w * t ** 3 * base_t)

    def fn(r):
        r = np.asarray(r, float)
        return (1.0 - c * r * r) * np.exp(-r * r) * _window(r, 3.0)

    return RadialProfile(fn, 3.0)


def _ring(r):
    s = (np.asarray(r, float) - 1.1) / 0.9
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def _bump(r):
    r = np.asarray(r, float)
    return r * _window(r, 3.0)


@pytest.mark.parametrize("k, prof", [
    (0, RadialProfile(_windowed_gaussian, 2.4)),
    (0, _mean_zero_profile()),
    (2, RadialProfile(_ring, 2.0)),
    (1, RadialProfile(_ring, 2.0)),
    (1, RadialProfile(_bump, 3.0)),
    (0, RadialProfile(lambda r: np.ones_like(np.asarray(r, float)), 2.0)),
    (1, RadialProfile(lambda r: np.asarray(r, float), 2.0)),
    (2, RadialProfile(lambda r: np.asarray(r, float) ** 2, 2.0)),
    (1, RadialProfile(lambda r: _windowed_gaussian(r) * np.exp(1j * r), 2.4)),
], ids=["windowed_gaussian", "mean_zero", "ring_k2", "ring_k1", "bump",
        "edge_k0", "edge_k1", "edge_k2", "complex_k1"])
def test_hankel_matches_adaptive_oracle(k, prof):
    """Smooth profiles of the acceptance tests, ``r^k`` with a jump at its
    support edge, and a complex profile (a nonzero imaginary column), at
    101 frequencies up to ``s R = 150``."""
    ss = np.linspace(0.0, 150.0 / prof.support_radius, 101)
    got = hankel_transform(k, prof, ss)
    want = adaptive_hankel(k, prof, ss)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_hankel_rule_never_copies_its_bessel_block():
    # the np.outer argument plus the float64 Bessel block is two blocks of
    # the budget; a complex copy of the block would add two more
    prof = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), 6.5)
    tracemalloc.start()
    try:
        hankel_transform(0, prof, np.linspace(0.0, 400.0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * _BESSEL_BUDGET * 8


def test_hankel_interior_jump_raises():
    prof = RadialProfile(
        lambda r: np.where(np.asarray(r) < math.sqrt(2.0), 1.0, 0.5), 2.0)
    with pytest.raises(RuntimeError):
        hankel_transform(0, prof, np.array([0.5, 3.0]))


def test_hankel_shapes_and_order():
    prof = gaussian_profile(1, radius=3.0)
    ss = np.array([[7.0, 0.0, 2.5], [11.0, 0.3, 2.5]])
    got = hankel_transform(1, prof, ss)
    assert got.shape == (2, 3) and got.dtype == complex
    one_by_one = np.array([[hankel_transform(1, prof, float(s)) for s in row]
                           for row in ss])
    assert np.max(np.abs(got - one_by_one)) < 1e-14
    assert isinstance(hankel_transform(1, prof, 2.5), complex)
    assert isinstance(hankel_transform(1, prof, np.float64(2.5)), complex)
    assert isinstance(hankel_transform(1, prof, np.array(2.5)), complex)
    assert hankel_transform(1, prof, [0.5, 1.0]).shape == (2,)
    assert hankel_transform(1, prof, np.empty(0)).shape == (0,)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hankel_transform(1, prof, [1.0, bad])


def test_hankel_gaussian_closed_form():
    """H_k(r^k e^{-r^2})(s) = s^k / 2^(k+1) * exp(-s^2/4)."""
    for k in (0, 1, 2):
        prof = gaussian_profile(k)
        ss = np.array([0.1, 1.0, 4.0, 10.0, 20.0])
        got = hankel_transform(k, prof, ss)
        want = ss ** k / 2.0 ** (k + 1) * np.exp(-ss ** 2 / 4.0)
        assert np.max(np.abs(got - want)) < 1e-9


def test_hankel_involution_and_isometry():
    """H_k is an involutive isometry of L^2(R+, r dr)."""
    k = 1
    prof = RadialProfile(
        lambda r: r * (1 - (r / 3.0) ** 2) ** 3 * (r <= 3.0), 3.0)
    # isometry: int |H f|^2 s ds == int |f|^2 r dr  (truncate s-range)
    rs = np.linspace(0, 3.0, 2001)
    norm_f = np.trapezoid(np.abs(prof(rs)) ** 2 * rs, rs)
    ss = np.linspace(1e-6, 60.0, 1201)
    hf = hankel_transform(k, prof, ss)
    norm_hf = np.trapezoid(np.abs(hf) ** 2 * ss, ss)
    assert abs(norm_hf - norm_f) < 2e-5 * norm_f
    # involution: transform back on an effective support
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(ss, hf.real)
    prof_h = RadialProfile(lambda s: spline(np.clip(s, ss[0], ss[-1])), 60.0)
    rs_chk = np.array([0.4, 1.0, 1.7, 2.5])
    back = hankel_transform(k, prof_h, rs_chk, tol=1e-9)
    assert np.max(np.abs(back - prof(rs_chk))) < 1e-4
    # the adaptive oracle misses its own tolerance on this spline, so the
    # doubling estimate is checked against a much finer run of the rule
    reference = _hankel_rule(k, prof_h, rs_chk, 1 << 13)
    assert np.max(np.abs(back - reference)) <= 1e-9


def test_substitutions_invert():
    h = lambda y: np.exp(-((np.log(np.asarray(y)) - 0.2) ** 2))
    for j in (1, 2, 3):
        t_h = t_transform(j, h)
        back = s_transform(j, t_h)
        rs = np.array([0.5, 1.0, 2.0, 5.0])
        assert np.max(np.abs(back(rs) - h(rs))) < 1e-14
    with pytest.raises(ValueError):
        t_transform(0, h)


@given(n_grid=st.integers(2, 600), rho_max=st.floats(0.5, 8.0),
       start=st.sampled_from([0.0, -0.75, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_grid=2, rho_max=1.0, start=0.0, seed=1)
@example(n_grid=3, rho_max=2.5, start=-0.75, seed=2)   # the parabola
@example(n_grid=4, rho_max=4.0, start=0.3, seed=3)
def test_uniform_spline_matches_scipy_bitwise(n_grid, rho_max, start, seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(start, start + rho_max, n_grid)
    r = np.concatenate([
        rng.uniform(start - 1.0, start + rho_max + 1.0, 20_000),
        grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
        [start + rho_max, start - 1e-300, -0.0, -3.0]])
    # a falling cubic through -0.0: scipy's sum starts at +0.0, so its value
    # at that breakpoint is +0.0
    t = grid - grid[n_grid // 2]
    for values in (np.cos(3.0 * grid) + rng.normal(size=n_grid),
                   -(t + t * t + t ** 3)):
        got = _uniform_spline(grid, values)(r)
        want = CubicSpline(grid, values)(r)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_radial_profile_keeps_real_values_real():
    real = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), 2.0)
    cplx = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2) + 0j, 2.0)
    ints = RadialProfile(lambda r: np.ones(np.shape(r), dtype=int), 2.0)
    r = np.linspace(0.0, 3.0, 7)
    assert real(r).dtype == np.float64 and ints(r).dtype == np.float64
    assert cplx(r).dtype == np.complex128
    assert np.array_equal(real(r), cplx(r).real) and real(3.0) == 0.0


def test_radial_profile_truncates():
    prof = gaussian_profile(0, radius=2.0)
    assert prof(3.0) == 0.0
    assert prof(1.0) != 0.0

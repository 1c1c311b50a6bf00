"""Acceptance suite: the eleven headline claims, one test (and one
printed summary line) per claim.

Each test pins the tolerances stated for the claim it verifies; the
numbering matches the acceptance checklist in the README.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from strata.enveloping import (
    casimir_saff,
    casimir_sl2,
    euclidean_fol_identity_op,
    euclidean_rep,
    is_central,
    symmetrize,
)
from strata.fourier import QuadratureSpec, coeff_H0, coeff_H0_table
from strata.operators import fit_lambda, total
from strata.saff import (
    VOLUME_SL2,
    ModularFunction,
    inner_product,
    sample_masur_veech,
)
from strata.series import beta_bump, beta_norm_sq, eisenstein, poincare
from strata.special import (
    RadialProfile,
    hankel_transform,
    whittaker_asymptotic_smally,
    whittaker_ode_residual,
    whittaker_w,
)
from strata.spectral import (
    build_mode_operator,
    eigen_solve,
    epsilon_sweep,
    refinement_deltas,
    window_count,
)
from strata.sv import (
    FundamentalBump,
    PlaneFunction,
    k_type_function,
    plane_integral,
    plane_l2_norm_sq,
    sv_adjoint_of_bump,
    sv_coefficient_prediction,
    sv_mean_mc,
    sv_rel_modular,
    sv_rel_values,
    sv_second_moment_exact_fibre,
    sv_second_moment_mc,
)

from oracles import mp_whittaker_ode_residual


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def _window(r, radius):
    s = np.asarray(r, float) / radius
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def _windowed_gaussian(radius=2.4):
    def fn(r):
        r = np.asarray(r, float)
        return np.exp(-(r ** 2)) * _window(r, radius)
    return RadialProfile(fn, radius)


def _ring():
    def fn(r):
        s = (np.asarray(r, float) - 1.1) / 0.9
        out = np.zeros_like(s)
        m = np.abs(s) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
        return out
    return RadialProfile(fn, 2.0)


def _gauss_plane(radius=2.5):
    def fn(z):
        return np.exp(-np.abs(np.asarray(z, complex)) ** 2)
    return PlaneFunction(fn, radius)


def _plane_of(profile):
    return PlaneFunction(
        lambda z: np.real(np.asarray(profile(np.abs(np.asarray(z, complex))))),
        profile.support_radius)


def _mean_zero_profile(radius=3.0):
    def base(r):
        r = np.asarray(r, float)
        return np.exp(-(r ** 2)) * _window(r, radius)
    num = quad(lambda r: float(base(np.array([r]))[0]) * r, 0, radius,
               limit=200)[0]
    den = quad(lambda r: float(base(np.array([r]))[0]) * r ** 3, 0, radius,
               limit=200)[0]
    c = num / den
    return RadialProfile(
        lambda r: (1.0 - c * np.asarray(r, float) ** 2) * base(r), radius)


# ---------------------------------------------------------------------------


def test_a01_exact_centrality():
    """The degree-three invariant is central, the degree-two one is not,
    and the symmetrized leading term is exactly six times the invariant;
    all exact arithmetic, under one second."""
    start = time.perf_counter()
    cp = casimir_saff()
    central = is_central(cp)
    not_central = not is_central(casimir_sl2())
    six = symmetrize(cp) == cp.scale(6)
    elapsed = time.perf_counter() - start
    ok = central and not_central and six and elapsed < 1.0
    _line(1, ok, f"exact checks in {elapsed:.3f}s")
    assert central
    assert not_central
    assert six
    assert elapsed < 1.0


def test_a02_euclidean_casimirs():
    """The plane image of twice the degree-three invariant annihilates all
    polynomials of degree at most four; the scaled degree-two image equals
    the closed Euler-operator expression. Both exact."""
    rep3 = euclidean_rep(casimir_saff().scale(2))
    annihilated = all(
        not rep3.apply_monomial(a, b)
        for a in range(5) for b in range(5) if a + b <= 4)
    euler = euclidean_rep(casimir_sl2().scale(8)) == euclidean_fol_identity_op()
    _line(2, annihilated and euler, "exact operator identities")
    assert annihilated
    assert euler


def test_a03_total_casimir_eigenvalue():
    """The assembled third-order operator multiplies each fibre character
    by 4 pi^3 n m^2, relative error under 1e-5, in seconds."""
    start = time.perf_counter()
    pts = (0.2, 1.3, 0.3, 0.5)
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (1, -3)]:
        def fn(x, y, u, v, n=n, m=m):
            return np.exp(2j * math.pi * (n * np.asarray(x, float)
                                          + m * np.asarray(v, float)
                                          / np.asarray(y, float)))
        ch = ModularFunction(fn, weight=0)
        got = -total(ch).fn(*pts) / ch.fn(*pts)
        want = 4.0 * math.pi ** 3 * n * m ** 2
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _line(3, ok, f"worst rel {worst:.2e} in {elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_a04_transform_mean():
    """Monte Carlo mean of the M-relative transform equals M^2 times the
    plane integral within 3 sigma, with sigma/mean below 1%, for
    M in {1,2,3} at one million samples, under two minutes."""
    start = time.perf_counter()
    f = _gauss_plane(2.5)
    mass = math.pi * (1.0 - math.exp(-2.5 ** 2))
    worst_sigma = 0.0
    worst_ratio = 0.0
    for M in (1, 2, 3):
        est, err = sv_mean_mc(f, M, n_samples=1_000_000, seed=101 + M)
        want = M * M * mass
        worst_sigma = max(worst_sigma, abs(est - want) / err)
        worst_ratio = max(worst_ratio, err / want)
        assert abs(est - want) <= 3.0 * err
        assert err < 0.01 * want
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 3.0 and worst_ratio < 0.01 and elapsed < 120.0
    _line(4, ok, f"worst {worst_sigma:.2f} sigma, sigma/mean "
                 f"{worst_ratio:.5f}, {elapsed:.0f}s")
    assert elapsed < 120.0


def test_a05_second_moment_and_isometry():
    """Second moment matches M^4 (int f)^2 + M^2 int f^2 within 3 sigma
    (plain and exact-fibre estimators); for mean-zero f the transform is
    M times an isometry within 1% relative."""
    f = _gauss_plane(2.5)
    mass = math.pi * (1.0 - math.exp(-2.5 ** 2))
    l2 = math.pi / 2.0 * (1.0 - math.exp(-12.5))
    est, err = sv_second_moment_mc(f, 1, n_samples=400_000, seed=55,
                                   y_max=1e4)
    dev_naive = abs(est - (mass ** 2 + l2)) / err
    assert dev_naive <= 3.0

    g0 = _windowed_gaussian(2.4)
    fg = _plane_of(g0)
    gm = float(plane_integral(fg).real)
    gl2 = float(plane_l2_norm_sq(fg))
    devs = []
    for M, seed in ((1, 38), (2, 39)):
        want = M ** 4 * gm ** 2 + M * M * gl2
        est, err = sv_second_moment_exact_fibre(
            g0, M, n_samples=400_000, seed=seed, y_max=1e6)
        devs.append(abs(est - want) / err)
        assert devs[-1] <= 3.0

    mz = _mean_zero_profile()
    zl2 = float(plane_l2_norm_sq(_plane_of(mz)))
    rels = []
    for M, n in ((1, 2_000_000), (2, 4_000_000)):
        want = M * M * zl2
        est, _ = sv_second_moment_exact_fibre(mz, M, n_samples=n, seed=41,
                                              y_max=1e8)
        rels.append(abs(est - want) / want)
        assert rels[-1] < 0.01
    _line(5, True, f"moments {dev_naive:.2f}/{max(devs):.2f} sigma, "
                   f"isometry rel {max(rels):.4f}")


def test_a06_coefficient_formula():
    """Fibre coefficients of the M-relative transform match the
    Hankel-transform prediction to 1e-6 relative on a 16-point height
    grid, and every coefficient off the transform's frequency support
    stays below 1e-8."""
    ys = np.linspace(2.5, 6.0, 16)
    spec = QuadratureSpec(8, 32, 128)
    cases = [
        (0, 1, 1, _windowed_gaussian()),
        (2, 2, 1, _ring()),
        (1, 1, 2, _ring()),
    ]
    worst = 0.0
    for k, M, m, f0 in cases:
        phi = sv_rel_modular(k_type_function(f0, k), M)
        pred = sv_coefficient_prediction(f0, k, M, m, ys)
        for y, p in zip(ys, pred):
            meas = coeff_H0(phi, 0, m * M, float(y), spec)
            worst = max(worst, abs(meas - p) / abs(p))
            assert abs(meas - p) < 1e-6 * abs(p), (k, M, m, y)

    vspec = QuadratureSpec(8, 32, 256)
    phi = sv_rel_modular(k_type_function(_ring(), 2), 2)
    table = coeff_H0_table(phi, 3.4, vspec)
    allowed = np.zeros_like(table, dtype=bool)
    for mt in range(-vspec.nv // 2 + 1, vspec.nv // 2):
        if mt % 2 == 0:
            allowed[0, mt % vspec.nv] = True
    floor = float(np.max(np.abs(table[~allowed])))
    ok = worst < 1e-6 and floor < 1e-8
    _line(6, ok, f"worst rel {worst:.2e}, vanishing floor {floor:.2e}")
    assert floor < 1e-8


def test_a07_series_coefficients_and_norms():
    """Both series have reduced coefficient 2^(-1/2) beta(y) exactly at
    their predicted frequencies (quadrature tolerance 1e-8), and the
    Monte Carlo norm matches the one-dimensional profile integral within
    3 sigma."""
    beta = beta_bump(0.8, 1.6)
    y0 = 1.4
    want = float(beta(y0).real) / math.sqrt(2.0)
    spec = QuadratureSpec(nx=32, nu=8, nv=32)
    E = eisenstein(2, 1, beta, radius=6)
    P = poincare(2, 1, 1, beta, radius=6)
    table_e = coeff_H0_table(E, y0, spec)
    table_p = coeff_H0_table(P, y0, spec)
    dev_coeff = max(
        abs(table_e[0, 1] - want), abs(table_e[0, -1] - want),
        abs(table_p[1, 1] - want), abs(table_p[1, -1] - want))
    assert dev_coeff < 1e-8
    off = max(abs(table_e[2, 1]), abs(table_e[0, 0]), abs(table_p[0, 1]),
              abs(table_p[1, 2]))
    assert off < 1e-8

    want_norm = beta_norm_sq(beta, 2, 0.7, 1.7)
    sig = []
    for phi in (E, P):
        est, err = inner_product(phi, phi, n_samples=120_000, seed=11)
        sig.append(abs(est - want_norm) / err)
        assert sig[-1] <= 3.0
    _line(7, True, f"coeff dev {dev_coeff:.1e}, norms "
                   f"{sig[0]:.2f}/{sig[1]:.2f} sigma")


def test_a08_whittaker_layer():
    """Whittaker values satisfy the ODE to 1e-6; the small-argument
    expansion error scales like y^((3-k)/2); the Hankel transform is an
    involutive isometry to 1e-5."""
    # the library's W (its float64 rule at all four points) and, as a
    # reference, mpmath's W and M
    worst_ode = worst_mp = 0.0
    for (kappa, mu, x) in [(1.0, 0.8j, 2.0), (0.5, 1.3j, 0.7),
                           (1.0, 0.25, 9.0), (-1.5, 1.1j, 4.0)]:
        worst_ode = max(worst_ode, whittaker_ode_residual(kappa, mu, x))
        worst_mp = max(worst_mp,
                       mp_whittaker_ode_residual(kappa, mu, x, "w"),
                       mp_whittaker_ode_residual(kappa, mu, x, "m"))
    assert worst_ode < 1e-6
    assert worst_mp < 1e-6

    k, n, t = 2, 1, 0.8
    ys = np.logspace(-4.5, -1.5, 25)
    X = 4 * math.pi * abs(n) * ys
    exact = np.array([
        complex(whittaker_w(np.sign(n) * k / 2.0, 1j * t, float(x)))
        * x ** (-k / 2.0) for x in X])
    err = np.abs(exact - whittaker_asymptotic_smally(k, n, t, ys))
    slope = np.polyfit(np.log(ys), np.log(err), 1)[0]
    assert 0.35 < slope < 0.75
    assert np.max(err / ys ** 0.5) < 2.0

    def bump(r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = r < 3.0
        out[m] = r[m] * _window(r[m], 3.0)
        return out
    prof = RadialProfile(bump, 3.0)
    rs = np.linspace(0, 3.0, 4001)
    norm_f = np.trapezoid(np.abs(prof(rs)) ** 2 * rs, rs)
    ss = np.linspace(1e-6, 56.0, 2241)
    hf = hankel_transform(1, prof, ss)
    norm_hf = np.trapezoid(np.abs(hf) ** 2 * ss, ss)
    iso = abs(norm_hf - norm_f) / norm_f
    assert iso < 1e-5
    spline = CubicSpline(ss, hf.real)
    prof_h = RadialProfile(lambda s: spline(np.clip(s, ss[0], ss[-1])), 56.0)
    rs_chk = np.array([0.4, 1.0, 1.7, 2.5])
    back = hankel_transform(1, prof_h, rs_chk, tol=1e-10)
    inv = float(np.max(np.abs(back - prof(rs_chk)))
                / np.max(np.abs(prof(rs_chk))))
    assert inv < 1e-5
    _line(8, True, f"ODE {worst_ode:.1e} (mpmath {worst_mp:.1e}), "
                   f"slope {slope:.2f}, "
                   f"iso {iso:.1e}, inv {inv:.1e}")


def test_a09_eigenfunction_fits():
    """Rayleigh fits return t^2 + 1/4 on zero-frequency power profiles to
    1e-6, and a single grid-independent constant on the exponential and
    Whittaker bound profiles."""
    worst = 0.0
    for t in (0.7, 1.3):
        def beta(y, t=t):
            return np.asarray(y, complex) ** (0.5 + 1j * t)
        for grid in (np.linspace(0.5, 2.0, 40), np.geomspace(0.3, 5.0, 60)):
            lam = fit_lambda(beta, 0, 0, grid)
            worst = max(worst, abs(lam - (t * t + 0.25)))
    assert worst < 1e-6

    def exp_beta(y):
        return np.exp(-2.0 * math.pi * np.asarray(y, float))
    grids = (np.linspace(0.4, 2.5, 50), np.geomspace(0.2, 4.0, 64))
    exp_fits = [fit_lambda(exp_beta, 2, 1, g) for g in grids]
    assert abs(exp_fits[0] - exp_fits[1]) < 1e-6
    assert abs(exp_fits[0]) < 1e-6  # the fitted constant itself

    t = 1.3

    def whit_beta(y):
        y = np.asarray(y, float)
        return np.asarray(whittaker_w(1.0, 1j * t, 4.0 * math.pi * y),
                          complex) / y
    grids = (np.linspace(0.4, 2.5, 30), np.geomspace(0.3, 3.0, 40))
    whit_fits = [fit_lambda(whit_beta, 2, 1, g) for g in grids]
    assert abs(whit_fits[0] - whit_fits[1]) < 1e-6
    assert abs(whit_fits[0] - (t * t + 0.25)) < 1e-6
    _line(9, True, f"power dev {worst:.1e}, constants "
                   f"{exp_fits[0]:.2e} / {whit_fits[0]:.6f}")


def test_a10_compound_spectrum():
    """Mode-operator eigenvalues at (k,n,m)=(0,1,1): grid-stable under
    refinement (< 0.5%), strictly increasing in eps over {0.01,0.1,1},
    with fixed-window counts growing as eps decreases."""
    worst_delta = 0.0
    for eps in (0.01, 0.1, 1.0):
        _, deltas = refinement_deltas(0, 1, 1, eps, count=10)
        worst_delta = max(worst_delta, float(np.max(deltas)))
    assert worst_delta < 0.005

    tab = epsilon_sweep(0, 1, 1, [1.0, 0.1, 0.01], count=40)
    assert np.all(tab[0] > tab[1])
    assert np.all(tab[1] > tab[2])
    growth = []
    for lo, hi in ((5.0, 40.0), (30.0, 80.0)):
        counts = [window_count(row, lo, hi) for row in tab]
        growth.append(counts)
        assert counts[0] < counts[1] < counts[2]
    assert np.all(tab[:, -1] > 80.0)
    _line(10, True, f"refine {worst_delta:.2e}, windows {growth}")


def test_a11_adjoint_duality():
    """The moduli-space pairing of the transform against a bump equals the
    plane pairing of f against the adjoint within combined 3 sigma."""
    R = 2.5
    f = _gauss_plane(R)
    hb = FundamentalBump()
    n = 1_000_000
    s = sample_masur_veech(n, seed=91, y_max=1e3)
    prod = (sv_rel_values(f, s.x, s.y, s.u, s.v, 1)
            * hb.formula(s.x, s.y, s.p, s.q)).real
    nb = 100
    batches = prod[: (n // nb) * nb].reshape(nb, -1).mean(axis=1)
    lhs = VOLUME_SL2 * batches.mean()
    lhs_err = VOLUME_SL2 * math.sqrt(batches.var(ddof=1) / nb)

    nodes, weights = np.polynomial.legendre.leggauss(24)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * weights * r
    nth = 8
    theta = 2.0 * math.pi * np.arange(nth) / nth
    rows = np.stack(
        [np.repeat(r, nth) * np.cos(np.tile(theta, r.size)),
         np.repeat(r, nth) * np.sin(np.tile(theta, r.size))], axis=1)
    vals, errs = sv_adjoint_of_bump(hb, rows, n_samples=40_000, seed=17)
    wfull = (np.repeat(wr, nth) * (2.0 * math.pi / nth)
             * np.exp(-np.repeat(r, nth) ** 2))
    rhs = float(np.sum(wfull * vals.real))
    rhs_err = float(np.sum(np.abs(wfull) * errs))

    dev = abs(lhs - rhs)
    ok = dev <= 3.0 * (lhs_err + rhs_err)
    _line(11, ok, f"dev {dev:.2e} vs 3(sig1+sig2) "
                  f"{3.0 * (lhs_err + rhs_err):.2e}")
    assert dev <= 3.0 * (lhs_err + rhs_err)

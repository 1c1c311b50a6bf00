"""Tests for the transforms summing plane functions over torus configurations."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from strata.enveloping import casimir_saff, casimir_sl2, euclidean_rep
from strata.fourier import QuadratureSpec, coeff_H0, coeff_H0_table
from strata.saff import (
    VOLUME_SL2,
    IwasawaCoords,
    JacobiPoint,
    _act_arrays,
    _disc_points,
    _disc_rows,
    _runs,
    element_from_iwasawa,
    element_to_point,
    reduce_to_fundamental,
    ModularFunction,
    SAffElement,
    SL2Element,
    inner_product,
    sample_masur_veech,
    slash,
)
from strata.series import (BetaProfile, beta_bump, beta_discrete,
                           eisenstein, poincare)
from strata.special import RadialProfile, _as_values
from strata.sv import (
    FundamentalBump,
    _stabilizer_cosets,
    MarkedTorus,
    PlaneFunction,
    apply_euclidean,
    config_abs,
    config_rel_M,
    dual_norm_sum_values,
    k_type_function,
    plane_integral,
    plane_l2_norm_sq,
    radial_fourier,
    sv_abs_value,
    sv_adjoint,
    sv_adjoint_of_bump,
    sv_coefficient_prediction,
    sv_commutation_residuals,
    sv_mean_mc,
    sv_rel_invariant,
    sv_rel_modular,
    sv_rel_value,
    sv_rel_values,
    sv_second_moment_exact_fibre,
    sv_second_moment_mc,
)

from oracles import ktype_eisenstein

S_ELT = SAffElement.from_sl2(SL2Element(0.0, -1.0, 1.0, 0.0))
T_ELT = SAffElement.from_sl2(SL2Element(1.0, 1.0, 0.0, 1.0))

_PTS = [
    JacobiPoint(0.13, 1.1, 0.3, 0.25),
    JacobiPoint(-0.2, 0.8, 0.1, -0.4),
    JacobiPoint(0.31, 1.45, -0.22, 0.15),
]


def _window(r, radius):
    """C-infinity cutoff equal to 1 at 0, vanishing to all orders at radius."""
    s = np.asarray(r, float) / radius
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


@functools.cache
def _gauss_profile(radius=2.4):
    """Windowed Gaussian, smooth across the support edge."""

    def fn(r):
        r = np.asarray(r, float)
        return np.exp(-(r ** 2)) * _window(r, radius)

    return RadialProfile(fn, radius)


@functools.cache
def _ring_profile():
    """Bump supported on the annulus 0.2 <= r <= 2, vanishing near 0.

    K-type functions built on it are smooth at the origin, which keeps the
    fibre Fourier tails decaying fast.
    """

    def fn(r):
        s = (np.asarray(r, float) - 1.1) / 0.9
        out = np.zeros_like(s)
        m = np.abs(s) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
        return out

    return RadialProfile(fn, 2.0)


def _gauss_plane(radius=2.5):
    """Hard-truncated Gaussian: fine for plain lattice sums and moments."""

    def fn(z):
        return np.exp(-np.abs(np.asarray(z, complex)) ** 2)

    return PlaneFunction(fn, radius)


@functools.cache
def _mean_zero_profile(radius=3.0):
    """Radial, mean-zero, smooth: (1 - c r^2) times a windowed Gaussian.

    The moment identities on the coordinate section require radial test
    functions (the section drops the frame angle), so mean-zero inputs are
    built by a sign change in the radial profile rather than an angular
    factor.
    """

    def base(r):
        r = np.asarray(r, float)
        return np.exp(-(r ** 2)) * _window(r, radius)

    num = quad(lambda r: float(base(np.array([r]))[0]) * r, 0, radius,
               limit=200)[0]
    den = quad(lambda r: float(base(np.array([r]))[0]) * r ** 3, 0, radius,
               limit=200)[0]
    c = num / den

    def fn(r):
        r = np.asarray(r, float)
        return (1.0 - c * r * r) * base(r)

    return RadialProfile(fn, radius)


def _plane_of(profile):
    return PlaneFunction(
        lambda z: np.real(np.asarray(profile(np.abs(np.asarray(z, complex))))),
        profile.support_radius)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def test_config_square_lattice():
    t = MarkedTorus.from_point(JacobiPoint(0.0, 1.0, 0.0, 0.0))
    assert abs(t.covolume() - 1.0) < 1e-12
    w = config_rel_M(t, 1, 1.5)
    assert w.size == 9
    got = {(round(z.real, 9), round(z.imag, 9)) for z in w}
    want = {(float(b), float(a)) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert got == want


def test_config_count_scaling():
    t = MarkedTorus.from_point(JacobiPoint(0.3, 1.7, 0.21, 0.37))
    R = 8.0
    for M in (1, 2, 3):
        count = config_rel_M(t, M, R).size
        target = M * M * math.pi * R * R
        assert abs(count - target) < 0.05 * target


def test_config_equivariance():
    t = MarkedTorus.from_point(JacobiPoint(0.2, 1.3, 0.4, -0.1))
    g = SL2Element(2.0, 1.0, 1.0, 1.0)
    R = 3.0
    got = config_rel_M(t.acted(g), 2, R)
    # map the untransformed configuration forward and refilter to the ball;
    # 2.7 bounds the operator norm of the inverse matrix
    big = config_rel_M(t, 2, R * 2.7)
    mapped = np.array([complex(w.real * g.a + w.imag * g.c,
                               w.real * g.b + w.imag * g.d) for w in big])
    mapped = mapped[np.abs(mapped) <= R]
    assert got.size == mapped.size
    order = np.lexsort((mapped.imag.round(9), mapped.real.round(9)))
    assert np.max(np.abs(got - mapped[order])) < 1e-9


def _brute_config(t, z, M, R, primitive):
    """Every lattice translate in a box sized from the inverse basis."""
    binv = np.linalg.inv(np.array([[t.b1.real, t.b1.imag],
                                   [t.b2.real, t.b2.imag]]))
    n = int(math.ceil(M * (R + abs(z)) * np.abs(binv).sum())) + 2
    aa, bb = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1),
                         indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    if primitive:
        keep = np.gcd(aa, bb) == 1
        aa, bb = aa[keep], bb[keep]
        w = aa * t.b1 + bb * t.b2
    else:
        w = z + (aa * t.b1 + bb * t.b2) / M
    w = w[np.abs(w) <= R]
    return w[np.lexsort((w.imag.round(12), w.real.round(12)))]


def test_config_matches_brute_force():
    rng = np.random.default_rng(8)
    tori = [MarkedTorus(1j, 1.0, 0.0), MarkedTorus(1.0, 1j, 0.0)]
    for _ in range(12):
        t = MarkedTorus.from_point(JacobiPoint(
            rng.uniform(-0.5, 0.5), math.exp(rng.uniform(-1.0, 2.0)),
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        th = rng.uniform(0.0, 2.0 * math.pi)
        a, b, c = rng.uniform(0.5, 2.0), *rng.uniform(-1.0, 1.0, 2)
        tori += [t,
                 t.acted(SL2Element(math.cos(th), math.sin(th),
                                    -math.sin(th), math.cos(th))),
                 t.acted(SL2Element(a, b, c, (1.0 + b * c) / a)),
                 MarkedTorus(t.b2, t.b1, t.z)]  # negatively oriented
    for i, t in enumerate(tori):
        M = 1 + i % 3
        # radius 1 puts points of the square lattice on the boundary
        R = 1.0 if i < 2 else rng.uniform(0.5, 3.0)
        assert np.array_equal(config_rel_M(t, M, R),
                              _brute_config(t, t.z, M, R, False))
        assert np.array_equal(config_abs(t, R),
                              _brute_config(t, 0.0, 1, R, True))
    assert config_abs(tori[0], 1.0).size == 4


def test_config_requires_positive_M():
    t = MarkedTorus.from_point(JacobiPoint(0.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        config_rel_M(t, 0, 1.0)
    with pytest.raises(ValueError):
        sv_rel_values(_gauss_plane(), 0.0, 1.0, 0.0, 0.0, 0)


_M_CALLERS = {
    "sv_rel_values": lambda M: sv_rel_values(
        _gauss_plane(), 0.1, 1.3, 0.2, 0.3, M),
    "dual_norm_sum_values": lambda M: dual_norm_sum_values(
        _gauss_profile(), [0.1], [1.3], M),
    "sv_second_moment_exact_fibre": lambda M: sv_second_moment_exact_fibre(
        _gauss_profile(), M, n_samples=200, n_batches=10),
    "sv_coefficient_prediction": lambda M: sv_coefficient_prediction(
        _gauss_profile(), 0, M, 1, [2.0]),
    "sv_mean_mc": lambda M: sv_mean_mc(
        _gauss_plane(), M, n_samples=200, n_batches=10),
    "sv_second_moment_mc": lambda M: sv_second_moment_mc(
        _gauss_plane(), M, n_samples=200, n_batches=10),
    "sv_rel_modular": lambda M: sv_rel_modular(_gauss_plane(), M),
    "sv_rel_invariant": lambda M: sv_rel_invariant(_gauss_plane(), M),
    "config_rel_M": lambda M: config_rel_M(
        MarkedTorus.from_point(JacobiPoint(0.1, 1.3, 0.2, 0.3)), M, 1.0),
}


@pytest.mark.parametrize("caller", sorted(_M_CALLERS))
def test_M_must_be_positive_integer(caller):
    # M indexes the 1/M-refined lattice: only integers >= 1 have a meaning
    call = _M_CALLERS[caller]
    for M in (0, -1, 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="^M must be a positive integer"):
            call(M)
    call(np.int64(2))


@pytest.mark.parametrize("pt, name", [
    (JacobiPoint(0.3, math.nan, 0.1, 0.2), "y"),
    (JacobiPoint(0.3, -1.0, 0.1, 0.2), "y"),
    (JacobiPoint(math.inf, 1.0, 0.1, 0.2), "x"),
    (JacobiPoint(0.3, 0.0, 0.1, 0.2), "y"),
    (JacobiPoint(0.3, math.inf, 0.1, 0.2), "y"),
    (JacobiPoint(0.3, 1.0, math.nan, 0.2), "u"),
    (JacobiPoint(0.3, 1.0, 0.1, -math.inf), "v"),
])
def test_sv_rel_rejects_invalid_points(pt, name):
    # one input contract for every point-array evaluator: the relative and
    # absolute transforms, the dual-lattice sum (which reads only x and y)
    # and the coset series
    for evaluate in (lambda f: sv_rel_value(f, pt, 1),
                     lambda f: sv_abs_value(f, pt)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            evaluate(_gauss_plane())
    ok = np.ones(3)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        eisenstein(2, 1, beta_bump(0.8, 1.6)).fn(
            ok * pt.x, ok * pt.y, pt.u, ok * pt.v)
    if name in "xy":
        h = RadialProfile(lambda r: np.exp(-r ** 2), 4.0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            dual_norm_sum_values(h, [0.1, pt.x], [1.0, pt.y], 1)


# ---------------------------------------------------------------------------
# relative transform values
# ---------------------------------------------------------------------------


def test_sv_rel_matches_enumeration():
    def fn(z):
        z = np.asarray(z, complex)
        return (np.exp(-np.abs(z) ** 2) * (1.0 + 0.3 * z.real)
                + 0.2j * z.imag * np.exp(-2.0 * np.abs(z) ** 2))

    f = PlaneFunction(fn, 2.3)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1.5, 1.5, 6)
    ys = np.exp(rng.uniform(math.log(0.3), math.log(4.0), 6))
    us = rng.uniform(-1.0, 1.0, 6)
    vs = rng.uniform(-1.0, 1.0, 6)
    for M in (1, 2, 3):
        vals = sv_rel_values(f, xs, ys, us, vs, M)
        for i in range(6):
            t = MarkedTorus.from_point(
                JacobiPoint(xs[i], ys[i], us[i], vs[i]))
            want = np.sum(f(config_rel_M(t, M, f.support_radius)))
            assert abs(vals[i] - want) <= 1e-12 * max(1.0, abs(want))


def test_lattice_sums_batch_equals_single():
    # heights up to 1e8 put single samples far over the point budget
    rng = np.random.default_rng(21)
    n = 40
    ys = rng.permutation(np.geomspace(0.9, 1e8, n))
    xs = rng.uniform(-0.5, 0.5, n)
    us = rng.uniform(-1.0, 1.0, n)
    vs = rng.uniform(-1.0, 1.0, n) * ys
    f = _gauss_plane()
    for M in (1, 2):
        batch = sv_rel_values(f, xs, ys, us, vs, M)
        single = [sv_rel_values(f, xs[i], ys[i], us[i], vs[i], M)
                  for i in range(n)]
        assert np.array_equal(batch, single)
    h = RadialProfile(lambda r: np.exp(-np.asarray(r, float) ** 2), 4.0)
    for M in (1, 2):
        batch = dual_norm_sum_values(h, xs, ys, M)
        single = [dual_norm_sum_values(h, xs[i], ys[i], M)[0]
                  for i in range(n)]
        assert np.array_equal(batch, single)


def _jump_profile():
    """Real profile with a jump of 2.7 at its support edge."""
    return RadialProfile(lambda r: 1.0 + np.asarray(r, float), 1.7)


_REAL_PROFILES = {
    "gauss": lambda: RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2),
                                   2.5),
    "ring": _ring_profile,
    "jump": _jump_profile,
}


@given(profile=st.sampled_from(sorted(_REAL_PROFILES)),
       M=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       y_max=st.sampled_from([10.0, 1e3, 1e5]))
def test_real_profiles_sum_in_float(profile, M, seed, y_max):
    # a real f sums in float64 with one bincount; its complex twin sums
    # both parts; the two must agree bit for bit, imaginary part +0.0
    f0 = _REAL_PROFILES[profile]()
    R = f0.support_radius
    f = k_type_function(f0, 0)
    twin = PlaneFunction(lambda z: f0(np.abs(z)).astype(complex), R)
    s = sample_masur_veech(150, seed, y_max=y_max)
    # plus points whose marked period sits on the support edge
    x = np.concatenate([s.x, [0.0, 0.3, -0.4]])
    y = np.concatenate([s.y, [1.0, 1.0, 4.0]])
    u = np.concatenate([s.u, [R, 0.0, R * 2.0]])
    v = np.concatenate([s.v, [0.0, R, 0.0]])
    zeta = (u + 1j * v) / np.sqrt(y)
    assert f(zeta).dtype == np.float64 and twin(zeta).dtype == np.complex128
    got = sv_rel_values(f, x, y, u, v, M)
    want = sv_rel_values(twin, x, y, u, v, M)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(got.imag.view(np.uint64) == 0)


def test_dual_norm_sum_memory_bounded():
    # each sample enumerates ~8e4 points; the work is cut into runs by a
    # point budget, so the peak does not grow with the batch
    h = RadialProfile(lambda r: np.exp(-np.asarray(r, float) ** 2), 4.0)
    xs = np.linspace(-0.5, 0.5, 64)
    tracemalloc.start()
    try:
        dual_norm_sum_values(h, xs, np.full(64, 1e8), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_sv_single_term_and_empty():
    f = PlaneFunction(lambda z: np.ones_like(np.asarray(z, complex)), 0.2)
    # only the marked period itself lands in the small support
    assert abs(sv_rel_value(f, JacobiPoint(0.0, 1.0, 0.05, 0.05), 1)
               - 1.0) < 1e-12
    # no configuration point within the support at all
    assert sv_rel_value(f, JacobiPoint(0.0, 1.0, 0.5, 0.5), 1) == 0.0


def test_sv_invariance_k0_random_pairs():
    f = k_type_function(_ring_profile(), 0)
    M = 2
    rng = np.random.default_rng(23)
    n = 1000
    xs = rng.uniform(-2.0, 2.0, n)
    ys = np.exp(rng.uniform(math.log(0.4), math.log(5.0), n))
    us = rng.uniform(-1.5, 1.5, n)
    vs = rng.uniform(-1.5, 1.5, n)
    base = sv_rel_values(f, xs, ys, us, vs, M)
    # rows (a, b, c, d, w1, w2) of the letters S, T, T^-1 and of the
    # identity, which pads every word to four letters
    table = np.array([(g.g.a, g.g.b, g.g.c, g.g.d, *g.w) for g in (
        S_ELT, T_ELT, T_ELT.inverse(), SAffElement.identity())])
    shifts = np.empty((n, 2))
    words = np.full((n, 4), 3)
    for i in range(n):
        shifts[i] = rng.integers(-2, 3), rng.integers(-2, 3)
        letters = rng.integers(0, 3, int(rng.integers(1, 5)))
        words[i, :letters.size] = letters
    # all words at once, as one array-valued element
    gamma = SAffElement(SL2Element(1.0, 0.0, 0.0, 1.0),
                        (shifts[:, 0], shifts[:, 1]))
    for a, b, c, d, w1, w2 in table[words.T].transpose(0, 2, 1):
        gamma = gamma.compose(SAffElement(SL2Element(a, b, c, d), (w1, w2)))
    x2, y2, u2, v2, _ = _act_arrays(gamma, xs, ys, us, vs)
    moved = sv_rel_values(f, x2, y2, u2, v2, M)
    scale = np.max(np.abs(base))
    assert scale > 0.01
    assert np.max(np.abs(moved - base)) < 1e-9 * scale


def test_sv_invariant_completion_nonzero_type():
    fr = _ring_profile()
    xs = np.array([0.13, -0.2, 0.31])
    ys = np.array([1.1, 0.8, 1.45])
    us = np.array([0.3, 0.1, -0.22])
    vs = np.array([0.25, -0.4, 0.15])
    gammas = [S_ELT, T_ELT, S_ELT.compose(T_ELT),
              SAffElement(SL2Element(2.0, 1.0, 1.0, 1.0), (1.0, -1.0))]
    for k in (1, 2, 3):
        phi = sv_rel_invariant(k_type_function(fr, k), 2)
        assert phi.weight == -k
        base = phi.fn(xs, ys, us, vs)
        scale = np.max(np.abs(base))
        assert scale > 0.01
        for gamma in gammas:
            dev = np.max(np.abs(slash(phi, gamma).fn(xs, ys, us, vs) - base))
            assert dev < 1e-9 * scale
    # type 0: the raw sum is already invariant
    phi0 = sv_rel_modular(k_type_function(fr, 0), 3)
    base = phi0.fn(xs, ys, us, vs)
    for gamma in gammas:
        dev = np.max(np.abs(slash(phi0, gamma).fn(xs, ys, us, vs) - base))
        assert dev < 1e-11 * np.max(np.abs(base))


# the letters of the generated words: S, T, T^-1 and the unit translations
_LETTERS = (S_ELT, T_ELT, T_ELT.inverse(),
            *(SAffElement(SL2Element(1.0, 0.0, 0.0, 1.0), w)
              for w in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))))


@pytest.mark.parametrize("k", [0, 2])
@settings(max_examples=40)
@given(word=st.lists(st.integers(0, len(_LETTERS) - 1), min_size=1,
                     max_size=12),
       x=st.floats(-0.5, 0.5), log_y=st.floats(-3.0, 6.0),
       u=st.floats(0.0, 1.0), v_over_y=st.floats(-2.0, 2.0))
def test_sv_invariant_completion_on_generated_words(k, word, x, log_y, u,
                                                   v_over_y):
    """``y^{k/2} SV_2(f)`` of a K-type-k function is fixed by the slash of
    every integral word, at heights from 1e-3 to 1e6."""
    phi = sv_rel_invariant(k_type_function(_ring_profile(), k), 2)
    gamma = functools.reduce(SAffElement.compose,
                             (_LETTERS[i] for i in word))
    y = 10.0 ** log_y
    pt = (np.array([x]), np.array([y]), np.array([u]), np.array([v_over_y * y]))
    base = phi.fn(*pt)[0]
    moved = slash(phi, gamma).fn(*pt)[0]
    assert abs(moved - base) <= 1e-9 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# fibre Fourier coefficients
# ---------------------------------------------------------------------------


def test_sv_coefficients_match_prediction():
    spec = QuadratureSpec(8, 32, 128)
    ys = np.linspace(2.5, 6.0, 4)
    cases = [
        (0, 1, 1, _gauss_profile()),
        (2, 2, 1, _ring_profile()),
        (2, 2, -1, _ring_profile()),
        (1, 1, 2, _ring_profile()),
        (-1, 1, 2, _ring_profile()),    # negative K-types take the
        (-2, 2, -1, _ring_profile()),   # sign of J_{-k} = (-1)^k J_k
    ]
    for k, M, m, f0 in cases:
        phi = sv_rel_modular(k_type_function(f0, k), M)
        pred = sv_coefficient_prediction(f0, k, M, m, ys)
        for y, p in zip(ys, pred):
            meas = coeff_H0(phi, 0, m * M, float(y), spec)
            assert abs(meas - p) < 1e-6 * abs(p), (k, M, m, y)


def test_sv_coefficient_mass_at_zero():
    f = k_type_function(_gauss_profile(), 0)
    phi = sv_rel_modular(f, 2)
    mass = plane_integral(f).real
    for y in (2.0, 4.5):
        c0 = coeff_H0(phi, 0, 0, y, QuadratureSpec(8, 32, 64))
        assert abs(c0 - 4.0 * mass) < 1e-8 * abs(mass)


def test_sv_coefficient_vanishing():
    spec = QuadratureSpec(8, 32, 256)
    phi = sv_rel_modular(k_type_function(_ring_profile(), 2), 2)
    table = coeff_H0_table(phi, 3.4, spec)
    scale = np.max(np.abs(table))
    assert scale > 0.05
    allowed = np.zeros_like(table, dtype=bool)
    for mt in range(-spec.nv // 2 + 1, spec.nv // 2):
        if mt % 2 == 0:
            allowed[0, mt % spec.nv] = True
    assert np.max(np.abs(table[~allowed])) < 1e-8


def test_sv_coefficient_prediction_rejects_zero_mode():
    with pytest.raises(ValueError):
        sv_coefficient_prediction(_gauss_profile(), 0, 1, 0, 2.0)


# ---------------------------------------------------------------------------
# absolute transform
# ---------------------------------------------------------------------------


def test_sv_abs_square_lattice_and_z_independence():
    ind = PlaneFunction(lambda z: np.ones_like(np.asarray(z, complex)), 1.01)
    # square lattice: exactly the four shortest primitive vectors
    assert abs(sv_abs_value(ind, JacobiPoint(0.0, 1.0, 0.0, 0.0))
               - 4.0) < 1e-12
    g = _gauss_plane(1.9)
    vals = [sv_abs_value(g, JacobiPoint(0.37, 1.21, u, v))
            for u, v in ((0.0, 0.0), (0.5, -0.3), (-0.11, 0.62))]
    assert abs(vals[0] - vals[1]) < 1e-14
    assert abs(vals[0] - vals[2]) < 1e-14


def test_sv_abs_coprime_sum_identity():
    lo, hi = 0.3, 1.5

    def psi(t):
        t = np.asarray(t, float)
        s = (2.0 * t - (lo + hi)) / (hi - lo)
        out = np.zeros_like(s)
        m = np.abs(s) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
        return out

    def f0fn(r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = r > 0.1
        out[m] = psi(1.0 / r[m] ** 2)
        return out

    f0 = RadialProfile(f0fn, math.sqrt(1.0 / lo) + 0.1)
    for k in (0, 2):
        f = k_type_function(f0, k)
        for tau in (0.3 + 1.2j, -0.17 + 0.8j):
            got = sv_abs_value(f, JacobiPoint(tau.real, tau.imag, 0.29, -0.41))
            want = ktype_eisenstein(k, psi, (lo, hi), tau)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(ValueError):
        ktype_eisenstein(0, psi, (0.0, hi), 0.3 + 1.2j)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_sv_mean_identity():
    f = _gauss_plane(2.5)
    mass = math.pi * (1.0 - math.exp(-2.5 ** 2))
    for M in (1, 2, 3):
        est, err = sv_mean_mc(f, M, n_samples=200_000, seed=101 + M)
        want = M * M * mass
        assert err < 0.01 * want
        assert abs(est - want) <= 3.0 * err


def test_sv_mean_zero_function():
    f = _plane_of(_mean_zero_profile())
    assert abs(plane_integral(f)) < 1e-8
    est, err = sv_mean_mc(f, 2, n_samples=200_000, seed=57)
    assert abs(est) <= 3.0 * err


def test_sv_second_moment_plain_mc():
    f = _gauss_plane(2.5)
    mass = math.pi * (1.0 - math.exp(-2.5 ** 2))
    l2 = math.pi / 2.0 * (1.0 - math.exp(-2.0 * 2.5 ** 2))
    est, err = sv_second_moment_mc(f, 1, n_samples=400_000, seed=55,
                                   y_max=1e4)
    want = mass ** 2 + l2
    assert abs(est - want) <= 3.0 * err


def test_sv_second_moment_exact_fibre_routes():
    g0 = _gauss_profile(2.4)
    fg = _plane_of(g0)
    mass = plane_integral(fg).real
    l2 = plane_l2_norm_sq(fg)
    for M, seed in ((1, 38), (2, 39)):
        want = M ** 4 * mass ** 2 + M * M * l2
        est, err = sv_second_moment_exact_fibre(g0, M, n_samples=400_000,
                                                seed=seed, y_max=1e6)
        assert abs(est - want) <= 3.0 * err
        assert abs(est - want) <= 0.01 * want


def test_sv_isometry_on_mean_zero():
    f0 = _mean_zero_profile()
    l2 = plane_l2_norm_sq(_plane_of(f0))
    for M, ymax, seed in ((1, 1e6, 20), (2, 1e7, 21)):
        est, err = sv_second_moment_exact_fibre(f0, M, n_samples=400_000,
                                                seed=seed, y_max=ymax)
        want = M * M * l2
        assert abs(est - want) <= 0.02 * want
        assert abs(est - want) <= 3.0 * err + 0.005 * want


def test_dual_norm_sum_brute_force():
    def hfn(r):
        r = np.asarray(r, float)
        return np.exp(-1.3 * r * r) * (1.0 + 0.2 * r)

    h = RadialProfile(hfn, 3.0)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-0.5, 0.5, 4)
    ys = np.exp(rng.uniform(0.0, 5.0, 4))
    for M in (1, 2):
        got = dual_norm_sum_values(h, xs, ys, M)
        for i in range(4):
            tot = 0.0
            Q = 3.0 * math.sqrt(ys[i]) / M
            amax = int(Q / ys[i]) + 1
            for a in range(-amax, amax + 1):
                bmax = int(Q + abs(a * xs[i])) + 2
                for b in range(-bmax, bmax + 1):
                    if a == 0 and b == 0:
                        continue
                    nr = math.hypot(a * xs[i] + b, a * ys[i])
                    tot += float(np.real(
                        h(np.array([M * nr / math.sqrt(ys[i])]))[0]))
            assert abs(got[i] - tot) < 1e-10 * max(1.0, abs(tot))


def test_radial_fourier_gaussian():
    # truncation at r = 6 only drops an exp(-36) tail
    f0 = RadialProfile(lambda r: np.exp(-np.asarray(r, float) ** 2), 6.0)
    fhat = radial_fourier(f0, rho_max=2.0, n_grid=201)
    rho = np.array([0.0, 0.2, 0.5, 0.9])
    want = math.pi * np.exp(-math.pi ** 2 * rho ** 2)
    got = np.real(np.asarray(fhat(rho)))
    assert np.max(np.abs(got - want)) < 1e-6


def test_radial_fourier_rejects_bad_input():
    f0 = RadialProfile(lambda r: np.exp(-np.asarray(r, float) ** 2), 6.0)
    nan = RadialProfile(lambda r: np.full(np.shape(r), math.nan), 1.0)
    for prof, rho_max, n_grid in ((f0, 2.0, 1), (f0, 2.0, 0), (f0, 0.0, 201),
                                  (f0, -1.0, 201), (nan, 1.0, 3)):
        with pytest.raises(ValueError):
            radial_fourier(prof, rho_max=rho_max, n_grid=n_grid)


def test_radial_fourier_scalar_matches_array_bitwise():
    f0 = RadialProfile(lambda r: np.exp(-np.asarray(r, float) ** 2), 6.0)
    fhat = radial_fourier(f0, rho_max=2.0, n_grid=201)
    # inside the grid, at rho_max = 2 and beyond it
    for r in (0.0, 0.5, 1.234, 2.0, 2.5):
        want = fhat(np.array([r]))
        for arg in (r, np.float64(r), np.array(r)):
            got = fhat(arg)
            assert got.shape == () and got.dtype == want.dtype
            assert got.reshape(1).view(np.uint64) == want.view(np.uint64)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


def test_sv_adjoint_constant_and_linearity():
    rows = np.array([[0.7, 0.2], [1.1, -0.4]])
    vals, _ = sv_adjoint(lambda e: 1.0, rows, n_samples=200, seed=3)
    assert np.max(np.abs(vals - VOLUME_SL2)) < 1e-12
    hb = FundamentalBump()
    v1, _ = sv_adjoint(hb.on_element, rows, n_samples=400, seed=9)
    v2, _ = sv_adjoint(lambda e: 2.5 * hb.on_element(e) + 0.5, rows,
                       n_samples=400, seed=9)
    assert np.max(np.abs(v2 - (2.5 * v1 + 0.5 * VOLUME_SL2))) < 1e-10


def test_sv_adjoint_fast_path_matches_generic():
    hb = FundamentalBump()
    rows = np.array([[0.6, 0.3], [1.3, -0.2], [0.1, 0.9]])
    slow, _ = sv_adjoint(hb.on_element, rows, n_samples=500, seed=12)
    fast, _ = sv_adjoint_of_bump(hb, rows, n_samples=500, seed=12)
    assert np.max(np.abs(slow - fast)) < 1e-10


def _full_batch_stats(vals, n_batches):
    """Reference batch means: the whole sample table reduced at once."""
    size = vals.shape[0] // n_batches
    batches = vals[:size * n_batches].reshape(
        n_batches, size, *vals.shape[1:]).mean(axis=1)
    var = batches.real.var(axis=0, ddof=1) + batches.imag.var(axis=0, ddof=1)
    return batches.mean(axis=0), np.sqrt(var / n_batches)


def _adjoint_of_bump_loop(hb, p_rows, n_samples, seed, n_batches=20,
                          y_max=1e3):
    """Per-sample reference for ``sv_adjoint_of_bump``: each base point is
    reduced alone by ``reduce_to_fundamental`` and the bump is evaluated
    for all rows of one sample at a time, into the full sample table."""
    p_rows = np.atleast_2d(np.asarray(p_rows, float))
    a, b, c, d = _stabilizer_cosets(n_samples, seed, y_max, 0, n_samples)
    vals = np.empty((n_samples, p_rows.shape[0]))
    for i in range(n_samples):
        g = SL2Element(a[i], b[i], c[i], d[i])
        w1 = p_rows[:, 0] - a[i]
        w2 = p_rows[:, 1] - b[i]
        base_pt, _theta = element_to_point(SAffElement(g, (0.0, 0.0)))
        x_base, y_base = float(base_pt.x), float(base_pt.y)
        red_base, gamma = reduce_to_fundamental(JacobiPoint(x_base, y_base))
        _, _, u_r, v_r, _ = _act_arrays(
            gamma, x_base, y_base, y_base * (w1 * c[i] + w2 * d[i]),
            y_base * (w1 * d[i] - w2 * c[i]))
        y_r = red_base.y
        p = v_r / y_r
        q = u_r - v_r * red_base.x / y_r
        p -= np.floor(p)
        q -= np.floor(q)
        vals[i] = hb.formula(red_base.x, y_r, p, q)
    est, err = _full_batch_stats(vals, n_batches)
    return (VOLUME_SL2 * est).astype(complex), VOLUME_SL2 * err


@pytest.mark.parametrize("n, lo, hi", [(1_000, 0, 1_000), (1_000, 0, 1),
                                        (1_000, 313, 777), (1_000, 999, 1_000),
                                        (2, 1, 2)])
def test_stabilizer_coset_block_is_its_slice(n, lo, hi):
    """A block of cosets drawn alone is bitwise its slice of the full draw,
    and the full draw is the one made from a whole Masur--Veech sample and
    ``default_rng(seed + 1)`` angles."""
    seed, y_max = 23, 1e3
    s = sample_masur_veech(n, seed, y_max)
    theta = np.random.default_rng(seed + 1).uniform(0.0, 2.0 * math.pi, n)
    g = element_from_iwasawa(IwasawaCoords(s.x, s.y, 0.0, 0.0, theta)).g
    got = _stabilizer_cosets(n, seed, y_max, lo, hi)
    for entry, full in zip(got, (g.a, g.b, g.c, g.d)):
        assert np.array_equal(entry.view(np.uint64),
                              full[lo:hi].view(np.uint64))


def _a11_rows(R=2.5, n_r=24, nth=8):
    nodes, _weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * R * (nodes + 1.0)
    theta = 2.0 * math.pi * np.arange(nth) / nth
    return np.stack([np.repeat(r, nth) * np.cos(np.tile(theta, r.size)),
                     np.repeat(r, nth) * np.sin(np.tile(theta, r.size))],
                    axis=1)


@pytest.mark.parametrize("n_samples, seed, n_batches, n_rows", [
    (40_000, 17, 20, 192),   # the acceptance check's call
    (1_234, 3, 7, 10),       # 7 does not divide 1234
    (777, 4, 10, 1),
])
def test_sv_adjoint_of_bump_matches_scalar_loop_bitwise(n_samples, seed,
                                                        n_batches, n_rows):
    hb = FundamentalBump()
    rows = _a11_rows()[:n_rows]
    got = sv_adjoint_of_bump(hb, rows, n_samples=n_samples, seed=seed,
                             n_batches=n_batches)
    want = _adjoint_of_bump_loop(hb, rows, n_samples, seed, n_batches)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_fundamental_bump_value_does_not_depend_on_call_shape():
    """A point's bump value is the same bits alone and inside an array."""
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-0.45, 0.45, 20_000), rng.uniform(1.1, 1.9, 20_000)
    p, q = rng.random(20_000), rng.random(20_000)
    hb = FundamentalBump()
    together = hb.formula(x, y, p, q)
    alone = np.array([hb.formula(*pt) for pt in zip(x, y, p, q)])
    assert np.array_equal(together.view(np.uint64), alone.view(np.uint64))


def test_sv_adjoint_of_bump_holds_one_block():
    """The adjoint works one batch block at a time: at a fixed block of
    2000 samples by 192 rows, ten times the samples (and batches) leave
    its peak memory nearly where it was; a full sample-by-row table would
    multiply it by ten."""
    rows = _a11_rows()
    peaks = []
    for n_samples, n_batches in ((4_000, 2), (40_000, 20)):
        tracemalloc.start()
        try:
            sv_adjoint_of_bump(FundamentalBump(), rows, n_samples=n_samples,
                               seed=17, n_batches=n_batches)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_sv_adjoint_of_bump_fibre_work_is_sub_blocked():
    """One block of a11's call holds its 2000 x 192 values (2.9 MiB) and
    the fibre arithmetic of one call, which the batch-means driver caps at
    2^16 values: the peak stays below four times the block (about 2.4
    times is measured).  Done on the whole block at once, the fibre
    arithmetic peaked at 8.2 times the block (23.9 MiB)."""
    rows = _a11_rows()
    block = 2000 * rows.shape[0] * 8
    tracemalloc.start()
    try:
        sv_adjoint_of_bump(FundamentalBump(), rows, n_samples=4_000, seed=17,
                           n_batches=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * block


def test_sv_adjoint_holds_one_block(monkeypatch):
    """The generic adjoint draws its cosets and calls ``h`` one block of
    whole batches at a time: with blocks of 4000 values, one batch of 100
    samples by 40 rows, ten times the samples (and batches) leave its peak
    memory nearly where it was; the full sample-by-row table of values
    would multiply it by ten."""
    monkeypatch.setattr("strata.saff._SAMPLE_BLOCK", 4000)
    rows = _a11_rows()[:40]
    peaks = []
    for n_samples, n_batches in ((200, 2), (2_000, 20)):
        tracemalloc.start()
        try:
            sv_adjoint(lambda e: 1.0, rows, n_samples=n_samples, seed=17,
                       n_batches=n_batches)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_sv_adjoint_rejects_unformable_batches():
    hb = FundamentalBump()
    rows = np.array([[0.6, 0.3]])
    with pytest.raises(ValueError, match="10 samples cannot fill 20"):
        sv_adjoint_of_bump(hb, rows, n_samples=10)
    with pytest.raises(ValueError, match="n_batches >= 2"):
        sv_adjoint_of_bump(hb, rows, n_samples=200, n_batches=1)
    with pytest.raises(ValueError, match="10 samples cannot fill 20"):
        sv_adjoint(hb.on_element, rows, n_samples=10)


def test_batch_estimators_fail_before_sampling(monkeypatch):
    """A batch count that cannot be formed raises before any sampling or
    Hankel work: the sampler, the coset sampler and the Hankel transform
    are replaced by spies that record each call."""
    calls = []
    for target in ("strata.saff.sample_masur_veech",
                   "strata.sv._sample_block",
                   "strata.saff._sample_block",
                   "strata.sv._stabilizer_cosets",
                   "strata.sv.hankel_transform"):
        monkeypatch.setattr(
            target, lambda *args, target=target, **kw: calls.append(target))
    f, f0 = _gauss_plane(), _gauss_profile()
    phi = ModularFunction(lambda x, y, u, v: np.ones_like(x), 0)
    estimators = [
        lambda **kw: sv_adjoint(FundamentalBump().on_element, [[0.6, 0.3]],
                                **kw),
        lambda **kw: sv_mean_mc(f, 1, **kw),
        lambda **kw: sv_second_moment_mc(f, 1, **kw),
        lambda **kw: sv_second_moment_exact_fibre(f0, 1, **kw),
        lambda **kw: inner_product(phi, phi, **kw),
    ]
    for estimate in estimators:
        with pytest.raises(ValueError, match="n_batches >= 2"):
            estimate(n_samples=4000, n_batches=1)
        with pytest.raises(ValueError, match="10 samples cannot fill 20"):
            estimate(n_samples=10, n_batches=20)
    assert calls == []


@pytest.mark.parametrize("y_max", [-3.0, 0.5, 1.0, math.nan])
def test_estimators_reject_heights_below_the_domain(monkeypatch, y_max):
    """A truncation height that does not lie above the fundamental domain
    raises in the sampler and in every estimator, before any lattice,
    Hankel, reduction or function work (spies record each call); the
    untruncated law, ``y_max = inf``, stays valid."""
    calls = []
    for target in ("strata.sv.sv_rel_values",
                   "strata.sv.dual_norm_sum_values",
                   "strata.sv.hankel_transform",
                   "strata.sv.reduce_arrays"):
        monkeypatch.setattr(
            target, lambda *args, target=target, **kw: calls.append(target))
    phi = ModularFunction(lambda *args: calls.append("phi"), 0)
    f, f0 = _gauss_plane(), _gauss_profile()
    kw = {"n_samples": 200, "n_batches": 2, "y_max": y_max}
    estimators = [
        lambda: sample_masur_veech(5, 0, y_max=y_max),
        lambda: sv_mean_mc(f, 1, **kw),
        lambda: sv_second_moment_mc(f, 1, **kw),
        lambda: sv_second_moment_exact_fibre(f0, 1, **kw),
        lambda: inner_product(phi, phi, **kw),
        lambda: sv_adjoint(lambda e: calls.append("h"), [[0.6, 0.3]], **kw),
        lambda: sv_adjoint_of_bump(FundamentalBump(), [[0.6, 0.3]], **kw),
    ]
    for estimate in estimators:
        with pytest.raises(ValueError, match="y_max must be > 1"):
            estimate()
    assert calls == []
    s = sample_masur_veech(1000, 3, y_max=math.inf)
    assert s.tail_mass == 0.0
    assert np.all(np.isfinite(s.y)) and np.all(s.y >= np.sqrt(1.0 - s.x ** 2))


@pytest.mark.parametrize("rows", [[[math.nan, 0.0]], [[0.6, math.inf]],
                                  [[0.6, 0.3, 1.0]], np.zeros((2, 2, 2))])
def test_adjoints_reject_bad_plane_rows(rows):
    """Plane rows that are not a finite (n, 2) array raise, naming
    ``p_rows``, before the function is called."""
    calls = []
    with pytest.raises(ValueError, match="p_rows"):
        sv_adjoint(lambda e: calls.append(e), rows, n_samples=200,
                   n_batches=2)
    with pytest.raises(ValueError, match="p_rows"):
        sv_adjoint_of_bump(FundamentalBump(), rows, n_samples=200,
                           n_batches=2)
    assert calls == []


# Full-array references: every sample drawn and evaluated at once, the
# estimators' bodies before they streamed blocks.
def _sv_mean_full(f, M, n_samples, seed, n_batches, y_max):
    s = sample_masur_veech(n_samples, seed, y_max=y_max)
    return _full_batch_stats(sv_rel_values(f, s.x, s.y, s.u, s.v, M),
                             n_batches)


def _sv_second_moment_full(f, M, n_samples, seed, n_batches, y_max):
    s = sample_masur_veech(n_samples, seed, y_max=y_max)
    vals = sv_rel_values(f, s.x, s.y, s.u, s.v, M)
    return _full_batch_stats(vals * vals, n_batches)


def _exact_fibre_full(f0, M, n_samples, seed, n_batches, y_max):
    fhat = radial_fourier(f0)
    h = RadialProfile(lambda r: fhat.fn(r) ** 2, fhat.support_radius)
    s = sample_masur_veech(n_samples, seed, y_max=y_max)
    zero_mode = float(fhat(0.0)) ** 2
    vals = M ** 4 * (dual_norm_sum_values(h, s.x, s.y, M) + zero_mode)
    return _full_batch_stats(vals, n_batches)


def _inner_product_full(phi1, phi2, n_samples, seed, n_batches, y_max):
    s = sample_masur_veech(n_samples, seed, y_max)
    vals1 = phi1.fn(s.x, s.y, s.u, s.v)
    vals2 = vals1 if phi2 is phi1 else phi2.fn(s.x, s.y, s.u, s.v)
    vals = (vals1 * np.conj(vals2) * s.y ** phi1.weight) * VOLUME_SL2
    return _full_batch_stats(vals, n_batches)


def _wave(n, m, k):
    """A complex weight-k function, so pairings carry an imaginary part."""
    def fn(x, y, u, v):
        return (np.exp(2j * math.pi * (n * x + m * v / y))
                / (1.0 + y) ** (1.0 + 0.5 * k))
    return ModularFunction(fn, k)


def _estimator_pairs():
    f, f0 = _gauss_plane(), _gauss_profile()
    w1, w2, w3 = _wave(1, 1, 0), _wave(2, -1, 0), _wave(1, 2, 2)
    return {
        "mean": (lambda **kw: sv_mean_mc(f, 2, **kw),
                 lambda **kw: _sv_mean_full(f, 2, **kw), 1e3),
        "second_moment": (lambda **kw: sv_second_moment_mc(f, 1, **kw),
                          lambda **kw: _sv_second_moment_full(f, 1, **kw),
                          1e3),
        "exact_fibre": (
            lambda **kw: sv_second_moment_exact_fibre(f0, 2, **kw),
            lambda **kw: _exact_fibre_full(f0, 2, **kw), 1e6),
        "pairing_self": (lambda **kw: inner_product(w1, w1, **kw),
                         lambda **kw: _inner_product_full(w1, w1, **kw), 1e3),
        "pairing_cross": (lambda **kw: inner_product(w1, w2, **kw),
                          lambda **kw: _inner_product_full(w1, w2, **kw),
                          1e3),
        "pairing_weight2": (lambda **kw: inner_product(w3, w3, **kw),
                            lambda **kw: _inner_product_full(w3, w3, **kw),
                            1e3),
    }


@pytest.mark.parametrize("name", ["mean", "second_moment", "exact_fibre",
                                  "pairing_self", "pairing_cross",
                                  "pairing_weight2"])
def test_streamed_estimators_match_full_array_bitwise(name, monkeypatch):
    """Streaming the samples in blocks leaves every estimate's bits: with
    the block shrunk so that one call spans several blocks (of 3, 2 and 1
    batches, and of one batch larger than the block) plus a remainder that
    is never drawn, each estimator equals its full-array body as uint64.
    40 037 samples are past the 16 384 from which numpy runs the old
    pairing product in place."""
    streamed, full, y_max = _estimator_pairs()[name]
    kw = dict(n_samples=40_037, seed=23, n_batches=20, y_max=y_max)
    want = full(**kw)   # 2001-sample batches, 17 samples left over
    want = np.array([want[0].real, want[0].imag, want[1]]).view(np.uint64)
    for block in (3 * 2001, 5000, 1000, 1 << 18):
        monkeypatch.setattr("strata.saff._SAMPLE_BLOCK", block)
        est, err = streamed(**kw)
        got = np.array([est.real, est.imag, err]).view(np.uint64)
        assert np.array_equal(got, want), block


def _lattice_sum_cases():
    """name -> (evaluate(), y, rho, calls): a lattice-sum evaluation, the
    heights and disc radii of its samples (``None`` for the truncated
    coset series, which has no disc) and, for a coset series, the list
    its profile appends to once per run.  Each disc input ends in one
    sample whose point bound exceeds 2^10."""
    s = sample_masur_veech(3000, seed=5, y_max=1e3)
    x, u, v = (np.append(a, 0.1) for a in (s.x, s.u, s.v))
    y = np.append(s.y, 1e5)
    gauss = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), 2.5)
    swirl = RadialProfile(
        lambda r: np.exp(-np.asarray(r) ** 2) * (1.0 + 0.7j * np.asarray(r)),
        2.5)
    rng = np.random.default_rng(8)
    px = rng.uniform(-0.5, 0.5, 300)
    py = np.append(np.exp(rng.uniform(math.log(0.05), math.log(3.0), 299)),
                   2e-6)
    pu, pv = rng.uniform(0.0, 1.0, (2, 300))
    calls = []

    def counted(beta):
        def fn(yy):
            calls.append(None)
            return beta.fn(yy)
        return BetaProfile(fn, beta.support)

    bump = eisenstein(2, 1, counted(beta_bump(0.8, 1.6)), radius=10_000)
    box = poincare(2, 1, 1, counted(beta_discrete(2, 1)), radius=4)
    return {
        "rel_real": (lambda: sv_rel_values(k_type_function(gauss, 0),
                                           x, y, u, v, 2),
                     y, 5.0 * np.sqrt(y), None),
        "rel_complex": (lambda: sv_rel_values(k_type_function(gauss, 1),
                                              x, y, u, v, 2),
                        y, 5.0 * np.sqrt(y), None),
        "rel_generic": (lambda: sv_rel_values(_gauss_plane(), x, y, u, v, 2),
                        y, 5.0 * np.sqrt(y), None),
        "rel_complex_profile": (
            lambda: sv_rel_values(k_type_function(swirl, 2), x, y, u, v, 2),
            y, 5.0 * np.sqrt(y), None),
        "dual_norm": (lambda: dual_norm_sum_values(gauss, x, y, 1),
                      y, 2.5 * np.sqrt(y), None),
        "series_compact": (lambda: bump.fn(px, py, pu, pv), py,
                           (1.0 + 1e-9) / math.sqrt(0.8) * np.sqrt(py),
                           calls),
        "series_truncated": (lambda: box.fn(px, py, pu, pv), py, None,
                             calls),
    }


@pytest.mark.parametrize("name", ["rel_real", "rel_complex", "rel_generic",
                                  "rel_complex_profile", "dual_norm",
                                  "series_compact", "series_truncated"])
def test_lattice_sums_do_not_depend_on_runs(name, monkeypatch):
    """Every lattice-sum evaluator is bitwise the same, as uint64, with
    the point budget at 2^10, 2^15 and 2^17, though the runs cut the
    samples differently at each budget; under 2^10 the last disc sample,
    over the budget, runs alone.  A coset series, the truncated one too,
    reads the budget when it is called: its run count follows it.  A
    k-type function with a complex profile multiplies its phase in one
    operand order: numpy's complex product does not round commutatively,
    and ``vals * phase`` ran as ``phase *= vals`` on runs above 256 KiB."""
    evaluate, y, rho, calls = _lattice_sum_cases()[name]
    bits, n_runs, n_calls = [], [], []
    for budget in (1 << 10, 1 << 15, 1 << 17):
        monkeypatch.setattr("strata.saff._POINT_BUDGET", budget)
        bits.append(np.ascontiguousarray(evaluate()).view(np.uint64))
        if rho is not None:
            cut = list(_runs(y, rho))
            assert cut[-1] == (y.size - 1, y.size) or budget > 1 << 10
            n_runs.append(len(cut))
        if calls is not None:
            n_calls.append(len(calls))
            calls.clear()
    for counts in (n_runs, n_calls):
        assert counts == sorted(counts, reverse=True)
        assert counts == [] or counts[0] > counts[-1] >= 1
    assert np.count_nonzero(bits[0]) > 0
    for got in bits[1:]:
        assert np.array_equal(got, bits[0])


def test_disc_points_are_disc_rows_expanded(monkeypatch):
    """On every disc input of the lattice-sum cases, ``_disc_points`` is
    ``_disc_rows`` with each row repeated ``count`` times: ``point_row``
    is the repeated row index, a row quantity read through it is its
    ``np.repeat``, and ``b`` equals ``(b_lo - start) + position`` in int64
    and, as ``sv_rel_values`` builds it, in float64."""
    seen = []

    def spy(fn):
        def record(*args):
            seen.append(args)
            return fn(*args)
        return record

    for target, fn in (("strata.sv._disc_rows", _disc_rows),
                       ("strata.sv._disc_points", _disc_points),
                       ("strata.series._disc_points", _disc_points)):
        monkeypatch.setattr(target, spy(fn))
    for name, (evaluate, _, rho, _) in _lattice_sum_cases().items():
        before = len(seen)
        evaluate()
        assert (len(seen) > before) == (rho is not None), name
    for args in seen:
        row_sample, row_a, point_row, b = _disc_points(*args)
        want_sample, want_a, b_lo, count = _disc_rows(*args)
        assert np.array_equal(row_sample, want_sample)
        assert np.array_equal(row_a, want_a)
        assert count.dtype == np.int64 and (count >= 0).all()
        assert np.array_equal(point_row,
                              np.repeat(np.arange(count.size), count))
        assert np.array_equal(row_a[point_row], np.repeat(row_a, count))
        starts = np.cumsum(count) - count
        assert b.dtype == np.int64
        assert np.array_equal(b, np.repeat(b_lo - starts, count)
                              + np.arange(b.size))
        b_float = np.repeat((b_lo - starts).astype(float), count)
        b_float += np.arange(b.size, dtype=float)
        assert np.array_equal(b_float, b)


def _gather_sv_rel_values(f, x, y, u, v, M):
    """``sv_rel_values`` on 1-d float arrays as it was before it expanded
    rows by ``np.repeat``: every point gathers its row's quantities through
    ``point_row`` and adds ``b`` as int64, and a generic ``f.fn`` is masked
    by its own modulus."""
    out = np.zeros(x.size, dtype=complex)
    sq = np.sqrt(y)
    rho = M * f.support_radius * sq
    Mu, Mv = M * u, M * v
    for lo, hi in _runs(y, rho):
        xs, ys, us, vs, sqs = (a[lo:hi] for a in (x, y, u, v, sq))
        row_sample, a, point_row, b = _disc_points(
            Mu[lo:hi], Mv[lo:hi], xs, ys, rho[lo:hi])
        t = ys[row_sample]
        t *= a
        t /= M
        t += vs[row_sample]
        t /= sqs[row_sample]
        ax, u_row, sq_row = a * xs[row_sample], us[row_sample], sqs[row_sample]
        re = ax[point_row]
        re += b
        re /= M
        re += u_row[point_row]
        zeta = np.empty(b.size, dtype=complex)
        np.divide(re, sq_row[point_row], out=zeta.real)
        zeta.imag = t[point_row]
        # the support mask as PlaneFunction.__call__ applied it
        vals = np.where(np.abs(zeta) <= f.support_radius,
                        _as_values(f.fn(zeta)), 0.0)
        sample = row_sample[point_row]
        out.real[lo:hi] = np.bincount(sample, weights=vals.real,
                                      minlength=hi - lo)
        if np.iscomplexobj(vals):
            out.imag[lo:hi] = np.bincount(sample, weights=vals.imag,
                                          minlength=hi - lo)
    return out


def _closure_k_type(f0, k):
    """The k-type plane function as a generic one, a closure that takes
    its own modulus: how ``k_type_function`` built it before
    ``PlaneFunction`` evaluated a radial profile itself."""

    def fn(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        r = np.abs(zeta)
        vals = np.asarray(f0.fn(r))
        if k == 0:
            return vals
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(r > 0.0, (zeta / np.where(r > 0.0, r, 1.0)) ** k,
                             0.0)
        return vals * phase

    return PlaneFunction(fn, f0.support_radius, k_type=k)


# M -> (y, u): at x = v = 0 the disc enumeration keeps the point
# (a, b) = (0, floor(2 M sqrt(y))), whose |zeta| is one ulp above 2
_ULP_OUTSIDE = {1: (2.5484729993806, 0.1927874964554721),
                2: (3.560779020534023, 0.2740053102951634),
                3: (11.97843298400666, 0.25530790248819596)}


@pytest.mark.parametrize("M", [1, 2, 3])
def test_sv_rel_values_matches_gather_reference_bitwise(M):
    """The row-expanded transform is bitwise the gather-based one, as
    uint64, for generic real and complex functions and for k-type ones
    (k = 0, 1, 2, -3) against the closure that took its own modulus.
    Heights are log-uniform on [1e-3, 1e6]; the last four samples hold a
    point at zeta = 0 and one at |zeta| = R, a point one ulp outside R,
    no lattice point at all, and more points than the budget."""
    R = 2.0
    rng = np.random.default_rng(40 + M)
    n = 2000
    x = rng.uniform(-3.0, 3.0, n)
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), n))
    u, v = rng.uniform(-2.0, 2.0, (2, n))
    y_out, u_out = _ULP_OUTSIDE[M]
    b_out = math.floor(M * R * math.sqrt(y_out))
    assert (b_out / M + u_out) / math.sqrt(y_out) == np.nextafter(R, 3.0)
    edge = np.array([(0.0, 1.0, 0.0, 0.0),
                     (0.0, y_out, u_out, 0.0),
                     (0.0, 1e4, 0.0, 2500.0),
                     (0.3, 1e9, 0.1, 0.0)])
    x, y, u, v = (np.append(c, e) for c, e in zip((x, y, u, v), edge.T))
    rho = M * R * np.sqrt(y)
    _, row_a, point_row, b = _disc_points(M * u[-3:-2], M * v[-3:-2],
                                          x[-3:-2], y[-3:-2], rho[-3:-2])
    assert ((row_a[point_row] == 0) & (b == b_out)).any()
    assert list(_runs(y, rho))[-1] == (y.size - 1, y.size)

    gauss = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), R)
    funcs = [(k_type_function(gauss, k), _closure_k_type(gauss, k))
             for k in (0, 1, 2, -3)]
    for fn in (lambda z: np.cos(3.0 * z.real) * np.exp(-np.abs(z)),
               lambda z: z * np.exp(-np.abs(z) ** 2)):
        generic = PlaneFunction(fn, R)
        funcs.append((generic, generic))
    for f, ref in funcs:
        got = sv_rel_values(f, x, y, u, v, M)
        want = _gather_sv_rel_values(ref, x, y, u, v, M)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.count_nonzero(got[:n]) > n // 2
        assert got[-2] == 0.0 and got[-1] != 0.0


@pytest.mark.parametrize("M", [1, 2])
def test_k_type_edge_samples_match_gather_reference_bitwise(M):
    """Edge samples of the k-type path against the gather reference, as
    uint64, with RuntimeWarnings as errors: a sample whose one lattice
    point is zeta = 0 (+0.0+0.0j for k != 0, f0(0) for k = 0), a sample
    with no lattice point, an over-budget sample that runs alone, then
    ordinary samples; k = 0, 1, 2, -3 and a complex generic function."""
    R = 0.3
    # at y = 1, x = 0 the points are ((b / M + u) + i (a / M + v)), 1/M apart
    edge = np.array([(0.0, 1.0, 0.0, 0.0),
                     (0.0, 1.0, 0.5 / M, 0.5 / M),
                     (0.3, 1e10, 0.1, 0.0)])
    rng = np.random.default_rng(70 + M)
    rest = np.stack([rng.uniform(-1.0, 1.0, 200),
                     np.exp(rng.uniform(-3.0, 6.0, 200)),
                     *rng.uniform(-1.0, 1.0, (2, 200))], axis=1)
    x, y, u, v = np.concatenate([edge, rest]).T
    assert (2, 3) in list(_runs(y, M * R * np.sqrt(y)))

    gauss = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), R)
    funcs = [(k_type_function(gauss, k), _closure_k_type(gauss, k))
             for k in (0, 1, 2, -3)]
    generic = PlaneFunction(lambda z: z * np.exp(-np.abs(z) ** 2), R)
    funcs.append((generic, generic))
    for f, ref in funcs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sv_rel_values(f, x, y, u, v, M)
            at_origin = f(np.zeros(3, dtype=complex))
        want = _gather_sv_rel_values(ref, x, y, u, v, M)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        origin = np.array([1.0 if f.k_type == 0 else 0.0], dtype=complex)
        assert np.array_equal(got[:1].view(np.uint64), origin.view(np.uint64))
        assert np.all(at_origin == origin)
        assert not got[1:2].view(np.uint64).any()
        assert got[2] != 0.0 and np.count_nonzero(got[3:]) > 100


def test_sv_mean_mc_memory_bounded_by_block():
    """At a fixed batch size, four blocks of samples peak where one does;
    holding every sample would quadruple the sample arrays."""
    f = PlaneFunction(lambda z: np.exp(-np.abs(z) ** 2), 0.3)
    peaks = []
    for n_samples, n_batches in ((1 << 18, 64), (1 << 20, 256)):
        tracemalloc.start()
        try:
            sv_mean_mc(f, 1, n_samples=n_samples, seed=3,
                       n_batches=n_batches)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_sv_adjoint_duality():
    R = 2.5
    f = _gauss_plane(R)
    hb = FundamentalBump()

    n = 400_000
    s = sample_masur_veech(n, seed=91, y_max=1e3)
    sv = sv_rel_values(f, s.x, s.y, s.u, s.v, 1)
    hv = hb.formula(s.x, s.y, s.p, s.q)
    prod = (sv * hv).real
    nb = 100
    usable = (n // nb) * nb
    batches = prod[:usable].reshape(nb, -1).mean(axis=1)
    lhs = VOLUME_SL2 * batches.mean()
    lhs_err = VOLUME_SL2 * math.sqrt(batches.var(ddof=1) / nb)

    nodes, weights = np.polynomial.legendre.leggauss(24)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * weights * r
    nth = 8
    theta = 2.0 * math.pi * np.arange(nth) / nth
    rows = np.stack([np.repeat(r, nth) * np.cos(np.tile(theta, r.size)),
                     np.repeat(r, nth) * np.sin(np.tile(theta, r.size))],
                    axis=1)
    vals, errs = sv_adjoint_of_bump(hb, rows, n_samples=30_000, seed=17)
    wfull = np.repeat(wr, nth) * (2.0 * math.pi / nth) * np.exp(
        -np.repeat(r, nth) ** 2)
    rhs = float(np.sum(wfull * vals.real))
    rhs_err = float(np.sum(np.abs(wfull) * errs))

    assert abs(lhs - rhs) <= 3.0 * (lhs_err + rhs_err)
    assert lhs > 0.01  # the pairing is genuinely nonzero


# ---------------------------------------------------------------------------
# commutation with the invariant operators
# ---------------------------------------------------------------------------


def test_sv_commutation_with_invariant_operators():
    f = _plane_of(_gauss_profile(2.4))
    op = euclidean_rep(casimir_sl2().scale(2))
    res_tot, res_fol = sv_commutation_residuals(f, 1, _PTS, op)
    assert res_tot < 1e-4
    assert res_fol < 1e-4
    res_tot2, res_fol2 = sv_commutation_residuals(f, 2, _PTS, op)
    assert res_fol2 < 1e-4
    # third-order stencils at the finer lattice scale lose one digit
    assert res_tot2 < 1e-3


def test_apply_euclidean_euler_closed_form():
    f = _gauss_plane(2.5)
    op = euclidean_rep(casimir_sl2().scale(2))
    df = apply_euclidean(op, f)
    z = np.array([0.3 + 0.4j, 0.9 - 0.2j, -0.7 + 0.8j, 1.2 + 0.1j])
    r2 = np.abs(z) ** 2
    want = (r2 ** 2 - 2.0 * r2) * np.exp(-r2)
    assert np.max(np.abs(df(z) - want)) < 1e-8


def test_apply_euclidean_zero_operator_returns_zeros():
    # the cubic Casimir's plane image is the zero operator
    op = euclidean_rep(casimir_saff().scale(2))
    assert not op.terms
    z = np.array([[0.3 + 0.4j, 0.9 - 0.2j, 3.0j], [-0.7 + 0.8j, 1.2, 0.0]])
    got = apply_euclidean(op, _gauss_plane(2.5))(z)
    assert got.shape == z.shape
    assert got.dtype == complex
    assert not np.any(got)


# ---------------------------------------------------------------------------
# orthogonality to cusp forms
# ---------------------------------------------------------------------------


def test_sv_orthogonal_to_poincare():
    f = _gauss_plane(2.5)
    phi = sv_rel_modular(f, 1)
    P = poincare(0, 1, 1, beta_bump(0.8, 1.6))
    est, err = inner_product(phi, P, n_samples=100_000, seed=13)
    assert abs(est) <= 3.0 * err


def test_sv_orthogonal_to_odd_row_series():
    # the M=2 transform only carries even fibre rows, the m=1 series only
    # the rows +-1, so the coefficient pairing vanishes row by row
    spec = QuadratureSpec(8, 32, 256)
    phi = sv_rel_modular(k_type_function(_ring_profile(), 2), 2)
    E = eisenstein(2, 1, beta_bump(0.8, 1.6))
    y = 1.2
    pairing = 0.0
    for mt in (-2, -1, 1, 2):
        c_sv = coeff_H0(phi, 0, mt, 3.4, spec)
        c_e = coeff_H0(E, 0, mt, y, QuadratureSpec(16, 16, 64))
        if mt % 2 != 0:
            assert abs(c_sv) < 1e-8
        else:
            assert abs(c_e) < 1e-8
        pairing += c_sv * np.conj(c_e)
    assert abs(pairing) < 1e-10


def test_sv_inner_product_cross_route():
    # <SV, SV> via the generic pairing against the plain second-moment MC,
    # over the same truncated measure
    f = _gauss_plane(2.5)
    phi = sv_rel_modular(f, 1)
    a, aerr = inner_product(phi, phi, n_samples=200_000, seed=29, y_max=1e3)
    b, berr = sv_second_moment_mc(f, 1, n_samples=200_000, seed=31,
                                  y_max=1e3)
    assert abs(a / VOLUME_SL2 - b) <= 3.0 * (aerr / VOLUME_SL2 + berr)

"""Tests for the profile-seeded series and the classical Eisenstein layer.

Oracles
-------
* coset canonicalization against brute-force minimization, and on
  generated pairs up to 10^6 against its defining properties;
* slash-invariance of the series under explicit integral elements;
* the reduced-coefficient identity checked through the FFT coefficient
  extractor at a height where only the two shear cosets survive;
* the evaluator bitwise against the dense loop over every coset of the box,
  on generated points (support edges, the radius guard's limit, no-support
  profiles);
* the series norm computed two ways (Monte Carlo pairing on the quotient
  versus the one-dimensional profile integral);
* the seed norm's Gauss-Legendre rule against 30-digit ``mpmath.quad``;
* wave-packet norms against closed-form Plancherel constants;
* the completed classical series summed directly versus its Fourier-Bessel
  expansion, and the expansion's symmetry under ``s -> 1 - s``.
"""

import math
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from strata.fourier import QuadratureSpec, coeff_H0_table
from strata.saff import (
    SAffElement,
    SL2Element,
    inner_product,
    sample_masur_veech,
    slash,
)
from strata.series import (
    BetaProfile,
    beta_bump,
    beta_discrete,
    beta_norm_sq,
    beta_whittaker,
    beta_ypower,
    classical_eisenstein,
    completed_eisenstein,
    completed_eisenstein_expansion,
    coset_list,
    eisenstein,
    poincare,
    seed,
)

RNG_SEED = 20260823


def _bump_psi(t):
    """Smooth bump in the spectral parameter, supported on (2, 3)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    s = (t - 2.5) / 0.5
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


PSI_SQ = quad(lambda t: float(_bump_psi(t) ** 2), 2.0, 3.0, epsabs=1e-14)[0]


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------


def test_coset_list_covers_coprime_pairs_once():
    radius = 6
    cosets = coset_list(radius)
    seen = {(c, d) for (c, d, _, _) in cosets}
    expected = {(c, d)
                for c in range(-radius, radius + 1)
                for d in range(-radius, radius + 1)
                if (c, d) != (0, 0) and gcd(abs(c), abs(d)) == 1}
    assert seen == expected
    assert len(cosets) == len(seen)  # no duplicates
    assert [(c, d) for (c, d, _, _) in cosets] == sorted(seen)
    for (c, d, a, b) in cosets:
        assert a * d - b * c == 1


def test_completion_minimizes_top_left_entry():
    for (c, d, a, b) in coset_list(5):
        if c == 0:
            assert (a, b) == (d, 0)
            continue
        # all completions differ by integer multiples of (c, d)
        for t in range(-4, 5):
            aa = a + t * c
            if t != 0:
                assert (abs(a), 0 if a > 0 else 1) <= (abs(aa), 0 if aa > 0 else 1)


def _coprime_pair(c, d, sign):
    """``sign (c, d) / gcd(c, d)``; ``(0, 0)`` becomes ``(0, sign)``."""
    g = gcd(c, d)
    return (sign * c // g, sign * d // g) if g else (0, sign)


# small entries as well, so that ties |a| = |a - c| (|c| = 2) come up
_ENTRY = st.one_of(st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6))


@given(pairs=st.lists(st.tuples(_ENTRY, _ENTRY, st.sampled_from([1, -1])),
                      min_size=1, max_size=50))
def test_completions_property(pairs):
    from strata.series import _completions

    c, d = np.array([_coprime_pair(*p) for p in pairs]).T
    a, b = _completions(c, d)
    assert np.all(a * d - b * c == 1)
    for ci, di, ai, bi in zip(c.tolist(), d.tolist(), a.tolist(), b.tolist()):
        if ci == 0:
            assert (ai, bi) == (di, 0)
            continue
        # the other completions are a + t c, t != 0; |t| > 2 lies further out
        for t in (-2, -1, 1, 2):
            rival = ai + t * ci
            assert (abs(ai), ai <= 0) < (abs(rival), rival <= 0)


# ---------------------------------------------------------------------------
# seed and series evaluation
# ---------------------------------------------------------------------------


def test_seed_evaluates_profile_times_character():
    beta = beta_bump(0.8, 1.6)
    phi = seed(3, 2, -1, beta)
    rng = np.random.default_rng(RNG_SEED)
    x = rng.uniform(-0.5, 0.5, 8)
    y = rng.uniform(0.9, 1.5, 8)
    u = rng.uniform(0.0, 1.0, 8)
    v = rng.uniform(0.0, 1.0, 8) * y
    want = beta(y) * np.exp(2j * math.pi * (2 * x - v / y))
    got = phi.fn(x, y, u, v)
    assert np.max(np.abs(got - want)) < 1e-14


def _sample_points(rng, n=6):
    x = rng.uniform(-0.4, 0.4, n)
    y = rng.uniform(0.9, 1.2, n)
    u = rng.uniform(0.0, 1.0, n)
    v = rng.uniform(0.0, 1.0, n) * y
    return x, y, u, v


def test_series_invariant_under_integral_elements():
    beta = beta_bump(0.8, 1.6)
    phi = poincare(3, 1, 1, beta, radius=8)
    rng = np.random.default_rng(RNG_SEED + 1)
    x, y, u, v = _sample_points(rng)
    base = phi.fn(x, y, u, v)
    t_mat = SL2Element(1, 1, 0, 1)
    s_mat = SL2Element(0, -1, 1, 0)
    elements = [
        SAffElement.from_sl2(t_mat),
        SAffElement.from_sl2(s_mat),
        SAffElement.from_sl2(t_mat @ s_mat),
        SAffElement.translation(1.0, 0.0),
        SAffElement.translation(0.0, 1.0),
        SAffElement.translation(2.0, -3.0),
        SAffElement(s_mat, (1.0, 1.0)),
    ]
    for e in elements:
        moved = slash(phi, e).fn(x, y, u, v)
        assert np.max(np.abs(moved - base)) < 5e-10


def test_eisenstein_invariant_under_inversion():
    beta = beta_bump(0.8, 1.6)
    phi = eisenstein(2, 1, beta, radius=8)
    rng = np.random.default_rng(RNG_SEED + 2)
    x, y, u, v = _sample_points(rng)
    base = phi.fn(x, y, u, v)
    e = SAffElement.from_sl2(SL2Element(0, -1, 1, 0))
    moved = slash(phi, e).fn(x, y, u, v)
    assert np.max(np.abs(moved - base)) < 5e-10


def test_series_radius_saturation():
    # compact support makes the coset sum finite: enlarging the radius past
    # the support bound must not change a single value
    beta = beta_bump(0.8, 1.6)
    rng = np.random.default_rng(RNG_SEED + 3)
    x, y, u, v = _sample_points(rng)
    small = poincare(2, 1, 1, beta, radius=4).fn(x, y, u, v)
    large = poincare(2, 1, 1, beta, radius=9).fn(x, y, u, v)
    assert np.max(np.abs(small - large)) < 1e-12


def _dense_poincare(k, n, m, beta, radius, x, y, u, v):
    """Reference evaluator: one full-array pass per coset of the box."""
    tau = x + 1j * y
    zc = u + 1j * v
    out = np.zeros(x.shape, dtype=complex)
    for (c, d, a, b) in coset_list(radius):
        jac = c * tau + d
        absj2 = jac.real ** 2 + jac.imag ** 2
        y2 = y / absj2
        if beta.support is not None:
            y0, y1 = beta.support
            mask = (y2 >= y0) & (y2 <= y1)
            if not mask.any():
                continue
        else:
            mask = slice(None)
        tg = (a * tau[mask] + b) / jac[mask]
        v2 = (zc[mask] / jac[mask]).imag
        phase = np.exp(2j * math.pi * (n * tg.real + m * v2 / tg.imag))
        out[mask] += jac[mask] ** (-k) * beta(tg.imag) * phase
    return out / math.sqrt(2.0)


def _oracle_points(seed, radius, xmax, y0, y1):
    """Points the radius guard admits for ``|x| <= xmax``: sampler points
    (``y`` up to 1e3), spread points down to the guard's ``y`` limit and
    points on the support edges ``y / |c tau + d|^2 = y0, y1``."""
    rng = np.random.default_rng(seed)
    # the guard needs 1/sqrt(y0 y) <= r and xmax max(1/sqrt(y0 y), 1) +
    # 1/y0 <= r
    xmax = min(xmax, radius - 1.0 / y0)
    cmax = min(radius, (radius - 1.0 / y0) / xmax)
    ymin = 1.0 / (y0 * cmax ** 2) * (1.0 + 1e-9)
    s = sample_masur_veech(300, seed, y_max=1e3)
    xs = [s.x, rng.uniform(-xmax, xmax, 100), [-xmax, 0.0, xmax]]
    ys = [s.y, ymin * np.exp(rng.exponential(1.0, 100)), [ymin] * 3]
    for t in (y0, y1):
        c = rng.integers(1, 4, 100) * rng.choice([-1, 1], 100)
        d = rng.integers(-radius, radius + 1, 100)
        # y solves t c^2 y^2 - y + t w^2 = 0 for w = c x + d; |w| small
        # enough makes both roots real
        w = rng.uniform(-1.0, 1.0, 100) / (2.0 * t * np.abs(c))
        root = np.sqrt(1.0 - (2.0 * t * c * w) ** 2)
        for sign in (-1.0, 1.0):
            xs.append((w - d) / c)
            ys.append((1.0 + sign * root) / (2.0 * t * c ** 2))
        xs.append(rng.uniform(-xmax, xmax, 10))
        ys.append(np.full(10, t))  # c = 0, d = +/-1
    x, y = np.concatenate(xs), np.concatenate(ys)
    keep = (y >= ymin) & (np.abs(x) <= xmax)
    x, y = x[keep], y[keep]
    u = rng.uniform(-2.0, 2.0, x.size)
    v = rng.uniform(-2.0, 2.0, x.size) * y
    return x, y, u, v


# the bump vanishes at its ends; the cut-off exponential does not, so a
# coset dropped at a support edge changes its value
_ORACLE_PROFILES = {
    "bump": beta_bump(0.8, 1.6),
    "cut": BetaProfile(lambda y: np.exp(-y), support=(0.8, 1.6)),
    "discrete": beta_discrete(2, 1),
}


@settings(max_examples=60)
@given(k=st.integers(0, 3), n=st.sampled_from([0, 1, -2]),
       m=st.sampled_from([1, -1]), radius=st.integers(4, 12),
       xmax=st.floats(0.5, 3.0), seed=st.integers(0, 2 ** 32 - 1),
       profile=st.sampled_from(sorted(_ORACLE_PROFILES)))
def test_series_matches_dense_coset_loop(k, n, m, radius, xmax, seed, profile):
    # the per-point candidate enumeration adds each point's terms in the
    # dense loop's (c, d) order, so values agree bit for bit
    beta = _ORACLE_PROFILES[profile]
    if beta.support is None:
        radius = 4
    x, y, u, v = _oracle_points(seed, radius, xmax, 0.8, 1.6)
    got = poincare(k, n, m, beta, radius).fn(x, y, u, v)
    want = _dense_poincare(k, n, m, beta, radius, x, y, u, v)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_series_radius_guard_raises():
    beta = beta_bump(0.8, 1.6)
    phi = poincare(2, 1, 1, beta, radius=1)
    with pytest.raises(ValueError):
        phi.fn(0.3, 0.05, 0.1, 0.02)


def test_series_radius_guard_is_exact():
    # at tau = 3 + i the coset (1, -3) maps the point to height 1, inside
    # the support; radius 3 holds every contributing coset (a guard from a
    # bound on the point would ask for 5), radius 2 does not
    beta = beta_bump(0.8, 1.6)
    got = poincare(2, 1, 1, beta, radius=3).fn(3.0, 1.0, 0.1, 0.02)
    want = poincare(2, 1, 1, beta, radius=12).fn(3.0, 1.0, 0.1, 0.02)
    assert np.array_equal(np.atleast_1d(got).view(np.uint64),
                          np.atleast_1d(want).view(np.uint64))
    with pytest.raises(ValueError):
        poincare(2, 1, 1, beta, radius=2).fn(3.0, 1.0, 0.1, 0.02)


def test_series_radius_guard_is_per_point():
    # the guard checks only contributing cosets: none contributes at
    # (0, 0.05), those at (0.2, 0.05) need radius 5 (the value is about
    # 10.68 - 5.70i), those at (3, 1) need radius 3, and the batch needs 5
    E = eisenstein(2, 1, beta_bump(0.8, 1.6), radius=12)
    xs, ys = [0.0, 0.2, 3.0], [0.05, 0.05, 1.0]
    batch = E.fn(xs, ys, 0.1, 0.02)
    single = np.array([E.fn(x, y, 0.1, 0.02) for x, y in zip(xs, ys)])
    assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))
    assert abs(single[1] - (10.68 - 5.70j)) < 0.01


# ---------------------------------------------------------------------------
# reduced coefficients
# ---------------------------------------------------------------------------


def _h0_table(phi, y_star):
    spec = QuadratureSpec(nx=32, nu=8, nv=32)
    return spec, coeff_H0_table(phi, y_star, spec)


def test_reduced_coefficients_even_weight():
    # at this height |c tau + d|^2 >= y^2 > y / y0 for c != 0, so only the
    # two shear cosets contribute and the coefficient identity is exact
    beta = beta_bump(0.8, 1.6)
    y_star = 1.4
    want = beta(y_star) / math.sqrt(2.0)

    spec, table = _h0_table(eisenstein(2, 1, beta, radius=6), y_star)
    assert abs(table[0, 1 % spec.nv] - want) < 1e-10
    assert abs(table[0, -1 % spec.nv] - want) < 1e-10
    for n in range(-3, 4):
        for m in range(-3, 4):
            if n == 0 and m in (1, -1):
                continue
            assert abs(table[n % spec.nx, m % spec.nv]) < 1e-10

    spec, table = _h0_table(poincare(2, 1, 1, beta, radius=6), y_star)
    assert abs(table[1, 1 % spec.nv] - want) < 1e-10
    assert abs(table[1, -1 % spec.nv] - want) < 1e-10
    for n in range(-3, 4):
        for m in range(-3, 4):
            if n == 1 and m in (1, -1):
                continue
            assert abs(table[n % spec.nx, m % spec.nv]) < 1e-10


def test_reduced_coefficients_odd_weight_sign():
    # the negated-pair coset flips the sign of the mirrored coefficient at
    # odd weight
    beta = beta_bump(0.8, 1.6)
    y_star = 1.4
    want = beta(y_star) / math.sqrt(2.0)
    spec, table = _h0_table(poincare(3, 1, 1, beta, radius=6), y_star)
    assert abs(table[1, 1 % spec.nv] - want) < 1e-10
    assert abs(table[1, -1 % spec.nv] + want) < 1e-10


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_series_norm_matches_profile_integral():
    # Monte Carlo pairing over the quotient against the unfolded
    # one-dimensional integral of the profile
    beta = beta_bump(0.8, 1.6)
    phi = eisenstein(2, 1, beta, radius=6)
    want = beta_norm_sq(beta, 2, 0.7, 1.7)
    est, err = inner_product(phi, phi, n_samples=120_000, seed=11)
    assert err / want < 0.02
    assert abs(est - want) < 4.0 * err


def test_ypower_packet_norm_constant():
    # packets of unitary-axis powers: squared norm 4 pi ||psi||^2 for either
    # sign, and the two signs are orthogonal
    k = 2
    plus = beta_ypower(k, _bump_psi, (2.0, 3.0), sign=1)
    minus = beta_ypower(k, _bump_psi, (2.0, 3.0), sign=-1)
    s = np.linspace(-60.0, 60.0, 6001)
    y = np.exp(s)
    # int |beta|^2 y^(k-2) dy = int |beta|^2 y^(k-1) ds
    vp = plus(y)
    vm = minus(y)
    norm_plus = np.trapezoid(np.abs(vp) ** 2 * y ** (k - 1), s)
    norm_minus = np.trapezoid(np.abs(vm) ** 2 * y ** (k - 1), s)
    cross = np.trapezoid(vp * np.conj(vm) * y ** (k - 1), s)
    # accuracy is set by how well the node mesh resolves the sinc kernel of
    # the window, not by the trapezoid rule (the integrand is band-limited)
    want = 4.0 * math.pi * PSI_SQ
    assert abs(norm_plus - want) / want < 5e-5
    assert abs(norm_minus - want) / want < 5e-5
    assert abs(cross) / want < 5e-5


def test_whittaker_packet_norm_constant():
    # measured Plancherel constant for the normalized Whittaker packets:
    # ||beta||^2 = ||psi||^2 / (2 n^2), independent of the weight
    cases = [(2, 1, 0.5), (2, 2, 0.125)]
    for k, n, const in cases:
        beta = beta_whittaker(k, n, _bump_psi, (2.0, 3.0), n_t=32)
        s = np.linspace(-24.0, 18.0, 221)
        y = np.exp(s)
        vals = beta(y)
        got = np.trapezoid(np.abs(vals) ** 2 * y ** (k - 1), s)
        want = const * PSI_SQ
        assert abs(got - want) / want < 3e-3


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_discrete_profile_forms():
    y = np.array([0.5, 1.0, 2.0])
    up = beta_discrete(2, 1)
    down = beta_discrete(-2, -1)
    assert np.allclose(up(y), np.exp(-2 * math.pi * y))
    assert np.allclose(down(y), y ** 2 * np.exp(-2 * math.pi * y))
    with pytest.raises(ValueError):
        beta_discrete(2, -1)
    with pytest.raises(ValueError):
        beta_discrete(0, 1)


def test_bump_profile_support_and_norm():
    beta = beta_bump(0.8, 1.6)
    assert beta(0.7) == 0.0 and beta(1.7) == 0.0
    assert abs(beta(1.2) - math.exp(-1.0)) < 1e-14
    with pytest.raises(ValueError):
        beta_bump(1.6, 0.8)
    # the Gauss-Legendre seed norm against a dense trapezoid oracle
    want = beta_norm_sq(beta, 2, 0.7, 1.7)
    yy = np.linspace(0.7, 1.7, 20001)
    oracle = np.trapezoid(np.abs(beta(yy)) ** 2 * yy ** 0, yy)
    assert abs(want - oracle) / oracle < 1e-8


def _mp_bump_sq(y0, y1):
    """``beta_bump(y0, y1)**2`` in mpmath arithmetic."""
    mid, half = (mpmath.mpf(y0) + y1) / 2, (mpmath.mpf(y1) - y0) / 2

    def fn(y):
        t = (y - mid) / half
        return mpmath.exp(-2 / (1 - t * t)) if abs(t) < 1 else mpmath.mpf(0)
    return fn


@pytest.mark.parametrize("beta, mp_sq, k, lo, hi", [
    pytest.param(beta_bump(0.8, 1.6), _mp_bump_sq(0.8, 1.6), k, 0.7, 1.7,
                 id=f"bump-k{k}") for k in (0, 2, 4)] + [
    pytest.param(beta_discrete(2, 1),
                 lambda y: mpmath.exp(-4 * mpmath.pi * y), 2, 0.5, 3.0,
                 id="discrete-unsupported"),
])
def test_seed_norm_matches_mpmath_oracle(beta, mp_sq, k, lo, hi):
    """The doubling Gauss-Legendre rule against 30-digit ``mpmath.quad``
    (at ``k = 0`` ``scipy.integrate.quad`` with ``epsrel=1e-13`` is itself
    7.7e-12 off)."""
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda y: mp_sq(y) * y ** (k - 2),
                                mpmath.linspace(lo, hi, 6)))
    assert abs(beta_norm_sq(beta, k, lo, hi) - ref) <= 1e-12 * ref


def test_seed_norm_cuts_to_the_support():
    beta = beta_bump(0.8, 1.6)
    assert beta_norm_sq(beta, 2, 0.7, 1.7) == beta_norm_sq(beta, 2, 0.8, 1.6)
    assert beta_norm_sq(beta, 2, 2.0, 3.0) == 0.0
    assert beta_norm_sq(beta, 2, 0.1, 0.8) == 0.0


@pytest.mark.parametrize("beta, lo, hi", [
    (beta_bump(0.8, 1.6), 1.7, 0.7),
    (beta_bump(0.8, 1.6), 1.0, 1.0),
    (beta_bump(0.8, 1.6), math.nan, 1.7),
    (beta_discrete(2, 1), 0.5, math.inf),
    (BetaProfile(lambda y: np.where(y < 1.2, 1.0, math.nan)), 0.8, 1.6),
])
def test_seed_norm_rejects_what_it_cannot_integrate(beta, lo, hi):
    with pytest.raises(ValueError):
        beta_norm_sq(beta, 2, lo, hi)


def test_seed_norm_raises_on_an_interior_jump():
    # off the midpoint: a jump there is integrated exactly by symmetry
    jump = BetaProfile(lambda y: np.where(y < 1.3, 1.0, 2.0), (0.8, 1.6))
    with pytest.raises(RuntimeError, match="1024 nodes"):
        beta_norm_sq(jump, 2, 0.8, 1.6)


def test_profile_values_keep_their_kind():
    y = np.array([0.5, 1.0, 1.5, 2.0])
    real = BetaProfile(lambda y: np.exp(-y), support=(0.8, 1.6))
    cplx = BetaProfile(lambda y: np.exp(1j * y), support=(0.8, 1.6))
    assert real(y).dtype == np.float64
    assert beta_bump(0.8, 1.6)(y).dtype == np.float64
    assert cplx(y).dtype == np.complex128
    for beta in (real, cplx):
        vals = beta(y)
        assert np.all(vals[[0, 3]] == 0.0) and np.all(vals[1:3] != 0.0)


def test_whittaker_profile_requires_positive_support():
    with pytest.raises(ValueError):
        beta_whittaker(2, 1, _bump_psi, (-1.0, 2.0))
    beta = beta_whittaker(2, 1, _bump_psi, (2.0, 3.0), n_t=4)
    for y in (-1.0, 0.0, math.nan, [0.5, -0.5]):
        with pytest.raises(ValueError, match="x must be"):
            beta(y)
    with pytest.raises(ValueError):
        beta_ypower(2, _bump_psi, (2.0, 3.0), sign=2)


# ---------------------------------------------------------------------------
# classical Eisenstein series
# ---------------------------------------------------------------------------


def test_completed_series_two_routes_agree():
    tau = 0.3 + 0.8j
    s = 2.5
    direct = completed_eisenstein(tau, s, radius=100)
    expanded = completed_eisenstein_expansion(tau, s, n_terms=30)
    assert abs(direct - expanded) / abs(expanded) < 1e-4


def test_completed_series_functional_equation():
    tau = 0.3 + 0.8j
    for s in (2.5, 1.3):
        left = completed_eisenstein_expansion(tau, s, n_terms=30)
        right = completed_eisenstein_expansion(tau, 1.0 - s, n_terms=30)
        assert abs(left - right) / abs(left) < 1e-10


def test_raw_series_positive_and_scales():
    # sanity: the raw sum is positive for real s and dominated by the
    # identity coset high in the cusp
    val = classical_eisenstein(0.0 + 4.0j, 2.0, radius=40)
    assert val.imag == 0.0
    assert val.real > 0.0
    assert abs(val.real - 4.0 ** 2 * 1.0) / 4.0 ** 2 < 0.2

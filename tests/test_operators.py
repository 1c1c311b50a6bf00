"""Tests for the invariant differential operators.

Oracles
-------
* closed-form derivatives of elementary functions for the stencil engine;
* the exact eigenvalue of the cubic operator on characters;
* agreement of independent coordinate routes for the same operator;
* operator factorizations (weight-shifting pair, fibre pair);
* covariance under the slash action;
* the exact radial reduction on seeds, with closed-form eigenfunction
  families whose eigenvalues are known analytically;
* the right-regular realization on the group: numerical commutators must
  reproduce the frozen structure constants, and the lift must carry the
  second- and third-order operators to central enveloping elements;
* the integration-by-parts identity for the compound operator.
"""

import itertools
import math

import numpy as np
import pytest

from strata.enveloping import (
    Element,
    GENERATORS,
    bracket,
    casimir_saff,
    casimir_sl2,
    generator,
)
from strata.operators import (
    compound,
    eigen_residual,
    fit_lambda,
    foliated,
    h_lowering,
    h_raising,
    lowering,
    mode_apply,
    mode_reduce_fol,
    partial_derivative,
    quadratic_form_residual,
    raising,
    right_derivative,
    right_regular_element,
    total,
    vertical,
    _RIGHT_H,
    _exp_real,
    _stencil,
)
from strata.saff import (
    IwasawaCoords,
    ModularFunction,
    SAffElement,
    SL2Element,
    element_from_iwasawa,
    iwasawa_from_element,
    lift,
    slash,
)
from strata.special import whittaker_w


# ---------------------------------------------------------------------------
# stencil engine
# ---------------------------------------------------------------------------


def test_stencil_weights_match_reference_tables():
    offs, w = _stencil(1)
    assert offs == (-2, -1, 0, 1, 2)
    assert np.allclose(w, np.array([1, -8, 0, 8, -1]) / 12.0)
    offs, w = _stencil(2)
    assert offs == (-2, -1, 0, 1, 2)
    assert np.allclose(w, np.array([-1, 16, -30, 16, -1]) / 12.0)
    offs, w = _stencil(3)
    assert offs == (-3, -2, -1, 0, 1, 2, 3)
    assert np.allclose(w, np.array([1, -8, 13, 0, -13, 8, -1]) / 8.0)


def _test_field(x, y, u, v):
    return (np.exp(2j * math.pi * (0.7 * x + 0.3 * u))
            * (np.asarray(y, float) + 0.5) ** 1.7
            * np.exp(-0.5 * (np.asarray(v, float) - 0.2) ** 2))


def test_partial_derivative_closed_forms():
    x, y, u, v = 0.13, 1.07, 0.41, 0.29
    base = _test_field(x, y, u, v)
    dx = partial_derivative(_test_field, (1, 0, 0, 0), x, y, u, v)
    assert abs(dx - 2j * math.pi * 0.7 * base) < 1e-8
    dyy = partial_derivative(_test_field, (0, 2, 0, 0), x, y, u, v)
    want = 1.7 * 0.7 * (y + 0.5) ** (-2) * base
    assert abs(dyy - want) < 1e-8
    dxuu = partial_derivative(_test_field, (1, 0, 2, 0), x, y, u, v)
    want = 2j * math.pi * 0.7 * (2j * math.pi * 0.3) ** 2 * base
    assert abs(dxuu - want) < 1e-5
    dv = partial_derivative(_test_field, (0, 0, 0, 1), x, y, u, v)
    assert abs(dv - (-(v - 0.2)) * base) < 1e-8
    # explicit step override takes effect and stays accurate
    dx2 = partial_derivative(_test_field, (1, 0, 0, 0), x, y, u, v, h=5e-4)
    assert abs(dx2 - 2j * math.pi * 0.7 * base) < 1e-7


# ---------------------------------------------------------------------------
# cubic operator on characters
# ---------------------------------------------------------------------------


def _character(n, m):
    def fn(x, y, u, v):
        return np.exp(2j * math.pi * (n * np.asarray(x, float)
                                      + m * np.asarray(v, float)
                                      / np.asarray(y, float)))
    return ModularFunction(fn, weight=0)


def test_total_character_eigenvalue():
    pts = (0.2, 1.3, 0.3, 0.5)
    for (n, m) in [(1, 1), (2, 1), (1, -3)]:
        ch = _character(n, m)
        got = total(ch).fn(*pts)
        want = -4.0 * math.pi ** 3 * n * m ** 2 * ch.fn(*pts)
        assert abs(got - want) / abs(want) < 1e-5


# ---------------------------------------------------------------------------
# coordinate routes, factorizations, covariance
# ---------------------------------------------------------------------------


def _generic_phi(weight=2):
    def fn(x, y, u, v):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return (np.exp(2j * math.pi * (0.6 * x + 0.4 * u))
                * (y + 0.3) ** 1.3 * np.exp(-0.6 * (v - 0.3) ** 2)
                * np.exp(0.2j * np.sin(2 * math.pi * x) + 0.1 * np.cos(v)))
    return ModularFunction(fn, weight=weight)


_PTS = (np.array([0.11, -0.23, 0.31]), np.array([0.97, 1.21, 1.55]),
        np.array([0.21, 0.44, -0.12]), np.array([0.35, 0.52, 0.18]))


def test_foliated_routes_agree():
    phi = _generic_phi()
    a = foliated(phi, "uv").fn(*_PTS)
    b = foliated(phi, "pq").fn(*_PTS)
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-7


def test_vertical_routes_agree():
    phi = _generic_phi()
    a = vertical(phi, "uv").fn(*_PTS)
    b = vertical(phi, "pq").fn(*_PTS)
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-7


def test_route_guard():
    with pytest.raises(ValueError):
        foliated(_generic_phi(), "bad")
    with pytest.raises(ValueError):
        vertical(_generic_phi(), "bad")


def test_weight_shifting_factorization():
    phi = _generic_phi()
    low = lowering(phi)
    assert low.weight == phi.weight - 2
    ras = raising(low)
    assert ras.weight == phi.weight
    got = ras.fn(*_PTS)
    want = foliated(phi).fn(*_PTS)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-6


def test_fibre_factorization_both_orders():
    phi = _generic_phi()
    want = vertical(phi).fn(*_PTS)
    a = h_raising(h_lowering(phi)).fn(*_PTS)
    b = h_lowering(h_raising(phi)).fn(*_PTS)
    assert h_lowering(phi).weight == phi.weight - 1
    assert h_raising(phi).weight == phi.weight + 1
    assert np.max(np.abs(a - want)) / np.max(np.abs(want)) < 1e-8
    assert np.max(np.abs(b - want)) / np.max(np.abs(want)) < 1e-8


def test_slash_covariance():
    phi = _generic_phi()
    s_elt = SAffElement.from_sl2(SL2Element(0.0, -1.0, 1.0, 0.0))
    shift = SAffElement.translation(1.0, -1.0)
    for op, tol in ((foliated, 1e-7), (vertical, 1e-9), (lowering, 1e-8),
                    (raising, 1e-8), (h_lowering, 1e-10), (h_raising, 1e-10),
                    (total, 1e-4)):
        for elt in (s_elt, shift):
            lhs = op(slash(phi, elt)).fn(*_PTS)
            rhs = slash(op(phi), elt).fn(*_PTS)
            assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < tol


@pytest.mark.parametrize("op, calls", [
    (lowering, 16), (raising, 17), (h_lowering, 8), (h_raising, 8),
    (lambda phi: foliated(phi, "uv"), 57),
    (lambda phi: foliated(phi, "pq"), 13),
    (lambda phi: vertical(phi, "uv"), 9),
    (lambda phi: vertical(phi, "pq"), 26),
    (total, 137),
    (lambda phi: compound(phi, 0.37), 57),
], ids=["lowering", "raising", "h_lowering", "h_raising", "foliated_uv",
        "foliated_pq", "vertical_uv", "vertical_pq", "total", "compound"])
def test_operator_function_calls_per_evaluation(op, calls):
    # one call per distinct stencil node, a node shared by several terms
    # (or by compound's foliated and vertical parts) counting once, plus
    # one for the undifferentiated point; the pq route of vertical keeps
    # its own chart derivatives
    phi = _generic_phi()
    count = []

    def counted(*args):
        count.append(1)
        return phi.fn(*args)

    op(ModularFunction(counted, phi.weight)).fn(*_PTS)
    assert len(count) == calls


def test_compound_wiring():
    phi = _generic_phi()
    eps = 0.37
    got = compound(phi, eps).fn(*_PTS)
    want = foliated(phi).fn(*_PTS) + eps * vertical(phi).fn(*_PTS)
    assert np.max(np.abs(got - want)) < 1e-10


# ---------------------------------------------------------------------------
# radial reduction on seeds
# ---------------------------------------------------------------------------


def _beta_gauss(y):
    return np.exp(-3.0 * (np.asarray(y, float) - 1.2) ** 2)


def test_foliated_on_seed_reduces_to_radial():
    k, n, m = 2, 1, 1

    def fn(x, y, u, v):
        return _beta_gauss(y) * np.exp(2j * math.pi * (
            n * np.asarray(x, float)
            + m * np.asarray(v, float) / np.asarray(y, float)))

    sd = ModularFunction(fn, weight=k)
    x, y, u, v = 0.17, 1.05, 0.33, 0.46
    got = foliated(sd).fn(x, y, u, v)
    radial = mode_apply(_beta_gauss, k, n, np.array([y]))[0]
    want = -radial * np.exp(2j * math.pi * (n * x + m * v / y))
    assert abs(got - want) / abs(want) < 1e-8


def test_vertical_on_seed_multiplies_by_mode():
    k, n, m = 2, 1, 2

    def fn(x, y, u, v):
        return _beta_gauss(y) * np.exp(2j * math.pi * (
            n * np.asarray(x, float)
            + m * np.asarray(v, float) / np.asarray(y, float)))

    sd = ModularFunction(fn, weight=k)
    x, y, u, v = 0.17, 1.05, 0.33, 0.46
    got = vertical(sd).fn(x, y, u, v)
    want = -math.pi ** 2 * m ** 2 / y * fn(x, y, u, v)
    assert abs(got - want) / abs(want) < 1e-8


def test_mode_operators_relation():
    y = np.linspace(0.8, 1.8, 20)
    # the drift-free variant coincides with the radial operator at weight 0
    assert np.max(np.abs(mode_reduce_fol(_beta_gauss, 0, 1, y)
                         - mode_apply(_beta_gauss, 0, 1, y))) == 0.0
    # and differs by k y d_y at weight 2
    diff = mode_reduce_fol(_beta_gauss, 2, 1, y) - mode_apply(_beta_gauss, 2, 1, y)
    offs, w1 = _stencil(1)
    h = 1e-3
    d1 = sum(w * _beta_gauss(y * math.exp(o * h))
             for o, w in zip(offs, w1) if w) / h
    assert np.max(np.abs(diff - 2.0 * d1)) < 1e-8


def test_eigen_family_power_law():
    k, t = 3, 1.7
    lam_want = t ** 2 + (1 - k) ** 2 / 4.0

    def beta(y):
        return np.asarray(y, complex) ** ((1 - k) / 2.0 + 1j * t)

    for grid in (np.linspace(0.5, 2.0, 40), np.geomspace(0.3, 5.0, 60)):
        lam = fit_lambda(beta, k, 0, grid)
        assert abs(lam - lam_want) < 1e-6
        assert eigen_residual(beta, k, 0, lam_want, grid) < 1e-6


def test_eigen_family_discrete():
    def beta(y):
        return np.exp(-2.0 * math.pi * np.asarray(y, float))

    for grid in (np.linspace(0.4, 2.5, 50), np.geomspace(0.2, 4.0, 64)):
        lam = fit_lambda(beta, 2, 1, grid)
        assert abs(lam) < 1e-6
        assert eigen_residual(beta, 2, 1, 0.0, grid) < 1e-6


def test_eigen_family_whittaker():
    t = 1.3
    lam_want = t ** 2 + 0.25

    def beta(y):
        y = np.asarray(y, float)
        return np.asarray(whittaker_w(1.0, 1j * t, 4.0 * math.pi * y),
                          complex) / y

    for grid in (np.linspace(0.4, 2.5, 30), np.geomspace(0.3, 3.0, 40)):
        lam = fit_lambda(beta, 2, 1, grid)
        assert abs(lam - lam_want) < 1e-6
        assert eigen_residual(beta, 2, 1, lam_want, grid) < 1e-6


def test_fit_lambda_rejects_vanishing_profile():
    with pytest.raises(ValueError):
        fit_lambda(lambda y: 0.0 * np.asarray(y), 0, 0, np.linspace(1, 2, 5))


# ---------------------------------------------------------------------------
# right-regular realization and lift intertwining
# ---------------------------------------------------------------------------


def _group_test_function(e):
    c = iwasawa_from_element(e)
    return (np.exp(2j * c.theta) * c.y ** 1.3
            * np.exp(-((c.x - 0.1) ** 2 + (c.w1 - 0.2) ** 2 + c.w2 ** 2))
            * (1.0 + 0.3 * np.sin(2.0 * c.x)))


_BASE_ELT = element_from_iwasawa(
    IwasawaCoords(x=0.2, y=1.1, w1=0.15, w2=-0.3, theta=0.3))


def test_right_regular_commutators_match_structure_constants():
    pairs = [("Z", "Xp"), ("Z", "Xm"), ("Xp", "Xm"), ("Z", "Yp"),
             ("Xp", "Ym"), ("Xm", "Yp"), ("Yp", "Ym")]
    for na, nb in pairs:
        ia, ib = GENERATORS.index(na), GENERATORS.index(nb)
        lhs = (right_regular_element(
            _group_test_function, Element({(ia, ib): 1}), _BASE_ELT)
            - right_regular_element(
                _group_test_function, Element({(ib, ia): 1}), _BASE_ELT))
        rhs_elem = bracket(generator(na), generator(nb))
        rhs = right_regular_element(_group_test_function, rhs_elem, _BASE_ELT)
        scale = max(abs(lhs), abs(rhs), 0.1)
        assert abs(lhs - rhs) / scale < 1e-3


def test_right_derivative_along_horocycle():
    # d/dt F(e exp(t F_shear)) against a two-sided secant oracle
    fun = _group_test_function
    got = right_derivative(fun, _BASE_ELT, "F")
    eps = 1e-5
    shift = SAffElement.from_sl2(SL2Element(1.0, eps, 0.0, 1.0))
    down = SAffElement.from_sl2(SL2Element(1.0, -eps, 0.0, 1.0))
    sec = (fun(_BASE_ELT.compose(shift)) - fun(_BASE_ELT.compose(down))) / (2 * eps)
    assert abs(got - sec) < 1e-6


def _right_word_loop(fun, e, word):
    """Reference: nested first right derivatives by scalar recursion, one
    call of ``fun`` per stencil node."""
    if not word:
        return fun(e)
    total_val = 0.0 + 0.0j
    for o, w in zip(*_stencil(1)):
        if w != 0.0:
            total_val += w * _right_word_loop(
                fun, e.compose(_exp_real(word[0], o * _RIGHT_H)), word[1:])
    return total_val / _RIGHT_H


def test_right_derivative_matches_scalar_recursion():
    """One call on the array-valued element over a word's stencil grid
    gives the nested scalar derivatives for every word of one to three
    real letters, within rounding amplified by the stencil:
    ``eps (1.5 / h)^L`` times the value (1.5 is the sum of the stencil's
    absolute weights)."""
    fun = lift(_seed_phi())
    e = SAffElement(SL2Element(1.3, 0.4, 0.2, (1 + 0.4 * 0.2) / 1.3),
                    (0.3, -0.2))
    scale = 16.0 * np.finfo(float).eps * max(1.0, abs(fun(e)))
    for length in (1, 2, 3):
        bound = scale * (1.5 / _RIGHT_H) ** length
        for word in itertools.product("FHGPQ", repeat=length):
            got = right_derivative(fun, e, word)
            assert abs(got - _right_word_loop(fun, e, word)) <= bound


def _seed_phi(k=2, n=1, m=1):
    def fn(x, y, u, v):
        return _beta_gauss(y) * np.exp(2j * math.pi * (
            n * np.asarray(x, float)
            + m * np.asarray(v, float) / np.asarray(y, float)))
    return ModularFunction(fn, weight=k)


def test_lift_intertwines_quadratic_element():
    # the lift carries the foliated operator to the right-regular action of
    # twice the quadratic central element
    phi = _seed_phi()
    e = SAffElement(SL2Element(1.3, 0.4, 0.2, (1 + 0.4 * 0.2) / 1.3),
                    (0.3, -0.2))
    lhs = right_regular_element(lift(phi), casimir_sl2().scale(2), e)
    rhs = lift(foliated(phi))(e)
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_lift_intertwines_cubic_element():
    # measured normalization: the cubic operator matches the cubic central
    # element itself (not twice it) in the frozen basis
    phi = _seed_phi()
    e = SAffElement(SL2Element(1.3, 0.4, 0.2, (1 + 0.4 * 0.2) / 1.3),
                    (0.3, -0.2))
    lhs = right_regular_element(lift(phi), casimir_saff(), e)
    rhs = lift(total(phi))(e)
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_right_regular_element_evaluates_each_real_word_once():
    # the cubic element expands into 32 real words, of which 8 are distinct;
    # each word of three letters is one call on an array-valued element
    # over its 4^3 stencil nodes
    phi = _seed_phi()
    e = SAffElement(SL2Element(1.3, 0.4, 0.2, (1 + 0.4 * 0.2) / 1.3),
                    (0.3, -0.2))
    calls = []
    lifted = lift(phi)

    def counted(g):
        calls.append(np.broadcast_shapes(
            *map(np.shape, (g.g.a, g.g.b, g.g.c, g.g.d, *g.w))))
        return lifted(g)

    right_regular_element(counted, casimir_saff(), e)
    assert calls == [(4, 4, 4)] * 8


# ---------------------------------------------------------------------------
# quadratic-form identity
# ---------------------------------------------------------------------------


def _bump(t, a, b):
    t = np.asarray(t, float)
    s = (t - 0.5 * (a + b)) / (0.5 * (b - a))
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def _box_function(tw1, tw2):
    def fn(x, y, u, v):
        x, y, u, v = np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float),
            np.asarray(u, float), np.asarray(v, float))
        p = v / y
        q = u - v * x / y
        return (_bump(x, -0.4, 0.4) * _bump(y, 0.8, 1.6)
                * _bump(p, 0.1, 0.9) * _bump(q, -0.3, 0.5)
                * np.exp(2j * math.pi * (tw1 * x + tw2 * q)))
    return ModularFunction(fn, weight=2)


_BOX = {"x": (-0.4, 0.4), "y": (0.8, 1.6), "p": (0.1, 0.9), "q": (-0.3, 0.5)}


def test_quadratic_form_identity():
    phi = _box_function(1.0, 0.5)
    psi = _box_function(0.5, -1.0)
    for eps in (0.0, 0.37):
        res = quadratic_form_residual(phi, psi, eps, _BOX, n_nodes=20)
        assert res < 2e-4


def test_quadratic_form_weight_guard():
    phi = _box_function(1.0, 0.5)
    psi = _box_function(0.5, -1.0)
    psi.weight = 3
    with pytest.raises(ValueError):
        quadratic_form_residual(phi, psi, 0.1, _BOX)

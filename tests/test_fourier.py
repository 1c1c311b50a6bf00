"""Tests for torus/Heisenberg coefficient extraction.

Test functions are built with hand-planted Fourier data so every extracted
coefficient has a closed-form target; quadrature oracles (scipy.integrate)
back the scalar-product identity.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from strata.fourier import (
    QuadratureSpec,
    coeff_H,
    coeff_H0,
    coeff_H0_table,
    coeff_T,
    coeffs_to_csv,
    heisenberg_average,
    is_cusp_form,
    is_genuine,
    relation_T_H0_residual,
    scalar_product_via_coeffs,
    torus_equivariance_residual,
)
from strata.saff import (
    IwasawaCoords,
    ModularFunction,
    SAffElement,
    SL2Element,
    element_from_iwasawa,
)

TWO_PI_I = 2j * math.pi


def planted_modes(k=2):
    """phi = sum g_nm(y) e(n x) e(m v / y) for a few planted (n, m)."""
    gs = {
        (1, 1): lambda y: np.exp(-((np.log(y)) ** 2)),
        (-2, 1): lambda y: y * np.exp(-y),
        (0, 2): lambda y: np.exp(-((np.log(y) - 0.4) ** 2) * 2.0),
    }

    def fn(x, y, u, v):
        out = np.zeros(np.broadcast(x, y, u, v).shape, dtype=complex)
        for (n, m), g in gs.items():
            out = out + g(y) * np.exp(TWO_PI_I * (n * x + m * v / y))
        return out

    return ModularFunction(fn, weight=k), gs


def test_coeff_h0_recovers_planted_modes():
    phi, gs = planted_modes()
    for y in (0.7, 1.0, 2.3):
        for (n, m), g in gs.items():
            got = coeff_H0(phi, n, m, y)
            assert abs(got - g(y)) < 1e-12
        # absent modes vanish
        assert abs(coeff_H0(phi, 2, 1, y)) < 1e-12
        assert abs(coeff_H0(phi, 1, -1, y)) < 1e-12


def test_coeff_h_recovers_planted_xu_modes():
    h = lambda y, v: np.exp(-y) * (1.0 + 0.5 * np.sin(2 * math.pi * v / y))
    phi = ModularFunction(
        lambda x, y, u, v: h(y, v) * np.exp(TWO_PI_I * (2 * x + 3 * u)),
        weight=0)
    y, w1 = 1.3, 0.27
    got = coeff_H(phi, 2, 3, y, w1)
    assert abs(got - h(y, w1 * y)) < 1e-12
    assert abs(coeff_H(phi, 2, 2, y, w1)) < 1e-12


def test_coeff_t_recovers_pq_modes():
    c11 = lambda tau: np.exp(1j * tau)
    c0m1 = lambda tau: 1.0 / tau

    def fn(x, y, u, v):
        tau = x + 1j * y
        p = v / y
        q = u - v * x / y
        return (c11(tau) * np.exp(TWO_PI_I * (p + q))
                + c0m1(tau) * np.exp(TWO_PI_I * (-q)))

    phi = ModularFunction(fn, weight=1)
    tau = 0.31 + 1.7j
    assert abs(coeff_T(phi, 1, 1, tau) - c11(tau)) < 1e-12
    assert abs(coeff_T(phi, 0, -1, tau) - c0m1(tau)) < 1e-12
    assert abs(coeff_T(phi, 1, 0, tau)) < 1e-12
    assert abs(coeff_T(phi, 0, 0, tau)) < 1e-12


def test_coeff_table_owns_its_data():
    phi, _ = planted_modes()
    table = coeff_H0_table(phi, 1.3, QuadratureSpec(8, 4, 16))
    assert table.shape == (8, 16)
    assert table.base is None


def test_relation_between_t_and_h0():
    phi, _ = planted_modes()
    for tau in (0.2 + 0.9j, -0.4 + 2.0j):
        assert relation_T_H0_residual(phi, tau, m=1) < 1e-10
        assert relation_T_H0_residual(phi, tau, m=2) < 1e-10


def test_relation_rejects_aliasing_grid():
    # |n| <= 8 needs nx > 16; a coarser grid would fold aliased modes in
    phi, _ = planted_modes()
    for nx in (8, 16):
        with pytest.raises(ValueError, match="out of band"):
            relation_T_H0_residual(phi, 0.2 + 0.9j, 1,
                                   QuadratureSpec(nx, 64, 64))
    with pytest.raises(ValueError, match="out of band"):
        relation_T_H0_residual(phi, 0.2 + 0.9j, 4, QuadratureSpec(64, 64, 8))
    assert relation_T_H0_residual(phi, 0.2 + 0.9j, 1,
                                  QuadratureSpec(18, 64, 64)) < 1e-10


def test_torus_equivariance_under_integral_elements():
    """Index transport (m~, r~) = (m a + r b, m c + r d) under the slash."""

    def fn(x, y, u, v):
        tau = x + 1j * y
        p = v / y
        q = u - v * x / y
        w = np.exp(-((np.log(y)) ** 2) + 0.2j * x)
        return w * (np.exp(TWO_PI_I * (p + 2 * q)) + 0.5 * np.exp(TWO_PI_I * (-p + q)))

    phi = ModularFunction(fn, weight=2)
    tau = 0.17 + 1.31j
    gammas = [
        SL2Element(1.0, 1.0, 0.0, 1.0),
        SL2Element(0.0, -1.0, 1.0, 0.0),
        SL2Element(2.0, 1.0, 1.0, 1.0),
    ]
    for g in gammas:
        e = SAffElement.from_sl2(g)
        for (m, r) in [(1, 2), (-1, 1)]:
            assert torus_equivariance_residual(phi, e, m, r, tau) < 1e-9


def test_scalar_product_matches_quadrature_oracle():
    phi, gs = planted_modes(k=2)
    got = scalar_product_via_coeffs(phi, phi, n_max=3, m_max=3,
                                    y_min=0.01, y_max=60.0, n_y=64)
    want = 0.0
    for (n, m), g in gs.items():
        val, _ = integrate.quad(lambda y: abs(g(y)) ** 2, 0.01, 60.0)
        want += val  # k = 2: measure dy / y^0
    assert abs(got - want) < 1e-8 * want


def test_cusp_and_genuine_flags():
    phi, _ = planted_modes()  # contains an (n=0, m=2) mode: not cuspidal
    ok, worst = is_cusp_form(phi, y_grid=[0.8, 1.5])
    assert not ok and worst > 1e-3
    genuine, _ = is_genuine(phi, tau_grid=[0.2 + 0.9j, 1.8j])
    assert genuine  # no (0, 0) torus mode

    cuspy = ModularFunction(
        lambda x, y, u, v: np.exp(-((np.log(y)) ** 2))
        * np.exp(TWO_PI_I * (x + v / y)), weight=2)
    ok, worst = is_cusp_form(cuspy, y_grid=[0.8, 1.5])
    assert ok and worst < 1e-12

    const = ModularFunction(
        lambda x, y, u, v: np.ones(np.broadcast(x, y).shape, complex), weight=0)
    genuine, worst = is_genuine(const, tau_grid=[1.0j])
    assert not genuine and abs(worst - 1.0) < 1e-12


def test_heisenberg_average_closed_form():
    """Group-side average against a character equals the NAK closed form."""
    k, n, m = 3, 2, 1
    alpha = lambda a: np.exp(-((np.log(a)) ** 2))
    phi = ModularFunction(
        lambda x, y, u, v: alpha(np.sqrt(y)) * np.exp(TWO_PI_I * (n * x + m * v / y)),
        weight=k)
    for coords in [IwasawaCoords(0.3, 1.7, 0.21, -0.4, 0.9),
                   IwasawaCoords(-0.8, 0.6, 0.0, 0.33, -2.1)]:
        e = element_from_iwasawa(coords)
        got = heisenberg_average(phi, n, m, e, n_nodes=32)
        a = math.sqrt(coords.y)
        want = (np.exp(1j * k * coords.theta) * a ** k
                * coeff_H0(phi, n, m, coords.y)
                * np.exp(TWO_PI_I * (n * coords.x + m * coords.w1)))
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
        # mismatched character annihilates
        assert abs(heisenberg_average(phi, n + 1, m, e, n_nodes=32)) < 1e-12
        assert abs(heisenberg_average(phi, n, m + 1, e, n_nodes=32)) < 1e-12


def test_mode_band_guard():
    phi, _ = planted_modes()
    with pytest.raises(ValueError):
        coeff_H0(phi, 40, 0, 1.0, QuadratureSpec(nx=64, nu=64, nv=64))


def test_csv_emitter():
    rows = [(1, 1, 0.5, 0.25, 0.0), (0, 2, 1.0, -0.125, 0.5)]
    text = coeffs_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,m,y,re,im"
    assert lines[1] == "1,1,0.5,0.25,0.0"
    assert len(lines) == 3

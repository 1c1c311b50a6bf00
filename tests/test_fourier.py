"""Tests for torus/Heisenberg coefficient extraction.

Test functions are built with hand-planted Fourier data so every extracted
coefficient has a closed-form target; quadrature oracles (scipy.integrate)
back the scalar-product identity.
"""

import math
import tracemalloc

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
from strata.series import beta_bump, eisenstein
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


def _table_by_fftn(phi, y, spec):
    """The one-shot reference: ``phi`` on the whole grid, a 3D FFT, and
    its ``r = 0`` slice."""
    x = np.arange(spec.nx)[:, None, None] / spec.nx
    u = np.arange(spec.nu)[None, :, None] / spec.nu
    t = np.arange(spec.nv)[None, None, :] / spec.nv
    shape = (spec.nx, spec.nu, spec.nv)
    vals = phi.fn(np.broadcast_to(x, shape), np.full(shape, y),
                  np.broadcast_to(u, shape), np.broadcast_to(y * t, shape))
    table = np.fft.fftn(np.asarray(vals, complex))
    return table[:, 0, :] / (spec.nx * spec.nu * spec.nv)


def _uxv_modes():
    """Planted modes plus terms in ``u``, so the ``u`` transform matters."""
    phi, _ = planted_modes()

    def fn(x, y, u, v):
        return (phi.fn(x, y, u, v)
                + np.cos(2.0 * math.pi * (3 * u + x)) / (1.0 + y)
                + np.exp(TWO_PI_I * (u - 2 * v / y)) * np.sqrt(y))

    return ModularFunction(fn, weight=2)


@pytest.mark.parametrize("dims", [(64, 64, 64), (8, 32, 256), (16, 16, 64),
                                  (40, 64, 64)])
def test_chunked_table_is_bitwise_fftn(dims, monkeypatch):
    """The table made chunk by chunk is bitwise, as uint64, the one-shot
    ``fftn`` table: at the default chunk (which does not divide
    ``nx = 40``), at chunks of three x-slices and at chunks smaller than
    one slice (one slice each), for a closed-form function and for a
    coset series."""
    spec = QuadratureSpec(*dims)
    series = eisenstein(2, 1, beta_bump(0.8, 1.6), radius=40)
    slice_points = spec.nu * spec.nv
    for phi in (_uxv_modes(), series):
        want = _table_by_fftn(phi, 1.1, spec).view(np.uint64)
        for block in (1 << 16, 3 * slice_points, slice_points // 2):
            monkeypatch.setattr("strata.saff._SAMPLE_BLOCK", block)
            got = coeff_H0_table(phi, 1.1, spec).view(np.uint64)
            assert np.array_equal(got, want), block


def test_table_memory_follows_the_chunk():
    """A 64^3 table (four chunks of 2^16 grid points) peaks where a
    one-chunk table of 16 x-slices does, and below half the peak of the
    one-shot reference on the whole grid: memory follows the chunk, not
    the grid."""
    phi = _uxv_modes()
    peaks = []
    for table, dims in ((coeff_H0_table, (16, 64, 64)),
                        (coeff_H0_table, (64, 64, 64)),
                        (_table_by_fftn, (64, 64, 64))):
        tracemalloc.start()
        try:
            table(phi, 1.3, QuadratureSpec(*dims))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 0.5 * peaks[2]


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


def test_coefficient_sums_reject_aliasing_band():
    """The scalar product and the cusp check read a band of the H0 table;
    a band reaching half the grid counts aliased modes twice."""
    wave = ModularFunction(
        lambda x, y, u, v: np.cos(8.0 * math.pi * x) + 0.0 * y, weight=1)
    # on eight x nodes the modes 4 and -4 share one table entry
    with pytest.raises(ValueError, match="out of band"):
        scalar_product_via_coeffs(wave, wave, n_max=4, m_max=3, y_min=1.0,
                                  y_max=math.e, spec=QuadratureSpec(8, 8, 8))
    with pytest.raises(ValueError, match="out of band"):
        scalar_product_via_coeffs(wave, wave, n_max=3, m_max=4,
                                  spec=QuadratureSpec(64, 64, 8))
    # |c_4|^2 + |c_-4|^2 = 1/2, against the measure dy / y on (1, e)
    got = scalar_product_via_coeffs(wave, wave, n_max=4, m_max=3, y_min=1.0,
                                    y_max=math.e, spec=QuadratureSpec(10, 8, 8))
    assert abs(got - 0.5) < 1e-12
    with pytest.raises(ValueError, match="out of band"):
        is_cusp_form(wave, y_grid=[1.0], m_max=4, spec=QuadratureSpec(8, 8, 8))
    assert is_cusp_form(wave, y_grid=[1.0], m_max=3,
                        spec=QuadratureSpec(8, 8, 8))[0]


def test_coeff_T_checks_the_torus_axes():
    # the torus table is (nx, nu): m runs along nx and r along nu, whatever nv
    tau = 0.2 + 0.9j
    phi = ModularFunction(lambda x, y, u, v: np.exp(TWO_PI_I * 5 * v / y), 0)
    coarse_v = QuadratureSpec(64, 64, 8)
    assert abs(coeff_T(phi, 5, 0, tau, coarse_v) - 1.0) < 1e-12
    assert abs(coeff_T(phi, -3, 0, tau, coarse_v)) < 1e-12
    # on eight points in p the mode 5 aliases to -3; asking for it must fail
    with pytest.raises(ValueError, match="out of band"):
        coeff_T(phi, 5, 0, tau, QuadratureSpec(8, 64, 64))
    with pytest.raises(ValueError, match="out of band"):
        coeff_T(phi, 0, 5, tau, QuadratureSpec(64, 8, 64))


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

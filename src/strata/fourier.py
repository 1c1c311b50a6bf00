"""Fourier analysis along the torus and Heisenberg directions.

Three coefficient functionals are provided for a weight-k function ``phi`` on
the Jacobi half-space (vectorized evaluator in ``(x, y, u, v)``):

* torus coefficients at fixed base point,

      cT(phi; m, r; tau) = int_0^1 int_0^1 phi(tau, p tau + q) e(-m p - r q) dp dq,

  so that ``phi = sum cT(m, r; tau) e(m p + r q)`` fiberwise;

* Heisenberg coefficients at fixed height and vertical coordinate,

      cH(phi; n, r; y, v/y) = int_0^1 int_0^1 phi(x + i y, u + i v) e(-n x - r u) dx du;

* fully reduced coefficients

      cH0(phi; n, m; y) = int_0^1 cH(phi; n, 0; y, t) e(-m t) dt,

  which control scalar products: for weight-k functions,
  ``<phi1, phi2> = sum_{n,m} int cH0(phi1) conj(cH0(phi2)) dy / y^(2-k)``.

All integrals are discretized on uniform periodic grids and read off a single
FFT, which is spectrally accurate for smooth periodic integrands.  The module
also carries the Heisenberg average of a lifted function against a character,
whose closed form on NAK coordinates ties the group side to ``cH0``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .saff import ModularFunction, SAffElement, lift_eval_arrays

__all__ = [
    "QuadratureSpec",
    "coeff_T",
    "coeff_T_table",
    "coeff_H",
    "coeff_H0",
    "coeff_H0_table",
    "relation_T_H0_residual",
    "torus_equivariance_residual",
    "scalar_product_via_coeffs",
    "is_cusp_form",
    "is_genuine",
    "heisenberg_average",
    "coeffs_to_csv",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Periodic grid sizes for coefficient extraction.

    ``nx`` subdivides the x (or p) period, ``nu`` the u (or q) period, and
    ``nv`` the vertical period.  Requested mode indices must stay below half
    the corresponding grid size to avoid aliasing.
    """

    nx: int = 64
    nu: int = 64
    nv: int = 64

    def check_mode(self, n: int = 0, r: int = 0, m: int = 0) -> None:
        if abs(n) >= self.nx // 2 or abs(r) >= self.nu // 2 or abs(m) >= self.nv // 2:
            raise ValueError(
                f"mode (n={n}, r={r}, m={m}) out of band for grid "
                f"({self.nx}, {self.nu}, {self.nv})")


def coeff_T_table(phi: ModularFunction, tau: complex,
                  spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """All torus coefficients at base point ``tau`` as an FFT table.

    ``table[m % nx, r % nu]`` approximates ``cT(phi; m, r; tau)``.
    """
    x0, y0 = tau.real, tau.imag
    p = np.arange(spec.nx)[:, None] / spec.nx
    q = np.arange(spec.nu)[None, :] / spec.nu
    u = q + p * x0
    v = p * y0
    vals = phi.fn(np.full_like(u, x0), np.full_like(u, y0), u, v)
    return np.fft.fft2(np.asarray(vals, complex)) / (spec.nx * spec.nu)


def coeff_T(phi: ModularFunction, m: int, r: int, tau: complex,
            spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Torus coefficient ``cT(phi; m, r; tau)``."""
    spec.check_mode(n=0, r=r, m=m)
    table = coeff_T_table(phi, tau, spec)
    return complex(table[m % spec.nx, r % spec.nu])


def coeff_H(phi: ModularFunction, n: int, r: int, y: float, w1: float,
            spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Heisenberg coefficient ``cH(phi; n, r; y, w1)`` at ``v = w1 y``."""
    spec.check_mode(n=n, r=r)
    x = np.arange(spec.nx)[:, None] / spec.nx
    u = np.arange(spec.nu)[None, :] / spec.nu
    vals = phi.fn(x, np.full_like(x + u, y), u + 0 * x, np.full_like(x + u, w1 * y))
    table = np.fft.fft2(np.asarray(vals, complex)) / (spec.nx * spec.nu)
    return complex(table[n % spec.nx, r % spec.nu])


def coeff_H0_table(phi: ModularFunction, y: float,
                   spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """FFT table with ``table[n % nx, m % nv]`` approximating ``cH0(n, m; y)``.

    One evaluation of ``phi`` on the ``(nx, nu, nv)`` grid; the ``r = 0``
    Heisenberg slice of the 3D FFT is copied out (a view would pin the FFT).
    """
    x = np.arange(spec.nx)[:, None, None] / spec.nx
    u = np.arange(spec.nu)[None, :, None] / spec.nu
    t = np.arange(spec.nv)[None, None, :] / spec.nv
    shape = (spec.nx, spec.nu, spec.nv)
    vals = phi.fn(np.broadcast_to(x, shape), np.full(shape, y),
                  np.broadcast_to(u, shape), np.broadcast_to(y * t, shape))
    table = np.fft.fftn(np.asarray(vals, complex)) / (spec.nx * spec.nu * spec.nv)
    return table[:, 0, :].copy()


def coeff_H0(phi: ModularFunction, n: int, m: int, y: float,
             spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Reduced coefficient ``cH0(phi; n, m; y)``."""
    spec.check_mode(n=n, m=m)
    table = coeff_H0_table(phi, y, spec)
    return complex(table[n % spec.nx, m % spec.nv])


def relation_T_H0_residual(phi: ModularFunction, tau: complex, m: int,
                           spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Consistency of the two coefficient systems.

    Returns ``|cT(phi; m, 0; tau) - sum_n cH0(phi; n, m; y) e(n x)|`` with the
    sum over ``|n| <= 8``.

    Raises
    ------
    ValueError
        If ``spec`` cannot resolve the sum: ``nx <= 16``, so ``|n| = 8`` is
        out of band, or ``|m| >= nv / 2``.  Aliased modes would otherwise
        be folded into the sum.
    """
    spec.check_mode(n=8, m=m)
    lhs = coeff_T(phi, m, 0, tau, spec)
    table = coeff_H0_table(phi, tau.imag, spec)
    rhs = 0.0 + 0.0j
    for n in range(-8, 9):
        rhs += table[n % spec.nx, m % spec.nv] * np.exp(2j * math.pi * n * tau.real)
    return abs(lhs - rhs)


def torus_equivariance_residual(phi: ModularFunction, e: SAffElement,
                                m: int, r: int, tau: complex,
                                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Residual of the equivariance of torus coefficients under the slash.

    For an integral ``e = (gamma, 0)``:
    ``cT(phi |_k gamma; m, r; tau) = (c tau + d)^(-k) cT(phi; m~, r~; gamma tau)``
    with ``(m~, r~) = (m a + r b, m c + r d)``.
    """
    from .saff import slash

    g = e.g
    m2 = m * g.a + r * g.b
    r2 = m * g.c + r * g.d
    if abs(m2 - round(m2)) > 1e-9 or abs(r2 - round(r2)) > 1e-9:
        raise ValueError("element must be integral for index transport")
    lhs = coeff_T(slash(phi, e), m, r, tau, spec)
    jac = g.c * tau + g.d
    tau2 = (g.a * tau + g.b) / jac
    rhs = jac ** (-phi.weight) * coeff_T(phi, int(round(m2)), int(round(r2)),
                                         tau2, spec)
    return abs(lhs - rhs)


def scalar_product_via_coeffs(phi1: ModularFunction, phi2: ModularFunction,
                              n_max: int = 4, m_max: int = 4,
                              y_min: float = 0.05, y_max: float = 20.0,
                              n_y: int = 48,
                              spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Scalar product from reduced coefficients.

    Approximates ``sum_{|n| <= n_max, |m| <= m_max} int cH0(phi1; n, m; y)
    conj(cH0(phi2; n, m; y)) dy / y^(2-k)`` by Gauss-Legendre quadrature in
    log y on ``(y_min, y_max)``.  One coefficient table per quadrature node.
    """
    if phi1.weight != phi2.weight:
        raise ValueError("weights must match")
    k = phi1.weight
    nodes, weights = np.polynomial.legendre.leggauss(n_y)
    s0, s1 = math.log(y_min), math.log(y_max)
    ss = 0.5 * (s1 - s0) * nodes + 0.5 * (s1 + s0)
    ww = 0.5 * (s1 - s0) * weights
    total = 0.0 + 0.0j
    for s, w in zip(ss, ww):
        y = math.exp(s)
        t1 = coeff_H0_table(phi1, y, spec)
        t2 = t1 if phi2 is phi1 else coeff_H0_table(phi2, y, spec)
        acc = 0.0 + 0.0j
        for n in range(-n_max, n_max + 1):
            for m in range(-m_max, m_max + 1):
                acc += t1[n % spec.nx, m % spec.nv] * np.conj(
                    t2[n % spec.nx, m % spec.nv])
        # dy / y^(2-k) = e^(s(k-1)) ds
        total += w * acc * math.exp(s * (k - 1))
    return complex(total)


def is_cusp_form(phi: ModularFunction, y_grid: Sequence[float],
                 m_max: int = 4, tol: float = 1e-8,
                 spec: QuadratureSpec = QuadratureSpec()) -> tuple[bool, float]:
    """Check vanishing of the degenerate row ``cH0(0, m; y)``.

    Returns ``(flag, worst)`` where ``worst`` is the largest coefficient
    magnitude found over ``|m| <= m_max`` and the supplied heights.
    """
    worst = 0.0
    for y in y_grid:
        table = coeff_H0_table(phi, float(y), spec)
        for m in range(-m_max, m_max + 1):
            worst = max(worst, abs(table[0, m % spec.nv]))
    return worst < tol, worst


def is_genuine(phi: ModularFunction, tau_grid: Sequence[complex],
               tol: float = 1e-8,
               spec: QuadratureSpec = QuadratureSpec()) -> tuple[bool, float]:
    """Check vanishing of the constant torus coefficient ``cT(0, 0; tau)``."""
    worst = 0.0
    for tau in tau_grid:
        worst = max(worst, abs(coeff_T(phi, 0, 0, complex(tau), spec)))
    return worst < tol, worst


def heisenberg_average(phi: ModularFunction, n: int, m: int, e: SAffElement,
                       n_nodes: int = 32) -> complex:
    """Average of the lifted function over the integer-Heisenberg quotient.

    Computes ``int lift(phi)(h e) conj(chi_{n,m}(h)) dh`` over
    ``h = ([[1, b], [0, 1]], (w1, w2))`` with ``b, w1, w2`` in ``[0, 1)^3``
    and ``chi_{n,m}(h) = e(n b + m w1)``.  On NAK coordinates of ``e`` the
    closed form is
    ``exp(i k theta) a^k cH0(phi; n, m; a^2) e(n b_e + m w1_e)``.
    """
    b = np.arange(n_nodes)[:, None, None] / n_nodes
    w1 = np.arange(n_nodes)[None, :, None] / n_nodes
    w2 = np.arange(n_nodes)[None, None, :] / n_nodes
    shape = (n_nodes, n_nodes, n_nodes)
    b, w1, w2 = (np.broadcast_to(b, shape), np.broadcast_to(w1, shape),
                 np.broadcast_to(w2, shape))
    ge = e.g
    # h . e = ([[1, b], [0, 1]] g_e, (w1, w2) g_e + w_e)
    mats = np.empty(shape + (2, 2))
    mats[..., 0, 0] = ge.a + b * ge.c
    mats[..., 0, 1] = ge.b + b * ge.d
    mats[..., 1, 0] = np.full(shape, ge.c)
    mats[..., 1, 1] = np.full(shape, ge.d)
    ws = np.empty(shape + (2,))
    ws[..., 0] = w1 * ge.a + w2 * ge.c + e.w[0]
    ws[..., 1] = w1 * ge.b + w2 * ge.d + e.w[1]
    vals = lift_eval_arrays(phi, mats, ws)
    chi = np.exp(2j * math.pi * (n * b + m * w1))
    return complex((vals * np.conj(chi)).mean())


def coeffs_to_csv(rows: Iterable[tuple]) -> str:
    """Render coefficient rows as CSV text (deterministic ordering is the
    caller's responsibility)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "m", "y", "re", "im"))
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()

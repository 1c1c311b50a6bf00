"""Eisenstein and Poincare series attached to seed profiles, plus the
classical non-holomorphic Eisenstein series with its completed form.

A seed of weight ``k`` and frequencies ``(n, m)`` is the function

    seed(tau, z) = beta(y) e(n x + m v / y),

invariant under the integer Heisenberg subgroup.  The series averages the
seed over cosets of the upper-triangular subgroup generated by the unit
horocycle translation (no minus-identity: the pairs ``(c, d)`` and
``(-c, -d)`` index distinct cosets):

    P_{k; n, m, beta} = 2^(-1/2) sum_{cosets} seed |_k (gamma, 0),

with the Eisenstein case ``n = 0``.  Each summand is

    (c tau + d)^(-k) beta(y_gamma) e(n x_gamma + m v_gamma / y_gamma).

For profiles with compact support ``[y0, y1]`` only finitely many cosets can
contribute at a given point (``|c tau + d|^2 <= y / y0``).  The evaluator
lists exactly those candidate pairs per point with the lattice-disc kernel
of ``strata.saff`` (the one the Siegel--Veech sums use), so work per point
scales with its contributing cosets, not with the ``(2r + 1)^2`` coset box;
the coset radius ``r`` only bounds the box.  It raises if that radius
provably cannot cover the support condition for the points being
evaluated.

Reduced Fourier coefficients of the series are supported on the seed indices:
``cH0 = 2^(-1/2) beta(y)`` at ``(n, m)`` and ``(-1)^k 2^(-1/2) beta(y)`` at
``(n, -m)`` (the sign comes from the coset of the negated pair and is
invisible at even weight), and the squared Petersson norm collapses to
``int |beta(y)|^2 y^(k-2) dy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import special as sp

from .saff import (
    _POINT_BUDGET,
    ModularFunction,
    _check_points,
    _disc_points,
    _runs,
    coprime_pairs,
)
from .special import gamma_w, whittaker_w

__all__ = [
    "BetaProfile",
    "beta_bump",
    "beta_discrete",
    "beta_whittaker",
    "beta_ypower",
    "beta_norm_sq",
    "coset_list",
    "seed",
    "eisenstein",
    "poincare",
    "classical_eisenstein",
    "completed_eisenstein",
    "completed_eisenstein_expansion",
]


@dataclass
class BetaProfile:
    """Seed profile ``beta(y)`` with optional compact support.

    ``fn`` must be vectorized over ``y``; outside ``support`` (when given)
    values are forced to zero.  ``meta`` records construction parameters
    (decay rates, spectral parameters) for reporting.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        vals = np.asarray(self.fn(y), dtype=complex)
        if self.support is not None:
            y0, y1 = self.support
            vals = np.where((y >= y0) & (y <= y1), vals, 0.0)
        return vals


def beta_bump(y0: float, y1: float) -> BetaProfile:
    """Smooth compactly supported bump on ``[y0, y1]`` (infinitely flat ends)."""
    if not (0.0 < y0 < y1):
        raise ValueError("need 0 < y0 < y1")
    mid, half = 0.5 * (y0 + y1), 0.5 * (y1 - y0)

    def fn(y):
        t = (np.asarray(y, float) - mid) / half
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        tt = np.where(inside, t, 0.0)
        out[inside] = np.exp(-1.0 / (1.0 - tt * tt))[inside]
        return out

    return BetaProfile(fn, support=(y0, y1), meta={"kind": "bump"})


def beta_discrete(k: int, n: int) -> BetaProfile:
    """Profile of the totally degenerate (discrete-type) mode.

    ``exp(-2 pi |n| y)`` for ``k >= 2, n > 0`` and ``y^{|k|} exp(-2 pi |n| y)``
    for ``k <= -2, n < 0``; these are the weight-rescaled degenerate Whittaker
    functions.
    """
    if k >= 2 and n > 0:
        fn = lambda y: np.exp(-2.0 * math.pi * n * np.asarray(y, float))
    elif k <= -2 and n < 0:
        fn = lambda y: (np.asarray(y, float) ** (-k)
                        * np.exp(-2.0 * math.pi * (-n) * np.asarray(y, float)))
    else:
        raise ValueError("discrete profile needs k >= 2, n > 0 or k <= -2, n < 0")
    return BetaProfile(fn, meta={"kind": "discrete", "k": k, "n": n})


def beta_whittaker(k: int, n: int, psi: Callable[[np.ndarray], np.ndarray],
                   t_support: tuple[float, float], n_t: int = 24) -> BetaProfile:
    """Whittaker wave packet over spectral parameters ``t`` in ``t_support``.

    ``beta(y) = (4 pi |n|^(3/2))^(-1) int psi(t) (gw(t) gw(-t))^(-1/2)
    y^(-k/2) W_{sgn(n) k/2, i t}(4 pi |n| y) dt`` with ``gw`` the archimedean
    factor; the normalizing product ``gw(t) gw(-t)`` is positive.  Quadrature
    over ``t`` is Gauss-Legendre with ``n_t`` nodes; ``psi`` should vanish at
    the ends of its support for spectral accuracy.
    """
    t0, t1 = t_support
    if not (0.0 < t0 < t1):
        raise ValueError("t_support must sit inside the positive axis")
    nodes, weights = np.polynomial.legendre.leggauss(n_t)
    ts = 0.5 * (t1 - t0) * nodes + 0.5 * (t1 + t0)
    ws = 0.5 * (t1 - t0) * weights
    sgn = 1 if n > 0 else -1
    kappa = sgn * k / 2.0
    pref = 1.0 / (4.0 * math.pi * abs(n) ** 1.5)
    norms = np.array([
        (gamma_w(t, k, sgn) * gamma_w(-t, k, sgn)).real ** -0.5 for t in ts])
    psis = np.asarray(psi(ts), dtype=complex)

    def fn(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros(y.shape, dtype=complex)
        for t, w, nrm, pv in zip(ts, ws, norms, psis):
            wvals = whittaker_w(kappa, 1j * t, 4.0 * math.pi * abs(n) * y)
            out = out + w * pv * nrm * np.asarray(wvals) * y ** (-k / 2.0)
        return pref * out

    return BetaProfile(fn, meta={"kind": "whittaker", "k": k, "n": n,
                                 "t_support": t_support, "n_t": n_t})


def beta_ypower(k: int, psi: Callable[[np.ndarray], np.ndarray],
                t_support: tuple[float, float], sign: int = 1,
                n_t: int = 48) -> BetaProfile:
    """Power-law wave packet ``int psi(t) (y^((1-k)/2 + it) +/- y^((1-k)/2 - it)) dt``."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t0, t1 = t_support
    nodes, weights = np.polynomial.legendre.leggauss(n_t)
    ts = 0.5 * (t1 - t0) * nodes + 0.5 * (t1 + t0)
    ws = 0.5 * (t1 - t0) * weights
    psis = np.asarray(psi(ts), dtype=complex)

    def fn(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        logy = np.log(y)
        osc = np.exp(1j * np.outer(ts, logy))
        packet = (psis * ws) @ (osc + sign * osc.conj())
        return y ** ((1.0 - k) / 2.0) * packet

    return BetaProfile(fn, meta={"kind": "ypower", "k": k, "sign": sign,
                                 "t_support": t_support})


def beta_norm_sq(beta: BetaProfile, k: int, y_min: float, y_max: float) -> float:
    """Squared seed norm ``int_{y_min}^{y_max} |beta(y)|^2 y^(k-2) dy``."""
    val, _ = integrate.quad(
        lambda y: float(np.abs(beta(y)) ** 2) * y ** (k - 2),
        y_min, y_max, limit=200)
    return val


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------


def _completion(c: int, d: int) -> tuple[int, int]:
    """Canonical (a, b) with a d - b c = 1: minimal |a|, ties toward a > 0."""
    if c == 0:
        return (d, 0)  # d = +/-1; the matrix is +/-identity up to shear
    # extended gcd solves a d + b (-c) = 1 for coprime (c, d)
    g, a0, b0 = _ext_gcd(d, -c)
    if g != 1:
        raise ValueError(f"pair ({c}, {d}) is not coprime")
    # family a = a0 + t c, b = b0 + t d
    t = round(-a0 / c)
    best = None
    for tt in (t - 1, t, t + 1):
        a = a0 + tt * c
        b = b0 + tt * d
        key = (abs(a), 0 if a > 0 else 1)
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


def _ext_gcd(p: int, q: int) -> tuple[int, int, int]:
    """g, x, y with x p + y q = g = gcd(p, q) (g may be negative-normalized)."""
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def coset_list(radius: int) -> list[tuple[int, int, int, int]]:
    """Cosets of the horocycle subgroup as tuples ``(c, d, a, b)``.

    Enumerates all coprime pairs with ``|c|, |d| <= radius`` (both signs are
    distinct cosets), each completed canonically to ``[[a, b], [c, d]]`` of
    determinant one.  Ordered lexicographically in ``(c, d)``.
    """
    out = []
    for c, d in zip(*coprime_pairs(radius, radius)):
        c, d = int(c), int(d)
        a, b = _completion(c, d)
        assert a * d - b * c == 1
        out.append((c, d, a, b))
    return out


# ---------------------------------------------------------------------------
# series evaluators
# ---------------------------------------------------------------------------


def seed(k: int, n: int, m: int, beta: BetaProfile) -> ModularFunction:
    """The seed ``beta(y) e(n x + m v / y)`` as a weight-k function."""

    def fn(x, y, u, v):
        return beta(y) * np.exp(2j * math.pi * (n * x + m * v / y))

    return ModularFunction(fn, weight=k,
                           meta={"kind": "seed", "n": n, "m": m})


def _radius_needed(beta: BetaProfile, x, y) -> int | None:
    """Smallest coset radius that provably covers the support condition at
    every point.

    A coset ``(c, d)`` can contribute at ``(x, y)`` only if
    ``|c tau + d|^2 <= y / y0``; for ``c != 0`` this forces both
    ``|c| <= (y0 y)^(-1/2)`` and ``y <= 1 / (c^2 y0)``, hence
    ``|d| <= |c| |x| + 1 / (|c| y0)``, while ``c = 0`` only ever needs
    ``|d| = 1`` (coprimality).  The bound is taken per point, so a batch
    needs no more than its most demanding point.
    """
    if beta.support is None:
        return None
    y0 = beta.support[0]
    cmax = np.sqrt(1.0 / (y0 * y))
    dmax = np.maximum(1.0, np.abs(x) * np.maximum(cmax, 1.0) + 1.0 / y0)
    return int(math.ceil(np.max(np.maximum(cmax, dmax))))


def poincare(k: int, n: int, m: int, beta: BetaProfile,
             radius: int = 12) -> ModularFunction:
    """Poincare series ``2^(-1/2) sum seed |_k (gamma, 0)`` over cosets.

    For compactly supported profiles the evaluator lists, per point, only
    the cosets with ``|c tau + d|^2 <= y / y0``, so work per point scales
    with its contributing cosets, not with the ``(2r + 1)^2`` box, and
    ``radius`` only bounds the box.  For profiles without compact support
    every box coset is summed at every point: the series is truncated at
    ``radius`` (accuracy is then the caller's responsibility).

    Raises
    ------
    ValueError
        If a coordinate is not finite, some ``y <= 0``, or ``radius`` is
        provably too small for a compactly supported profile at the points.
    """
    cc, dd, aa, bb = (np.array(col, dtype=np.int64)
                      for col in zip(*coset_list(radius)))
    side = 2 * radius + 1
    # coset index of each box pair (c, d), -1 off the coset list; pairs
    # outside the box look up the extra last slot
    slot = np.full(side * side + 1, -1)
    slot[(cc + radius) * side + dd + radius] = np.arange(cc.size)

    def candidates(x, y):
        """Runs ``[lo, hi)`` of points with their candidate terms as
        ``(point, coset index)`` arrays, by point, then ``(c, d)``."""
        if beta.support is None:
            step = max(_POINT_BUDGET // cc.size, 1)
            for lo in range(0, x.size, step):
                hi = min(lo + step, x.size)
                yield (lo, hi, np.repeat(np.arange(lo, hi), cc.size),
                       np.tile(np.arange(cc.size), hi - lo))
            return
        # a hair of slack keeps rounding from dropping a boundary coset;
        # the exact support mask is applied to the terms
        scale = (1.0 + 1e-9) / math.sqrt(beta.support[0])
        for lo, hi in _runs(y, scale):
            xs, ys = x[lo:hi], y[lo:hi]
            zero = np.zeros(hi - lo)
            row_point, row_c, point_row, d = _disc_points(
                zero, zero, xs, ys, scale * np.sqrt(ys))
            c = row_c[point_row]
            inside = (np.abs(c) <= radius) & (np.abs(d) <= radius)
            idx = slot[np.where(inside, (c + radius) * side + d + radius, -1)]
            keep = idx >= 0
            yield lo, hi, lo + row_point[point_row][keep], idx[keep]

    def fn(x, y, u, v):
        x, y, u, v = np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float),
            np.asarray(u, float), np.asarray(v, float))
        _check_points(x=x, y=y, u=u, v=v)
        shape = x.shape
        x, y, u, v = x.ravel(), y.ravel(), u.ravel(), v.ravel()
        need = _radius_needed(beta, x, y)
        if need is not None and need > radius:
            raise ValueError(
                f"coset radius {radius} insufficient (need {need}) "
                "for these points and this support")
        tau = x + 1j * y
        zc = u + 1j * v
        out = np.zeros(x.shape, dtype=complex)
        for lo, hi, point, idx in candidates(x, y):
            tau_p = tau[point]
            jac = cc[idx] * tau_p + dd[idx]
            if beta.support is not None:
                y0, y1 = beta.support
                y2 = y[point] / (jac.real ** 2 + jac.imag ** 2)
                mask = (y2 >= y0) & (y2 <= y1)
                point, idx, tau_p, jac = (
                    point[mask], idx[mask], tau_p[mask], jac[mask])
            tg = (aa[idx] * tau_p + bb[idx]) / jac
            v2 = (zc[point] / jac).imag
            phase = np.exp(2j * math.pi * (n * tg.real + m * v2 / tg.imag))
            term = jac ** (-k) * beta(tg.imag) * phase
            # per point, bincount adds in list order, like one pass per coset
            out.real[lo:hi] = np.bincount(point - lo, term.real, hi - lo)
            out.imag[lo:hi] = np.bincount(point - lo, term.imag, hi - lo)
        return (out / math.sqrt(2.0)).reshape(shape)

    return ModularFunction(fn, weight=k,
                           meta={"kind": "poincare", "n": n, "m": m,
                                 "radius": radius})


def eisenstein(k: int, m: int, beta: BetaProfile,
               radius: int = 12) -> ModularFunction:
    """Eisenstein case of the series (seed frequency ``n = 0``)."""
    phi = poincare(k, 0, m, beta, radius)
    phi.meta = {**phi.meta, "kind": "eisenstein"}
    return phi


# ---------------------------------------------------------------------------
# classical non-holomorphic Eisenstein series
# ---------------------------------------------------------------------------


def classical_eisenstein(tau: complex, s: complex, radius: int = 120) -> complex:
    """Height-function Eisenstein series ``(1/2) sum' y^s / |c tau + d|^(2s)``.

    The primed sum runs over coprime pairs with ``|c|, |d| <= radius``;
    convergence requires ``Re(s) > 1``.
    """
    c, d = coprime_pairs(radius, radius)
    return 0.5 * complex(np.sum(tau.imag ** s / np.abs(c * tau + d) ** (2 * s)))


def _lambda_completed(w: complex) -> complex:
    """Completed zeta ``pi^(-w/2) Gamma(w/2) zeta(w)`` (meromorphically)."""
    with mp.workdps(25):
        return complex(mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w))


def completed_eisenstein(tau: complex, s: complex, radius: int = 120) -> complex:
    """``pi^(-s) Gamma(s) zeta(2s) E(tau, s)`` by direct summation."""
    with mp.workdps(25):
        pref = complex(mp.pi ** (-s) * mp.gamma(s) * mp.zeta(2 * s))
    return pref * classical_eisenstein(tau, s, radius)


def completed_eisenstein_expansion(tau: complex, s: complex,
                                   n_terms: int = 40) -> complex:
    """Fourier-Bessel expansion of the completed series.

    ``Lambda(2s) y^s + Lambda(2-2s) y^(1-s) + 4 sqrt(y) sum_{n >= 1}
    n^(s-1/2) sigma_{1-2s}(n) K_{s-1/2}(2 pi n y) cos(2 pi n x)``.  Valid for
    all ``s`` away from the poles and manifestly symmetric under
    ``s -> 1 - s``, which makes it the oracle for the functional equation.
    """
    x, y = tau.real, tau.imag
    out = (_lambda_completed(2 * s) * y ** s
           + _lambda_completed(2 - 2 * s) * y ** (1 - s))
    for n in range(1, n_terms + 1):
        sigma = sum(d ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        out += (4.0 * math.sqrt(y) * n ** (s - 0.5) * sigma
                * complex(sp.kv(s - 0.5, 2 * math.pi * n * y))
                * math.cos(2 * math.pi * n * x))
    return complex(out)

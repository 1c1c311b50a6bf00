"""Eisenstein and Poincare series attached to seed profiles.

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
of ``strata.saff`` (the one the Siegel--Veech sums use), keeps the coprime
ones that pass the support mask and completes them to ``SL2(Z)`` matrices
in one vectorized step, so work per point scales with its contributing
cosets, not with the ``(2r + 1)^2`` coset box.  The coset radius ``r`` is
then an exact guard: the evaluator raises exactly when a contributing coset
has ``|c|`` or ``|d|`` above ``r``.  Profiles without compact support sum
the whole box at every point.

Reduced Fourier coefficients of the series are supported on the seed indices:
``cH0 = 2^(-1/2) beta(y)`` at ``(n, m)`` and ``(-1)^k 2^(-1/2) beta(y)`` at
``(n, -m)`` (the sign comes from the coset of the negated pair and is
invisible at even weight), and the squared Petersson norm collapses to
``int |beta(y)|^2 y^(k-2) dy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import saff
from .saff import (
    ModularFunction,
    _check_points,
    _disc_points,
    _runs,
    coprime_pairs,
)
from .special import _as_values, _gl_nodes, gamma_w, whittaker_w

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
]


@dataclass
class BetaProfile:
    """Seed profile ``beta(y)`` with optional compact support.

    ``fn`` must be vectorized over ``y``; outside ``support`` (when given)
    values are forced to zero.  Values are float64 for a real ``fn`` and
    complex128 for a complex one.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        vals = _as_values(self.fn(y))
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

    return BetaProfile(fn, support=(y0, y1))


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
    return BetaProfile(fn)


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
    ts, ws = _gl_nodes(t0, t1, n_t)
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

    return BetaProfile(fn)


def beta_ypower(k: int, psi: Callable[[np.ndarray], np.ndarray],
                t_support: tuple[float, float], sign: int = 1,
                n_t: int = 48) -> BetaProfile:
    """Power-law wave packet ``int psi(t) (y^((1-k)/2 + it) +/- y^((1-k)/2 - it)) dt``."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t0, t1 = t_support
    ts, ws = _gl_nodes(t0, t1, n_t)
    psis = np.asarray(psi(ts), dtype=complex)

    def fn(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        logy = np.log(y)
        osc = np.exp(1j * np.outer(ts, logy))
        packet = (psis * ws) @ (osc + sign * osc.conj())
        return y ** ((1.0 - k) / 2.0) * packet

    return BetaProfile(fn)


def beta_norm_sq(beta: BetaProfile, k: int, y_min: float, y_max: float) -> float:
    """Squared seed norm ``int_{y_min}^{y_max} |beta(y)|^2 y^(k-2) dy``.

    The interval is cut to ``beta.support`` when the profile has one (a
    support that misses it gives ``0.0``).  A Gauss-Legendre rule calls the
    profile once on all its nodes; the node count doubles from 32 until two
    successive rules agree to 1e-12 relative, and the finer value is
    returned.  Raises ``ValueError`` unless the bounds are finite with
    ``y_min < y_max`` and the profile is finite at the nodes, and
    ``RuntimeError`` if the rules still disagree at 1024 nodes, as for a
    profile that jumps inside the interval.
    """
    if not (math.isfinite(y_min) and math.isfinite(y_max) and y_min < y_max):
        raise ValueError(f"need finite y_min < y_max, got {y_min}, {y_max}")
    if beta.support is not None:
        y_min, y_max = max(y_min, beta.support[0]), min(y_max, beta.support[1])
        if y_min >= y_max:
            return 0.0

    def rule(n):
        y, w = _gl_nodes(y_min, y_max, n)
        vals = beta(y)
        if not np.isfinite(vals).all():
            raise ValueError("profile values must be finite on the interval")
        return float(w @ (np.abs(vals) ** 2 * y ** (k - 2)))

    n, coarse = 32, rule(32)
    while n < 1024:
        n *= 2
        fine = rule(n)
        if abs(fine - coarse) <= 1e-12 * abs(fine):
            return fine
        coarse = fine
    raise RuntimeError("seed norm did not settle to 1e-12 within 1024 nodes "
                       "(is the profile smooth on the interval?)")


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------


def _completions(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical completions ``(a, b)`` with ``a d - b c = 1`` of coprime
    int64 pairs ``(c, d)`` (arrays of one length): minimal ``|a|``, ties
    toward ``a > 0``, and ``(d, 0)`` for ``c = 0``.  Coprimality is the
    caller's contract; it is not checked.
    """
    mod = np.maximum(np.abs(c), 1)
    # extended Euclid on (|c|, d mod |c|), all pairs at once, keeping
    # r_i = s_i d (mod |c|); it ends at r0 = 1, so s0 inverts d mod |c|
    r0, r1 = mod.copy(), d % mod
    s0, s1 = np.zeros_like(d), np.ones_like(d)
    live = np.flatnonzero(r1)
    while live.size:
        quo = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - quo * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - quo * s1[live]
        live = live[r1[live] != 0]
    # the completions' a run over s0 + t c; the two nearest zero are
    # a in [0, |c|) and a - |c|, and a wins a tie (2 a = |c|)
    a = s0 % mod
    a = np.where(c == 0, d, np.where(2 * a > mod, a - mod, a))
    b = (a * d - 1) // np.where(c == 0, 1, c)
    return a, b


def coset_list(radius: int) -> list[tuple[int, int, int, int]]:
    """Cosets of the horocycle subgroup as tuples ``(c, d, a, b)``.

    Enumerates all coprime pairs with ``|c|, |d| <= radius`` (both signs are
    distinct cosets), each completed canonically to ``[[a, b], [c, d]]`` of
    determinant one.  Ordered lexicographically in ``(c, d)``.
    """
    c, d = coprime_pairs(radius, radius)
    return list(zip(*(col.tolist() for col in (c, d, *_completions(c, d)))))


# ---------------------------------------------------------------------------
# series evaluators
# ---------------------------------------------------------------------------


def seed(k: int, n: int, m: int, beta: BetaProfile) -> ModularFunction:
    """The seed ``beta(y) e(n x + m v / y)`` as a weight-k function."""

    def fn(x, y, u, v):
        return beta(y) * np.exp(2j * math.pi * (n * x + m * v / y))

    return ModularFunction(fn, weight=k)


def poincare(k: int, n: int, m: int, beta: BetaProfile,
             radius: int = 12) -> ModularFunction:
    """Poincare series ``2^(-1/2) sum seed |_k (gamma, 0)`` over cosets.

    For compactly supported profiles the evaluator lists, per point, only
    the cosets with ``|c tau + d|^2 <= y / y0`` and keeps those that pass
    the support mask, so work per point scales with its contributing
    cosets; ``radius`` is then only a guard, checked exactly against the
    contributing cosets.  For profiles without compact support every coset
    with ``|c|, |d| <= radius`` is summed at every point: the series is
    truncated at ``radius`` (accuracy is then the caller's responsibility).

    Raises
    ------
    ValueError
        If a coordinate is not finite, some ``y <= 0``, or, for a compactly
        supported profile, a coset with ``|c|`` or ``|d|`` above ``radius``
        contributes at one of the points.
    """
    if beta.support is None:
        c, d = coprime_pairs(radius, radius)
        box = (c, d, *_completions(c, d))

    def terms(x, y, tau):
        """Runs ``[lo, hi)`` of points with their terms as ``(point, jac,
        a, b)`` arrays, ``jac = c tau + d``, by point, then ``(c, d)``."""
        if beta.support is None:
            step = max(saff._POINT_BUDGET // box[0].size, 1)
            for lo in range(0, x.size, step):
                hi = min(lo + step, x.size)
                point = np.repeat(np.arange(lo, hi), box[0].size)
                c, d, a, b = (np.tile(col, hi - lo) for col in box)
                yield lo, hi, point, c * tau[point] + d, a, b
            return
        y0, y1 = beta.support
        # a hair of slack keeps rounding from dropping a boundary coset;
        # the exact support mask is applied to the terms
        rho = (1.0 + 1e-9) / math.sqrt(y0) * np.sqrt(y)
        zero = np.zeros(y.size)
        for lo, hi in _runs(y, rho):
            row_point, row_c, point_row, d = _disc_points(
                zero[lo:hi], zero[lo:hi], x[lo:hi], y[lo:hi], rho[lo:hi])
            c = row_c[point_row]
            coset = np.gcd(c, d) == 1
            point, c, d = lo + row_point[point_row][coset], c[coset], d[coset]
            jac = c * tau[point] + d
            y2 = y[point] / (jac.real ** 2 + jac.imag ** 2)
            keep = (y2 >= y0) & (y2 <= y1)
            point, c, d, jac = point[keep], c[keep], d[keep], jac[keep]
            if (np.maximum(np.abs(c), np.abs(d)) > radius).any():
                raise ValueError(
                    f"coset radius {radius} excludes a contributing coset "
                    "at these points")
            yield lo, hi, point, jac, *_completions(c, d)

    def fn(x, y, u, v):
        x, y, u, v = np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float),
            np.asarray(u, float), np.asarray(v, float))
        _check_points(x=x, y=y, u=u, v=v)
        shape = x.shape
        x, y, u, v = x.ravel(), y.ravel(), u.ravel(), v.ravel()
        tau = x + 1j * y
        zc = u + 1j * v
        out = np.zeros(x.shape, dtype=complex)
        for lo, hi, point, jac, a, b in terms(x, y, tau):
            tg = (a * tau[point] + b) / jac
            v2 = (zc[point] / jac).imag
            phase = np.exp(2j * math.pi * (n * tg.real + m * v2 / tg.imag))
            term = jac ** (-k) * beta(tg.imag) * phase
            # per point, bincount adds in list order, like one pass per coset
            out.real[lo:hi] = np.bincount(point - lo, term.real, hi - lo)
            out.imag[lo:hi] = np.bincount(point - lo, term.imag, hi - lo)
        return (out / math.sqrt(2.0)).reshape(shape)

    return ModularFunction(fn, weight=k)


def eisenstein(k: int, m: int, beta: BetaProfile,
               radius: int = 12) -> ModularFunction:
    """Eisenstein case of the series (seed frequency ``n = 0``)."""
    return poincare(k, 0, m, beta, radius)

"""Special functions: Bessel, Whittaker, archimedean gamma factors, and the
Hankel-transform machinery used by the coefficient formulas.

Bessel and log-gamma evaluations delegate to scipy (order-2 Bessel values
by one recurrence step from ``j0`` / ``j1``).  The Whittaker function
``W_{kappa, it}`` of the continuous spectrum (real ``kappa``,
``0 < |t| <= 4``, ``x >= 1e-12``) is computed in float64, vectorized over
``x``: a trapezoidal rule on the Laplace integral of ``W`` (DLMF 13.16.5)
in ``s = log u`` on a contour rotated by a fixed angle, which converges
exponentially for this analytic integrand (Trefethen and Weideman, SIAM
Rev. 56 (2014) 385), at a starting order at or below -1, then the
contiguous relation in ``kappa`` (DLMF 13.15.11) up to ``kappa``.  Its
error stays below 1e-12 of the largest ``|W|`` on a grid, checked against
mpmath.  Every other Whittaker case (real ``mu``, ``|t| > 4``, tiny ``x``),
``whittaker_m`` and the ODE residual oracle stay on mpmath (``whitw`` /
``whitm`` at 30 digits).  Radial profiles keep the kind of their values
(float64 or complex128), and a uniform-grid table evaluates cubic splines
bitwise like scipy's ``PPoly``.

The Hankel transform of a compactly supported radial profile uses a
fixed-node rule: 24-point Gauss-Legendre panels of equal width on the
support, about one panel per half-period of the Bessel factor, evaluated as
one matrix product of Bessel values against the weighted profile values.
Its error is estimated by doubling the panels until two successive rules
agree to the requested tolerance; a rule that has not settled by a fixed
panel cap raises ``RuntimeError`` instead of returning a value.  Panels
converge fast only on integrands that are smooth inside each panel, so
profiles must be smooth inside their support; a jump at the support edge
is harmless, because the panels end there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np
from scipy import special as sp

__all__ = [
    "log_gamma",
    "bessel_j",
    "whittaker_w",
    "whittaker_m",
    "whittaker_ode_residual",
    "gamma_w",
    "whittaker_asymptotic_smally",
    "RadialProfile",
    "hankel_transform",
    "t_transform",
    "s_transform",
]


def log_gamma(z) -> complex:
    """Principal-branch log of the gamma function (scipy ``loggamma``).

    Raises
    ------
    ValueError
        At the poles (non-positive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"log_gamma pole at {z}")
    return complex(sp.loggamma(z))


_BESSEL_DEDICATED = {0: sp.j0, 1: sp.j1}
# Below this |x| the order-2 recurrence cancels; J_2(x) = x^2/8 to 1e-33.
_J2_SERIES_BELOW = 1e-8


def bessel_j(k: int, x):
    """Bessel function of the first kind, integer order (vectorized).

    Orders 0 and 1 use scipy's dedicated ``j0`` / ``j1``: about ten times
    faster than the general ``jv``, at the same ~1e-15 absolute accuracy.
    Order 2 is one upward recurrence step, ``2 J_1(x) / x - J_0(x)``
    (``x^2/8`` near zero, so ``J_2(0) = 0``): about five times faster than
    ``jv`` and within 1e-14 of it.  Higher orders stay on ``jv``, since
    further steps lose absolute accuracy at small ``x``.
    """
    fn = _BESSEL_DEDICATED.get(k)
    if fn is not None:
        return fn(x)
    if k != 2:
        return sp.jv(k, x)
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _J2_SERIES_BELOW
    xs = np.where(small, 1.0, x)
    out = sp.j1(xs, out=np.empty_like(xs))
    out /= xs
    out *= 2.0
    out -= sp.j0(xs, out=xs)
    out[small] = 0.125 * x[small] ** 2
    return out[()]


_MP_DPS = 30


def _whit(fun, kappa, mu, x) -> complex:
    with mp.workdps(_MP_DPS):
        val = fun(mp.mpmathify(kappa), mp.mpmathify(mu), mp.mpmathify(x))
        return complex(val)


# Trapezoidal rule for W_{kappa, it}: nodes s = j h, j in _W_NODES, on the
# rotated contour u = exp(s + i theta) of the Laplace integral.  The rule's
# error falls like exp(-2 pi d / h), d = pi/2 - theta the distance to the
# edge of the strip where exp(-x u) decays, about 3e-16 at h = 3/16 (which
# also keeps every node exact); theta damps the oscillation of u^(2it),
# which on the real axis cancels about exp(pi t) in the sum.
# The nodes reach s = 32, where exp(-x u) has decayed for every
# x >= _W_X_MIN, and s = -34.5, where the left tail u^(1/2 - kappa0) of a
# starting order kappa0 <= -1 is below 1e-17 of W at every x where W does
# not underflow.
_W_STEP = 0.1875
_W_NODES = (-184, 172)
_W_ROTATION = 0.5
_W_X_MIN = 1e-12
# Past this t the remaining cancellation, about exp((pi - 2 theta) t), costs
# more than three digits.
_W_T_MAX = 4.0
# Entries of one (x, node) block of exp(-x u) (16 MiB of complex128).
_W_BUDGET = 1 << 20


def _whittaker_w_imag(kappa: float, t: float, x: np.ndarray) -> np.ndarray:
    """``W_{kappa, it}(x)`` (real) for real ``kappa``, ``t > 0`` and a 1-D
    array ``x >= _W_X_MIN``.

    ``W = x^(it+1/2) e^(-x/2) / Gamma(1/2+it-kappa) * integral of
    e^(-xu) u^(it-kappa-1/2) (1+u)^(it+kappa-1/2) du`` (DLMF 13.16.5, its
    variable scaled by ``x``) by the trapezoidal rule in ``s``,
    ``u = e^(s + i theta)``, at ``kappa0`` and ``kappa0 - 1`` (one block of
    ``exp(-x u)`` serves both): ``kappa0 = kappa`` for ``kappa <= -1``,
    else ``kappa - ceil(kappa) - 1``, in ``(-2, -1]``, and ``ceil(kappa) + 1``
    steps of DLMF 13.15.11,
    ``W_{k+1} = (x - 2k) W_k + (mu^2 - (k - 1/2)^2) W_{k-1}``, climb to
    ``kappa``.  Starting at or below -1 keeps the left tail short.
    """
    steps = max(0, math.ceil(kappa) + 1)
    k0 = kappa - steps
    mu = 1j * t
    z = _W_STEP * np.arange(*_W_NODES) + 1j * _W_ROTATION
    u = np.exp(z)
    # h u^(mu - k0 + 1/2) (1 + u)^(mu + k0 - 1/2): the integrand times du/ds,
    # less exp(-x u); one factor u / (1 + u) more lowers kappa by one
    c = _W_STEP * np.exp((mu - k0 + 0.5) * z + (mu + k0 - 0.5) * np.log1p(u))
    coeffs = (c, c * u / (1.0 + u))
    sums = [np.empty(x.size, dtype=complex) for _ in coeffs]
    rows = max(1, min(x.size, _W_BUDGET // u.size))
    buf = np.empty((rows, u.size), dtype=complex)
    for lo in range(0, x.size, rows):
        block = buf[:min(rows, x.size - lo)]
        np.multiply.outer(-x[lo:lo + rows], u, out=block)
        np.exp(block, out=block)
        for total, coef in zip(sums, coeffs):
            # a fixed-order sum per row, so no value depends on its batch
            total[lo:lo + rows] = np.einsum("ij,j->i", block, coef)
    pref = (mu + 0.5) * np.log(x) - 0.5 * x
    w_k, w_prev = (
        (np.exp(pref - sp.loggamma(0.5 + mu - k0 + j)) * total).real
        for j, total in enumerate(sums))
    k = k0
    for _ in range(steps):
        w_k, w_prev = ((x - 2.0 * k) * w_k
                       - (t * t + (k - 0.5) ** 2) * w_prev), w_k
        k += 1.0
    return w_k


def whittaker_w(kappa, mu, x):
    """Decaying Whittaker function ``W_{kappa, mu}(x)`` (complex ``mu`` ok).

    Accepts scalar or array ``x``, each finite and ``> 0``; returns
    complex128 (a complex scalar for scalar ``x``).

    For real ``kappa`` and ``mu = i t`` with ``0 < |t| <= 4`` (the spectral
    parameters of the continuous spectrum) and ``x >= 1e-12``, the value is
    computed in float64, vectorized over ``x``: a trapezoidal rule on a
    rotated Laplace integral at an order at or below -1, then the
    contiguous relation in ``kappa`` up to ``kappa``.  There ``W`` is real,
    and the imaginary part returned is exactly ``+0.0``.  Against mpmath at
    30 digits the error stays below 1e-12 of the largest ``|W|`` over ``x``
    in ``[1e-12, 1e3]`` (``kappa`` in ``[-2, 2]``, ``t`` in ``[0.3, 4]``);
    pointwise relative error is larger near the zeros of the oscillating
    ``W``.  A value depends on its own ``x`` only, not on the rest of the
    batch.  Every other case (``mu`` not purely imaginary, complex
    ``kappa``, ``|t| > 4``, ``x < 1e-12``) is evaluated elementwise through
    mpmath at 30 digits, as is ``whittaker_m``.

    Raises
    ------
    ValueError
        If an ``x`` is not finite or not positive.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not (np.isfinite(flat).all() and (flat > 0.0).all()):
        raise ValueError("x must be finite and positive")
    out = np.zeros(flat.size, dtype=complex)
    by_rule = np.zeros(flat.size, dtype=bool)
    ka, m = complex(kappa), complex(mu)
    if ka.imag == 0.0 and m.real == 0.0 and 0.0 < abs(m.imag) <= _W_T_MAX:
        by_rule = flat >= _W_X_MIN
        out.real[by_rule] = _whittaker_w_imag(ka.real, abs(m.imag),
                                              flat[by_rule])
    for i in np.flatnonzero(~by_rule):
        out[i] = _whit(mp.whitw, kappa, mu, flat[i])
    if xs.ndim == 0:
        return complex(out[0])
    return out.reshape(xs.shape)


def whittaker_m(kappa, mu, x):
    """Recessive Whittaker function ``M_{kappa, mu}(x)`` (complex ``mu`` ok)."""
    xs = np.asarray(x, dtype=float)
    out = np.empty(xs.shape, dtype=complex)
    for idx in np.ndindex(xs.shape):
        out[idx] = _whit(mp.whitm, kappa, mu, xs[idx])
    if out.shape == ():
        return complex(out)
    return out


def whittaker_ode_residual(kappa, mu, x: float, which: str = "w") -> float:
    """Residual of the Whittaker equation at ``x``.

    Evaluates ``f'' + (-1/4 + kappa/x + (1/4 - mu^2)/x^2) f`` in high
    precision for ``f = W`` or ``M`` and returns its magnitude, normalized
    by ``max(1, |f(x)|)``.
    """
    fun = {"w": mp.whitw, "m": mp.whitm}[which]
    with mp.workdps(_MP_DPS + 10):
        ka, m2, xx = mp.mpmathify(kappa), mp.mpmathify(mu), mp.mpf(x)
        f = lambda t: fun(ka, m2, t)
        d2 = mp.diff(f, xx, 2)
        val = f(xx)
        res = d2 + (mp.mpf(-0.25) + ka / xx + (mp.mpf(0.25) - m2 ** 2) / xx ** 2) * val
        return float(abs(res) / max(1.0, abs(val)))


def gamma_w(t: float, k: int, sgn_n: int) -> complex:
    """Archimedean factor ``Gamma(2 i t) / Gamma((1 - sgn(n) k)/2 + i t)``.

    Raises
    ------
    ValueError
        If ``t == 0`` (pole of the numerator) or the denominator sits on a
        pole.
    """
    if t == 0.0:
        raise ValueError("gamma_w has a pole at t = 0")
    num = log_gamma(2j * t)
    den = log_gamma((1.0 - sgn_n * k) / 2.0 + 1j * t)
    return complex(np.exp(num - den))


def whittaker_asymptotic_smally(k: int, n: int, t: float, y):
    """Two-term small-y expansion of ``(4 pi |n| y)^(-k/2) W_{sgn(n) k/2, i t}``.

    Returns ``gamma_w(t) X^((1-k)/2 - i t) + gamma_w(-t) X^((1-k)/2 + i t)``
    with ``X = 4 pi |n| y``; the difference from the exact rescaled Whittaker
    value is ``O(y^((3-k)/2))`` as ``y -> 0``.
    """
    sgn = 1 if n > 0 else -1
    X = 4.0 * math.pi * abs(n) * np.asarray(y, dtype=float)
    gp = gamma_w(t, k, sgn)
    gm = gamma_w(-t, k, sgn)
    ex = (1.0 - k) / 2.0
    return gp * X ** (ex - 1j * t) + gm * X ** (ex + 1j * t)


def _as_values(vals) -> np.ndarray:
    """A callable's values as float64, or as complex128 if they are complex."""
    vals = np.asarray(vals)
    return vals.astype(complex if np.iscomplexobj(vals) else float,
                       copy=False)


@dataclass
class RadialProfile:
    """Radial profile ``f0(r)`` on the plane with finite support radius.

    ``fn`` must be vectorized; values for ``r > support_radius`` are set to
    zero.  Values are float64 for a real ``fn`` and complex128 for a
    complex one; ``hankel_transform`` sums them as complex either way.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.support_radius, _as_values(self.fn(r)), 0.0)


def _uniform_spline(breaks: np.ndarray, coeffs: np.ndarray
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluate the cubic spline with uniform breakpoints ``breaks`` and
    coefficients ``coeffs`` (``CubicSpline.x`` and ``.c``) bitwise like
    scipy's ``PPoly``, extrapolation included, without its interval search.

    The interval ``floor(r / h)`` is clipped and corrected by one step
    against the breakpoints, and the sum runs in scipy's order,
    ``c3 + c2 s + c1 s^2 + c0 s^3`` with ``s^3 = (s s) s``.
    """
    breaks = np.asarray(breaks, dtype=float)
    last = breaks.size - 2
    step = (breaks[-1] - breaks[0]) / (last + 1)
    c0, c1, c2, c3 = np.asarray(coeffs, dtype=float)
    c3 = 0.0 + c3   # scipy's sum starts at 0.0, which turns -0.0 into +0.0

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        # fmax/fmin map a NaN to interval 0, where it evaluates to NaN
        i = np.fmin(np.fmax(np.floor((r - breaks[0]) / step), 0.0),
                    last).astype(np.intp)
        i += r >= breaks[i + 1]
        i -= r < breaks[i]
        np.clip(i, 0, last, out=i)
        s = r - breaks[i]
        z = s * s
        return c3[i] + c2[i] * s + c1[i] * z + c0[i] * (z * s)

    return evaluate


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Entries of one block of Bessel values J_k(s r) (16 MiB of float64).
_BESSEL_BUDGET = 1 << 21
# Panels past which the doubling estimate gives up: the largest power of two
# whose nodes still fit one row of the budget.
_MAX_PANELS = 1 << 16


def _hankel_rule(k: int, f0: RadialProfile, s: np.ndarray,
                 n_panels: int) -> np.ndarray:
    """Composite Gauss-Legendre rule with ``n_panels`` equal panels on
    ``[0, R]`` at the frequencies ``s``: one profile call on all nodes, then
    ``J_k(s r) @ (w r f0(r))`` in blocks of at most ``_BESSEL_BUDGET``
    entries."""
    h = f0.support_radius / n_panels
    r = (h * np.arange(n_panels)[:, None]
         + 0.5 * h * (_GL_NODES + 1.0)).ravel()
    # complex, so the product sums the same way for every profile
    g = (np.tile(0.5 * h * _GL_WEIGHTS, n_panels) * r * f0(r)).astype(complex)
    rows = max(1, _BESSEL_BUDGET // r.size)
    out = np.empty(s.size, dtype=complex)
    for lo in range(0, s.size, rows):
        out[lo:lo + rows] = bessel_j(k, np.outer(s[lo:lo + rows], r)) @ g
    return out


def _hankel_doubling(k: int, f0: RadialProfile, s: np.ndarray,
                     n_panels: int, tol: float) -> np.ndarray:
    """Double the panels from ``n_panels`` until two successive rules agree
    to ``tol`` at every frequency; return the finer one."""
    coarse = _hankel_rule(k, f0, s, n_panels)
    while 2 * n_panels <= _MAX_PANELS:
        n_panels *= 2
        fine = _hankel_rule(k, f0, s, n_panels)
        if np.max(np.abs(fine - coarse)) <= tol:
            return fine
        coarse = fine
    raise RuntimeError(
        f"Hankel transform did not settle to {tol:g} within {_MAX_PANELS} "
        f"panels (is the profile smooth inside its support?)")


def hankel_transform(k: int, f0: RadialProfile, s, tol: float = 1e-11):
    """Order-k Hankel transform ``integral of f0(r) J_k(s r) r dr``.

    Parameters
    ----------
    k:
        Bessel order (non-negative integer).
    f0:
        Compactly supported radial profile, smooth on ``[0, R]``; a jump at
        the support edge ``R`` is fine, one inside it is not.
    s:
        Evaluation frequency (scalar or array, ``s >= 0``).
    tol:
        Absolute error target per frequency.

    Returns
    -------
    Complex scalar for scalar ``s``, else a complex array of the shape of
    ``s``.  The integral is a composite 24-node Gauss-Legendre rule on equal
    panels of ``[0, R]``, about one panel per half-period of ``J_k`` at the
    largest frequency of each chunk, with the profile called once on all
    nodes.  The panels are doubled until two successive rules agree to
    ``tol``, and the finer one is returned.  Frequencies are taken in sorted
    chunks whose Bessel block stays within a fixed entry budget.

    Raises
    ------
    ValueError
        If a frequency is negative or not finite.
    RuntimeError
        If the rules still disagree by more than ``tol`` at 65536 panels,
        as for a profile that jumps inside its support, or if ``s R``
        exceeds about 1e5.
    """
    shape = np.shape(s)
    flat = np.asarray(s, dtype=float).ravel()
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("frequency must be finite and non-negative")
    order = np.argsort(flat)
    ss = flat[order]
    R = f0.support_radius
    panels = np.maximum(1, np.ceil(ss * R / math.pi)).astype(np.int64)
    per_row = 2 * _GL_NODES.size * panels     # nodes of the first doubled rule
    out = np.empty(ss.size, dtype=complex)
    lo = 0
    while lo < ss.size:
        # Largest chunk whose doubled rule fits the budget; per_row grows
        # along the sorted frequencies, so the fitting rows form a prefix.
        window = per_row[lo:lo + 1 + _BESSEL_BUDGET // int(per_row[lo])]
        fits = np.arange(1, window.size + 1) * window <= _BESSEL_BUDGET
        hi = lo + max(1, int(np.count_nonzero(fits)))
        out[lo:hi] = _hankel_doubling(k, f0, ss[lo:hi], int(panels[hi - 1]),
                                      tol)
        lo = hi
    result = np.empty_like(out)
    result[order] = out
    if shape == ():
        return complex(result[0])
    return result.reshape(shape)


def t_transform(j: int, h: Callable) -> Callable:
    """The substitution ``(T_j h)(y) = y h(2 pi j / sqrt(y))``."""
    if j <= 0:
        raise ValueError("index j must be a positive integer")

    def out(y):
        y = np.asarray(y, dtype=float)
        return y * np.asarray(h(2.0 * math.pi * j / np.sqrt(y)))

    return out


def s_transform(j: int, h: Callable) -> Callable:
    """Inverse substitution: ``(S_j h)(r) = (r / (2 pi j))^2 h((2 pi j)^2 / r^2)``.

    ``s_transform(j, t_transform(j, h))`` is the identity on profiles.
    """
    if j <= 0:
        raise ValueError("index j must be a positive integer")
    c = 2.0 * math.pi * j

    def out(r):
        r = np.asarray(r, dtype=float)
        return (r / c) ** 2 * np.asarray(h(c ** 2 / r ** 2))

    return out

"""Siegel--Veech transforms on the space of unit-area marked tori.

A point of the moduli space is a unit-covolume lattice with a marked
relative period.  In the half-space chart the lattice is spanned by
``tau/sqrt(y)`` and ``1/sqrt(y)`` and the marked period is ``z/sqrt(y)``.
Given a compactly supported plane function ``f``, the M-relative transform
sums ``f`` over the translates of the marked period by 1/M-th lattice
vectors,

``SV_M(f)(tau, z) = sum_{a,b} f((z + (a tau + b)/M) / sqrt(y))``,

and the absolute transform sums ``f`` over primitive lattice vectors.
The module provides exact evaluation of both (vectorized over sample
batches), configuration enumeration, Monte-Carlo verification of the
mean/second-moment identities, the Fourier-coefficient formula along the
fibre directions, the formal adjoint, and the commutation of the
transform with the invariant differential operators.

Normalization notes, pinned by the tests:

* the mean and second-moment identities hold with the *probability*
  normalization of the invariant measure (``E[SV] = M^2 * integral of f``),
  while inner products elsewhere carry the mass ``pi/3`` of the base;
* the fibre Fourier coefficient of the transform of a K-type-k function is
  ``2 pi M^2 (sign m)^k  H_k f0(2 pi |m| M / sqrt(y))`` at index ``(0, mM)``
  with ``H_k`` the order-k Hankel transform, and vanishes at every other
  index;
* for rotational type ``k`` the slash-invariant object is
  ``y^{k/2} SV_M(f)`` of weight ``-k`` (the raw sum itself is invariant
  only for ``k = 0``);
* the moduli space carries a frame angle that the 4-coordinate chart
  drops; evaluating the transform on the chart section is equivalent to
  the full space exactly when ``f`` is radial, so the Monte-Carlo moment
  identities are exercised with radial test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .enveloping import DiffOp
from .saff import (
    VOLUME_SL2,
    IwasawaCoords,
    JacobiPoint,
    ModularFunction,
    SAffElement,
    SL2Element,
    _act_entries,
    _batch_estimate,
    _batch_size,
    _check_points,
    _check_y_max,
    _disc_points,
    _disc_rows,
    _runs,
    _sample_block,
    element_from_iwasawa,
    element_to_point,
    reduce_arrays,
    reduce_to_fundamental,
)
from .special import (RadialProfile, _as_values, _gl_nodes, _uniform_spline,
                      hankel_transform)
from .operators import _apply_groups, foliated, total

__all__ = [
    "PlaneFunction",
    "k_type_function",
    "plane_integral",
    "plane_l2_norm_sq",
    "MarkedTorus",
    "config_rel_M",
    "config_abs",
    "sv_rel_values",
    "sv_rel_value",
    "sv_rel_modular",
    "sv_rel_invariant",
    "sv_abs_value",
    "sv_mean_mc",
    "sv_second_moment_mc",
    "radial_fourier",
    "dual_norm_sum_values",
    "sv_second_moment_exact_fibre",
    "sv_coefficient_prediction",
    "FundamentalBump",
    "sv_adjoint",
    "sv_adjoint_of_bump",
    "apply_euclidean",
    "sv_commutation_residuals",
]


# ---------------------------------------------------------------------------
# plane functions
# ---------------------------------------------------------------------------


@dataclass
class PlaneFunction:
    """Compactly supported function on the plane, seen as a function of a
    complex holonomy vector.

    A generic function has ``fn``, which must accept a complex numpy array;
    a k-type one (:func:`k_type_function`) has ``fn = None`` and its radial
    ``profile``.  ``__call__`` takes ``r = |zeta|`` once, for the support
    mask and for the profile.  Values are float64 for a real function and
    complex128 for a complex one.  ``k_type`` records the rotational type
    ``f = f0(r) exp(i k theta)`` (``None`` for a generic function); it is
    used as the weight label of the transform.
    """

    fn: Callable[[np.ndarray], np.ndarray] | None
    support_radius: float
    k_type: int | None = None
    profile: RadialProfile | None = None

    def __call__(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        r = np.abs(zeta)
        inside = r <= self.support_radius
        if self.profile is None:
            vals = self.fn(zeta)
        else:
            # profile.fn, not profile: the mask below is the support mask
            vals = np.asarray(self.profile.fn(r))
            if self.k_type:
                # zeta * (1 / r) is zeta / (r + 0j) up to signed zeros; one
                # operand order, as numpy's complex product is not bitwise
                # commutative (it elides ``vals * tmp`` to ``tmp *= vals``)
                inside &= r > 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    phase = zeta * (1.0 / r)
                    phase **= self.k_type
                    phase *= vals
                vals = phase
        return np.where(inside, _as_values(vals), 0.0)


def k_type_function(f0: RadialProfile, k: int) -> PlaneFunction:
    """The plane function ``f0(|zeta|) exp(i k arg zeta)``, evaluated from
    one modulus per point.

    The value at the origin is ``f0(0)`` for ``k = 0`` and ``0`` otherwise
    (the phase has no continuous extension there).  Values are ``f0``'s
    own for ``k = 0`` (float64 for a real profile) and complex otherwise.
    """
    return PlaneFunction(None, f0.support_radius, k_type=k, profile=f0)


# Polar rule of the plane integrals: Gauss--Legendre radii x uniform angles.
_N_R, _N_THETA = 200, 64


def _polar_grid(R: float):
    r, w = _gl_nodes(0.0, R, _N_R)
    theta = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
    wt = 2.0 * math.pi / _N_THETA
    zz = r[:, None] * np.exp(1j * theta)[None, :]
    ww = (w * r)[:, None] * wt
    return zz, ww


def plane_integral(f: PlaneFunction) -> complex:
    """Integral of ``f`` over the plane (polar Gauss--Legendre x trapezoid)."""
    zz, ww = _polar_grid(f.support_radius)
    return complex(np.sum(f(zz) * ww))


def plane_l2_norm_sq(f: PlaneFunction) -> float:
    """Squared Lebesgue L2 norm of ``f`` on the plane."""
    zz, ww = _polar_grid(f.support_radius)
    return float(np.sum(np.abs(f(zz)) ** 2 * ww))


# ---------------------------------------------------------------------------
# marked tori and configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedTorus:
    """Unit-covolume lattice ``Z b1 + Z b2`` with marked period ``z``."""

    b1: complex
    b2: complex
    z: complex

    @staticmethod
    def from_point(pt: JacobiPoint) -> "MarkedTorus":
        s = math.sqrt(pt.y)
        return MarkedTorus(complex(pt.x, pt.y) / s, 1.0 / s,
                           complex(pt.u, pt.v) / s)

    def covolume(self) -> float:
        return abs((np.conj(self.b1) * self.b2).imag)

    def acted(self, g: SL2Element) -> "MarkedTorus":
        e = SAffElement.from_sl2(g)   # the row action zeta -> zeta g
        return MarkedTorus(*(complex(*e.apply_to_vector((z.real, z.imag)))
                             for z in (self.b1, self.b2, self.z)))


def _check_M(M) -> None:
    """Raise ``ValueError`` unless ``M`` is an integer ``>= 1`` (not a bool)."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError("M must be a positive integer")


def _torus_pairs(t: MarkedTorus, z: complex, M: int, R: float):
    """Integer pairs ``(a, b)`` covering ``|z + (a b1 + b b2)/M| <= R``.

    Divided by ``b2`` this reads ``|M z/b2 + a tau' + b| <= M R/|b2|`` with
    ``tau' = b1/b2`` (conjugated for a negatively oriented basis).  A hair
    of slack in the radius keeps rounding from dropping a boundary point;
    the caller applies the exact test.
    """
    tau, c = t.b1 / t.b2, M * z / t.b2
    if tau.imag < 0.0:
        tau, c = tau.conjugate(), c.conjugate()
    _, row_a, point_row, b = _disc_points(
        np.array([c.real]), np.array([c.imag]), np.array([tau.real]),
        np.array([tau.imag]), np.array([M * R / abs(t.b2) * (1.0 + 1e-9)]))
    return row_a[point_row], b


def config_rel_M(t: MarkedTorus, M: int, R: float) -> np.ndarray:
    """All translates ``z + (a b1 + b b2)/M`` with norm at most ``R``.

    Returns a complex array sorted lexicographically by (real, imag).
    """
    _check_M(M)
    aa, bb = _torus_pairs(t, t.z, M, R)
    w = t.z + (aa * t.b1 + bb * t.b2) / M
    w = w[np.abs(w) <= R]
    order = np.lexsort((w.imag.round(12), w.real.round(12)))
    return w[order]


def config_abs(t: MarkedTorus, R: float) -> np.ndarray:
    """Primitive lattice vectors ``a b1 + b b2`` (gcd(a,b)=1) of norm <= R."""
    aa, bb = _torus_pairs(t, 0.0, 1, R)
    keep = np.gcd(np.abs(aa), np.abs(bb)) == 1
    aa, bb = aa[keep], bb[keep]
    w = aa * t.b1 + bb * t.b2
    w = w[np.abs(w) <= R]
    order = np.lexsort((w.imag.round(12), w.real.round(12)))
    return w[order]


# ---------------------------------------------------------------------------
# relative transform: vectorized lattice sums
# ---------------------------------------------------------------------------


def sv_rel_values(f: PlaneFunction, x, y, u, v, M: int) -> np.ndarray:
    """M-relative transform at sample arrays (broadcast, any shape).

    Samples are summed in runs that enumerate at most
    ``saff._POINT_BUDGET`` (2^15) lattice points, about 2 MB of
    temporaries, by the per-sample bound
    ``(2 rho / y + 1)(2 rho + 1)``, ``rho = M R sqrt(y)``; a sample is never
    split, so one over the budget runs alone.  Values do not depend on the
    runs.  A run lists its disc rows once (``saff._disc_rows``) and repeats
    each row quantity over the row's points; ``f`` gets ``zeta = ((a x + b)
    / M + u) / sqrt(y) + i t``, in that order.  The result is complex; a
    real ``f`` sums in float64 and gets imaginary part ``+0.0``.

    Raises
    ------
    ValueError
        If ``M`` is not an integer ``>= 1``, a coordinate is not finite, or
        some ``y <= 0``.
    """
    _check_M(M)
    xx, yy, uu, vv = np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float),
        np.asarray(u, float), np.asarray(v, float))
    _check_points(x=xx, y=yy, u=uu, v=vv)
    shape = xx.shape
    x, y, u, v = (np.ascontiguousarray(a.ravel()) for a in (xx, yy, uu, vv))
    out = np.zeros(x.size, dtype=complex)
    sq = np.sqrt(y)
    rho = M * f.support_radius * sq
    Mu, Mv = M * u, M * v
    for lo, hi in _runs(y, rho):
        xs, ys, us, vs, sqs = (a[lo:hi] for a in (x, y, u, v, sq))
        row_sample, a, b_lo, count = _disc_rows(
            Mu[lo:hi], Mv[lo:hi], xs, ys, rho[lo:hi])
        # t = (v + a y / M) / sqrt(y) per row
        t = ys[row_sample]
        t *= a
        t /= M
        t += vs[row_sample]
        t /= sqs[row_sample]
        # Re zeta = (u + (a x + b) / M) / sqrt(y) per point; b is exact in
        # float64 as (b_lo - start) + position, and a x + b == b + a x
        re = np.repeat((b_lo - (np.cumsum(count) - count)).astype(float),
                       count)
        re += np.arange(re.size, dtype=float)
        re += np.repeat(a * xs[row_sample], count)
        re /= M
        re += np.repeat(us[row_sample], count)
        zeta = np.empty(re.size, dtype=complex)
        np.divide(re, np.repeat(sqs[row_sample], count), out=zeta.real)
        del re
        zeta.imag = np.repeat(t, count)
        vals = f(zeta)
        sample = np.repeat(row_sample, count)
        if np.iscomplexobj(vals):
            # in point order from +0.0, as bincount sums each part
            np.add.at(out[lo:hi], sample, vals)
        else:
            out.real[lo:hi] = np.bincount(sample, weights=vals,
                                          minlength=hi - lo)
    return out.reshape(shape)


def sv_rel_value(f: PlaneFunction, pt: JacobiPoint, M: int) -> complex:
    """Scalar M-relative transform at one point."""
    return complex(sv_rel_values(f, pt.x, pt.y, pt.u, pt.v, M))


def sv_rel_modular(f: PlaneFunction, M: int) -> ModularFunction:
    """The raw transform as a function on the half-space.

    This is the coefficient-bearing object: its fibre Fourier coefficients
    obey the closed Hankel-transform formula.  For a rotational type
    ``k != 0`` the raw sum is *not* slash-invariant at any weight (its
    cocycle carries the unitary factor ``|c tau + d|^k (c tau + d)^{-k}``);
    use :func:`sv_rel_invariant` for the slash-invariant completion.
    """
    _check_M(M)

    def fn(x, y, u, v):
        return sv_rel_values(f, x, y, u, v, M)

    return ModularFunction(fn, weight=0)


def sv_rel_invariant(f: PlaneFunction, M: int) -> ModularFunction:
    """The slash-invariant completion ``y^{k/2} SV_M(f)`` of weight ``-k``.

    With the rotational phase ``(zeta/|zeta|)^k`` on the plane side and the
    left half-space action used throughout, ``y^{k/2} SV_M(f)`` satisfies
    ``phi |_{-k} gamma = phi`` exactly for every integral ``gamma``.
    """
    _check_M(M)
    k = f.k_type if f.k_type is not None else 0

    def fn(x, y, u, v):
        vals = sv_rel_values(f, x, y, u, v, M)
        if k == 0:
            return vals
        return np.asarray(y, dtype=float) ** (k / 2.0) * vals

    return ModularFunction(fn, weight=-k)


# ---------------------------------------------------------------------------
# absolute transform
# ---------------------------------------------------------------------------


def sv_abs_value(f: PlaneFunction, pt: JacobiPoint) -> complex:
    """Absolute transform: sum of ``f`` over primitive lattice vectors.

    Raises ``ValueError`` as :func:`sv_rel_values` for a coordinate that is
    not finite or ``y <= 0``.
    """
    _check_points(x=pt.x, y=pt.y, u=pt.u, v=pt.v)
    t = MarkedTorus.from_point(pt)
    w = config_abs(t, f.support_radius)
    return complex(np.sum(f(w)))


# ---------------------------------------------------------------------------
# Monte-Carlo moments
# ---------------------------------------------------------------------------


def sv_mean_mc(f: PlaneFunction, M: int, n_samples: int = 1_000_000,
               seed: int = 7, n_batches: int = 100, y_max: float = 1e3):
    """MC estimate of the mean of the transform (probability measure).

    Returns ``(estimate, stderr)``; the mean identity states the value
    ``M^2`` times the plane integral of ``f``.  The samples of
    ``sample_masur_veech(n_samples, seed, y_max)`` are drawn and summed
    one block of whole batches at a time (``saff._batch_estimate``, at
    most 2^16 values a call), so memory is bounded by the block or one
    batch, not by ``n_samples``; a block drawn alone is bitwise its slice
    of the full draw, so the estimate does not depend on the blocks.
    """
    _check_M(M)

    def values(lo, hi):
        s = _sample_block(n_samples, seed, y_max, lo, hi)
        return sv_rel_values(f, s.x, s.y, s.u, s.v, M)

    est, err = _batch_estimate(values, n_samples, n_batches)
    return complex(est), float(err)


def sv_second_moment_mc(f: PlaneFunction, M: int, n_samples: int = 1_000_000,
                        seed: int = 7, n_batches: int = 100,
                        y_max: float = 1e3):
    """MC estimate of the mean of the squared transform.

    For real ``f`` the target is ``M^4 (integral f)^2 + M^2 integral f^2``.
    The estimator has a heavy high-``y`` tail (values grow like ``sqrt(y)``
    where the fibre coordinate aligns with the short lattice direction), so
    ``y_max`` trades truncation bias against variance; use
    :func:`sv_second_moment_exact_fibre` for a variance-reduced estimate.
    The samples are drawn and summed one block at a time, as in
    :func:`sv_mean_mc`.
    """
    _check_M(M)

    def values(lo, hi):
        s = _sample_block(n_samples, seed, y_max, lo, hi)
        vals = sv_rel_values(f, s.x, s.y, s.u, s.v, M)
        return vals * vals

    est, err = _batch_estimate(values, n_samples, n_batches)
    return complex(est), float(err)


def radial_fourier(f0: RadialProfile, rho_max: float = 4.0,
                   n_grid: int = 481) -> RadialProfile:
    """Plane Fourier transform of a real radial function, as a radial
    profile backed by a spline.

    ``fhat(rho) = 2 pi H_0 f0(2 pi rho)`` with the ``e(-x.xi)`` character
    convention; real for real ``f0``.  Values beyond ``rho_max`` are
    treated as zero, so ``rho_max`` must be taken large enough that the
    discarded tail is negligible for the intended use.  The values are
    float64: the not-a-knot cubic spline through the transform at ``n_grid``
    uniform points, built and evaluated by ``special._uniform_spline``
    bitwise like scipy's ``CubicSpline`` without ``scipy.interpolate``.

    Raises
    ------
    ValueError
        If ``n_grid < 2``, ``rho_max <= 0`` or a transform value is not
        finite.
    """
    rho = np.linspace(0.0, rho_max, n_grid)
    vals = 2.0 * math.pi * np.real(
        np.asarray(hankel_transform(0, f0, 2.0 * math.pi * rho)))
    table = _uniform_spline(rho, vals)
    return RadialProfile(lambda r: table(np.minimum(r, rho_max)), rho_max)


def dual_norm_sum_values(h: RadialProfile, x, y, M: int) -> np.ndarray:
    """``sum_{(a,b) != (0,0)} h(M |a tau + b| / sqrt(y))`` vectorized over
    sample arrays.

    These are the norms of the nonzero vectors of the lattice dual to the
    1/M-refined period lattice; the sum is the exact fibre average of the
    squared transform when ``h = |fhat|^2`` (up to the ``M^4`` factor).
    Samples are summed in runs that enumerate at most
    ``saff._POINT_BUDGET`` (2^15) lattice points by the per-sample bound
    ``(2 rho / y + 1)(2 rho + 1)``, ``rho = R sqrt(y) / M``; a sample is
    never split, so one over the budget runs alone.  Values do not depend
    on the runs.

    Raises
    ------
    ValueError
        If ``M`` is not an integer ``>= 1``, a coordinate is not finite, or
        some ``y <= 0``.
    """
    _check_M(M)
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()
    _check_points(x=x, y=y)
    out = np.zeros(x.size, dtype=float)
    sq = np.sqrt(y)
    rho = h.support_radius * sq / M
    zero = np.zeros(x.size)
    for lo, hi in _runs(y, rho):
        xs, ys, sqs = x[lo:hi], y[lo:hi], sq[lo:hi]
        row_sample, a, point_row, b = _disc_points(
            zero[lo:hi], zero[lo:hi], xs, ys, rho[lo:hi])
        ax, ay2 = a * xs[row_sample], (a * ys[row_sample]) ** 2
        # M |a tau + b| / sqrt(y) per point
        norm = ax[point_row]
        norm += b
        norm *= norm
        norm += ay2[point_row]
        np.sqrt(norm, out=norm)
        norm *= M
        norm /= sqs[row_sample][point_row]
        vals = h(norm).real
        vals[(a[point_row] == 0) & (b == 0)] = 0.0
        out[lo:hi] = np.bincount(row_sample[point_row], weights=vals,
                                 minlength=hi - lo)
    return out


def sv_second_moment_exact_fibre(f0: RadialProfile, M: int,
                                 n_samples: int = 400_000, seed: int = 7,
                                 n_batches: int = 100, y_max: float = 1e6,
                                 rho_max: float = 4.0, n_grid: int = 481):
    """Second moment of the transform of a radial ``f`` with the fibre
    average done exactly.

    By Parseval over the marked-period torus, the average of ``|SV|^2``
    over the fibre above a base point ``tau`` is ``M^4 sum_{xi in dual
    lattice} |fhat(|xi|)|^2`` with ``|xi| = M |a tau + b| / sqrt(y)``;
    only the base average is estimated by MC, which removes the dominant
    fibre-alignment variance of the plain estimator.  Radial ``f`` only
    (the 4-coordinate section drops the frame angle, which is immaterial
    exactly when ``f`` is rotation-invariant).  The base points are drawn
    and summed one block at a time, as in :func:`sv_mean_mc`.
    """
    _check_M(M)
    _batch_size(n_samples, n_batches)   # fail before the Hankel work
    _check_y_max(y_max)
    fhat = radial_fourier(f0, rho_max, n_grid)
    h = RadialProfile(lambda r: fhat.fn(r) ** 2, rho_max)
    zero_mode = float(fhat(0.0)) ** 2

    def values(lo, hi):
        s = _sample_block(n_samples, seed, y_max, lo, hi)
        return M ** 4 * (dual_norm_sum_values(h, s.x, s.y, M) + zero_mode)

    est, err = _batch_estimate(values, n_samples, n_batches)
    return complex(est), float(err)


# ---------------------------------------------------------------------------
# fibre Fourier coefficients
# ---------------------------------------------------------------------------


def sv_coefficient_prediction(f0: RadialProfile, k: int, M: int, m: int,
                              y) -> np.ndarray:
    """Predicted fibre coefficient of the transform at index ``(0, mM)``.

    ``2 pi M^2 (sign m)^k H_k f0(2 pi |m| M / sqrt(y))`` with ``H_k`` the
    order-k Hankel transform; every index with ``n != 0`` or ``m-index not
    a multiple of M`` carries coefficient zero.
    """
    _check_M(M)
    if m == 0:
        raise ValueError("m must be nonzero")
    y = np.asarray(y, dtype=float)
    s = 2.0 * math.pi * abs(m) * M / np.sqrt(y)
    vals = np.asarray(hankel_transform(abs(k), f0, s), dtype=complex)
    sign = (1 if m > 0 else -1) ** k
    if k < 0:
        # J_{-k} = (-1)^k J_k for integer k
        sign *= (-1) ** k
    return 2.0 * math.pi * M * M * sign * vals


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


@dataclass
class FundamentalBump:
    """Smooth invariant test function supported in a band of the base.

    The value at a point is computed from the canonical representative:
    a bump in the reduced ``(x, y)`` times an even trigonometric factor in
    the reduced torus coordinates (evenness makes the value independent of
    the residual sign ambiguity of the torus representative).
    """

    y_band: tuple[float, float] = (1.2, 1.8)
    x_half: float = 0.4

    def formula(self, x, y, p, q):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        sx = x / self.x_half
        yc = 0.5 * (self.y_band[0] + self.y_band[1])
        yh = 0.5 * (self.y_band[1] - self.y_band[0])
        sy = (y - yc) / yh
        m = (np.abs(sx) < 1.0) & (np.abs(sy) < 1.0)
        # float_power squares with libm's pow at every shape, as ``**``
        # does on a scalar; ``**`` on an array multiplies instead, which can
        # differ by an ulp, so a point's value would depend on the call shape
        bump = np.where(
            m,
            np.exp(-1.0 / np.maximum(1.0 - np.float_power(sx, 2), 1e-300))
            * np.exp(-1.0 / np.maximum(1.0 - np.float_power(sy, 2), 1e-300)),
            0.0)
        trig = (1.0 + np.cos(2.0 * math.pi * np.asarray(p))) \
            * (1.0 + 0.5 * np.cos(2.0 * math.pi * np.asarray(q)))
        return bump * trig

    def on_element(self, e: SAffElement) -> float:
        red, _ = reduce_to_fundamental(element_to_point(e)[0])
        return float(self.formula(red.x, red.y, red.p, red.q))


def _stabilizer_cosets(n_samples: int, seed: int, y_max: float, lo: int,
                       hi: int):
    """Random elements of the conjugated-base fundamental domain.

    Returns SL2 elements ``g`` with base point Haar-distributed and a
    uniform frame angle; the stabilizer coset of a plane row ``p`` is then
    ``(g, p - (1,0) g)``.  Draws samples ``[lo, hi)`` of ``n_samples``,
    bitwise the slice of the full draw: base points by
    ``saff._sample_block``, angles from ``PCG64(seed + 1)`` advanced to
    ``lo``.  Raises ``ValueError`` unless ``y_max > 1``.
    """
    s = _sample_block(n_samples, seed, y_max, lo, hi)
    bitgen = np.random.PCG64(seed + 1)
    bitgen.advance(lo)
    theta = np.random.Generator(bitgen).uniform(0.0, 2.0 * math.pi, hi - lo)
    g = element_from_iwasawa(IwasawaCoords(s.x, s.y, 0.0, 0.0, theta)).g
    return g.a, g.b, g.c, g.d


def _plane_rows(p_rows) -> np.ndarray:
    """``p_rows`` as a finite float (n, 2) array, or ``ValueError``."""
    rows = np.atleast_2d(np.asarray(p_rows, float))
    if rows.ndim != 2 or rows.shape[1] != 2 or not np.isfinite(rows).all():
        raise ValueError("p_rows must be a finite array of shape (n, 2)")
    return rows


def sv_adjoint(h: Callable[[SAffElement], complex], p_rows: np.ndarray,
               n_samples: int = 4000, seed: int = 5, n_batches: int = 20,
               y_max: float = 1e3):
    """Formal adjoint at plane rows: MC average of ``h`` over the
    stabilizer coset of each row, times the base mass ``pi/3``.

    ``p_rows`` has shape (n, 2); the cosets are drawn and ``h`` is called
    one block at a time (``saff._batch_estimate``).  Returns
    ``(values, stderrs)``; raises ``ValueError`` for bad rows, batches or
    ``y_max`` before calling ``h``.
    """
    p_rows = _plane_rows(p_rows)

    def values(lo, hi):
        a, b, c, d = _stabilizer_cosets(n_samples, seed, y_max, lo, hi)
        vals = np.empty((hi - lo, p_rows.shape[0]), dtype=complex)
        for i in range(hi - lo):
            g = SL2Element(a[i], b[i], c[i], d[i])
            for j, p in enumerate(p_rows):
                vals[i, j] = h(SAffElement(g, (p[0] - a[i], p[1] - b[i])))
        return vals

    est, err = _batch_estimate(values, n_samples, n_batches, p_rows.shape[0])
    return VOLUME_SL2 * est, VOLUME_SL2 * err


def sv_adjoint_of_bump(hb: FundamentalBump, p_rows: np.ndarray,
                       n_samples: int = 40_000, seed: int = 5,
                       n_batches: int = 20, y_max: float = 1e3):
    """Fast adjoint of a :class:`FundamentalBump`.

    Exploits that the base part of the coset element does not depend on
    the plane row: the base points of the samples are reduced together by
    :func:`~strata.saff.reduce_arrays`, and the fibre coordinates then
    follow from the NAK chart for all rows at once.  The driver
    (``saff._batch_estimate``) asks for at most 2^16 sample-by-row values
    a call, so one block (or one larger batch) of values and one call's
    temporaries are held, each value bitwise the one of the whole draw.
    Returns ``(values, stderrs)`` and raises as :func:`sv_adjoint`.
    """
    p_rows = _plane_rows(p_rows)

    def values(lo, hi):
        # one sample per row, against the plane rows along the columns
        a, b, c, d = (t[:, None] for t in
                      _stabilizer_cosets(n_samples, seed, y_max, lo, hi))
        # the point of each coset (g, p - (1, 0) g); its base point depends
        # on g alone (one per sample), so it is reduced once for all rows
        pt, _ = element_to_point(SAffElement(
            SL2Element(a, b, c, d), (p_rows[:, 0] - a, p_rows[:, 1] - b)))
        (x_r, y_r, _, _), gamma = reduce_arrays(pt.x, pt.y, 0.0, 0.0)
        _, _, u, v, _ = _act_entries(*gamma, pt.x, pt.y, pt.u, pt.v)
        del pt   # the call's arrays go as soon as they are used
        p = v / y_r
        q = u - v * x_r / y_r
        del u, v
        p -= np.floor(p)
        q -= np.floor(q)
        return hb.formula(x_r, y_r, p, q)

    est, err = _batch_estimate(values, n_samples, n_batches, p_rows.shape[0])
    return (VOLUME_SL2 * est).astype(complex), VOLUME_SL2 * err


# ---------------------------------------------------------------------------
# commutation with the invariant operators
# ---------------------------------------------------------------------------


def apply_euclidean(op: DiffOp, f: PlaneFunction) -> PlaneFunction:
    """Apply a polynomial-coefficient plane operator to ``f`` numerically.

    The plane coordinates of the operator act in the chart
    ``zeta = w2 + i w1``; radial inputs are insensitive to this
    orientation.  ``f`` should be smooth across its support edge (use a
    windowed profile).
    """

    # slots follow the (x, y, u, v) convention of the operator tables:
    # w1 rides in the x slot, w2 in the u slot, at unit y and v
    groups = tuple(
        (lambda w1, _y, w2, _v, _k, c=complex(coeff), e=e:
         c * w1 ** e[0] * w2 ** e[1], ((1, "x" * dd[0] + "u" * dd[1]),))
        for (e, dd), coeff in op.terms.items())

    def plane(w1s, _ys, w2s, _vs):
        return f(w2s + 1j * w1s)

    def fn(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        out = np.zeros(zeta.shape, dtype=complex)  # the zero operator's image
        if groups:
            out = out + _apply_groups(plane, (groups,), 0, zeta.imag, 1.0,
                                      zeta.real, 1.0)[0]
        return out

    return PlaneFunction(fn, f.support_radius, k_type=f.k_type)


def sv_commutation_residuals(f: PlaneFunction, M: int,
                             pts: list[JacobiPoint],
                             quadratic: DiffOp) -> tuple[float, float]:
    """Residuals of the two commutation identities at sample points.

    Returns ``(cubic_residual, quadratic_residual)`` where the cubic
    invariant operator must annihilate the transform and the quadratic one
    must commute with it through the plane operator ``quadratic``; both
    residuals are relative to the scale of the quadratic image.
    """
    phi = sv_rel_modular(f, M)
    phi_df = sv_rel_modular(apply_euclidean(quadratic, f), M)
    x, y, u, v = (np.array([getattr(pt, c) for pt in pts]) for c in "xyuv")
    fol = foliated(phi).fn(x, y, u, v)
    tot = total(phi).fn(x, y, u, v)
    want = phi_df.fn(x, y, u, v)
    scale = max(np.abs(want).max(), np.abs(fol).max(), 1e-30)
    return (float(np.abs(tot).max() / scale),
            float(np.abs(fol - want).max() / scale))

"""Group elements, coordinate charts, and sampling for the special affine group.

The group ``G = SL2(R) x| R^2`` acts on row vectors by ``v . (g, w) = v g + w``
(a right action), with composition ``(g, w)(g~, w~) = (g g~, w g~ + w~)``.
Faithful 3x3 embedding: ``(g, w) -> [[g, 0], [w, 1]]`` acting on row 3-vectors
``(v1, v2, 1)`` from the right.

The quotient by the integer subgroup is charted by the Jacobi half-space
``H' = H x C`` with ``tau = x + i y`` and ``z = u + i v = p tau + q``; the
torus coordinates ``(p, q) = (v / y, u - v x / y)`` are the affine lattice
coordinates of ``z`` with respect to ``(tau, 1)``.  The left action on points

    (g, w) . (tau, z) = ((a tau + b) / (c tau + d), (z + w1 tau + w2) / (c tau + d))

is compatible with the composition law above, and the weight-k slash

    (phi |_k (g, w))(tau, z) = (c tau + d)^(-k) phi((g, w) . (tau, z))

is a right action on functions.  Lifting by the Iwasawa chart turns a weight-k
function on points into a function on the group:

    lift(phi)(element) = exp(i k theta) y^(k/2) phi(tau, z(element)).

Group elements may carry numpy arrays that broadcast as entries: such an
element is the array of its entrywise elements, on which ``compose``,
``inverse``, ``lift`` and the action (``_act_arrays``, ``slash``) work
entrywise with the scalar arithmetic; so do the charts, whose coordinates
(``IwasawaCoords``) may be arrays too.

The invariant measure on the quotient is ``dx dy du dv / y^3`` (equivalently
``dx dy dp dq / y^2``); its total mass is ``pi / 3`` and ``sample_masur_veech``
draws from the normalized law by exact inverse-CDF sampling, truncated at a
configurable ``y_max`` whose leftover tail mass ``(3 / pi) / y_max`` is
reported alongside the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "VOLUME_SL2",
    "SL2Element",
    "SAffElement",
    "IwasawaCoords",
    "JacobiPoint",
    "ModularFunction",
    "act_on_jacobi",
    "slash",
    "lift",
    "element_from_iwasawa",
    "iwasawa_from_element",
    "point_to_element",
    "element_to_point",
    "reduce_to_fundamental",
    "reduce_arrays",
    "coprime_pairs",
    "MasurVeechSample",
    "sample_masur_veech",
    "inner_product",
]

#: Hyperbolic area of the modular surface; total mass of dx dy du dv / y^3
#: on the quotient (the torus fibers have unit area).
VOLUME_SL2 = math.pi / 3.0

#: Compositions between automatic determinant renormalizations.
_RENORM_EVERY = 64


@dataclass(frozen=True, slots=True)
class SL2Element:
    """Real 2x2 matrix of determinant one, ``[[a, b], [c, d]]``.

    Long composition chains drift away from determinant one in floating
    point; a rescale by ``det^(-1/2)`` is applied automatically once the
    chain counter reaches a threshold, which controls drift without paying
    a square root on every product.
    """

    a: float
    b: float
    c: float
    d: float
    chain: int = field(default=0, compare=False)

    @staticmethod
    def identity() -> "SL2Element":
        return SL2Element(1.0, 0.0, 0.0, 1.0)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def renormalized(self) -> "SL2Element":
        s = 1.0 / np.sqrt(self.det())
        return SL2Element(self.a * s, self.b * s, self.c * s, self.d * s, 0)

    def __matmul__(self, o: "SL2Element") -> "SL2Element":
        out = SL2Element(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
            max(self.chain, o.chain) + 1,
        )
        if out.chain >= _RENORM_EVERY:
            out = out.renormalized()
        return out

    def inv(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a, self.chain)


@dataclass(frozen=True, slots=True)
class SAffElement:
    """Group element ``(g, w)`` with ``w`` a row vector."""

    g: SL2Element
    w: tuple[float, float]

    @staticmethod
    def identity() -> "SAffElement":
        return SAffElement(SL2Element.identity(), (0.0, 0.0))

    @staticmethod
    def from_sl2(g: SL2Element) -> "SAffElement":
        return SAffElement(g, (0.0, 0.0))

    @staticmethod
    def translation(w1: float, w2: float) -> "SAffElement":
        return SAffElement(SL2Element.identity(), (w1, w2))

    def compose(self, o: "SAffElement") -> "SAffElement":
        g = self.g @ o.g
        w1 = self.w[0] * o.g.a + self.w[1] * o.g.c + o.w[0]
        w2 = self.w[0] * o.g.b + self.w[1] * o.g.d + o.w[1]
        return SAffElement(g, (w1, w2))

    def inverse(self) -> "SAffElement":
        gi = self.g.inv()
        w1 = -(self.w[0] * gi.a + self.w[1] * gi.c)
        w2 = -(self.w[0] * gi.b + self.w[1] * gi.d)
        return SAffElement(gi, (w1, w2))

    def matrix3(self) -> np.ndarray:
        """Faithful 3x3 embedding ``[[g, 0], [w, 1]]`` (row-vector action)."""
        return np.array([
            [self.g.a, self.g.b, 0.0],
            [self.g.c, self.g.d, 0.0],
            [self.w[0], self.w[1], 1.0],
        ])

    def apply_to_vector(self, v: tuple[float, float]) -> tuple[float, float]:
        """Affine right action ``v -> v g + w`` on a row vector."""
        return SAffElement.translation(*v).compose(self).w


@dataclass(frozen=True, slots=True)
class IwasawaCoords:
    """NAK coordinates: horocycle ``x``, height ``y``, translation ``(w1, w2)``,
    rotation angle ``theta``.

    The element is ``([[1, x], [0, 1]], (w1, w2)) . diag(sqrt(y), 1/sqrt(y))
    . rot(theta)`` where ``rot(theta) = [[cos, sin], [-sin, cos]]``; the
    translation coordinates relate to the Jacobi point by ``w1 = v / y``,
    ``w2 = u``.  The fields may be arrays (of an array-valued element).
    """

    x: float
    y: float
    w1: float
    w2: float
    theta: float


@dataclass(frozen=True, slots=True)
class JacobiPoint:
    """Point ``(tau, z) = (x + i y, u + i v)`` of the Jacobi half-space."""

    x: float
    y: float
    u: float = 0.0
    v: float = 0.0

    @property
    def tau(self) -> complex:
        return complex(self.x, self.y)

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)

    @property
    def p(self) -> float:
        return self.v / self.y

    @property
    def q(self) -> float:
        return self.u - self.v * self.x / self.y

    @staticmethod
    def from_pq(x: float, y: float, p: float, q: float) -> "JacobiPoint":
        return JacobiPoint(x, y, u=q + p * x, v=p * y)


@dataclass
class ModularFunction:
    """Weight-k function on the Jacobi half-space with a vectorized evaluator.

    ``fn(x, y, u, v)`` must accept broadcastable numpy arrays and return a
    complex array; scalar evaluation at a point goes through ``at``.
    """

    fn: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    weight: int

    def __call__(self, x, y, u, v):
        return self.fn(np.asarray(x, float), np.asarray(y, float),
                       np.asarray(u, float), np.asarray(v, float))

    def at(self, pt: JacobiPoint) -> complex:
        return complex(np.asarray(self(pt.x, pt.y, pt.u, pt.v)))


def _act_entries(a, b, c, d, w1, w2, x, y, u, v):
    """Image of points under the left action of ``([[a, b], [c, d]],
    (w1, w2))``, plus the cocycle ``c tau + d``; the entries may be arrays
    broadcasting against the points."""
    tau = x + 1j * y
    z = u + 1j * v
    jac = c * tau + d
    tau2 = (a * tau + b) / jac
    z2 = (z + w1 * tau + w2) / jac
    return tau2.real, tau2.imag, z2.real, z2.imag, jac


def _act_arrays(e: SAffElement, x, y, u, v):
    """Image of points under the left action, plus the cocycle ``c tau + d``."""
    return _act_entries(e.g.a, e.g.b, e.g.c, e.g.d, e.w[0], e.w[1], x, y, u, v)


def act_on_jacobi(e: SAffElement, pt: JacobiPoint) -> JacobiPoint:
    """Left action of the group on the Jacobi half-space."""
    x2, y2, u2, v2, _ = _act_arrays(
        e, np.asarray(pt.x), np.asarray(pt.y), np.asarray(pt.u), np.asarray(pt.v))
    return JacobiPoint(float(x2), float(y2), float(u2), float(v2))


def slash(phi: ModularFunction, e: SAffElement) -> ModularFunction:
    """Weight-k slash action ``phi -> phi |_k e``; a right action on functions."""
    k = phi.weight

    def fn(x, y, u, v):
        x2, y2, u2, v2, jac = _act_arrays(e, x, y, u, v)
        return jac ** (-k) * phi.fn(x2, y2, u2, v2)

    return ModularFunction(fn, k)


def element_from_iwasawa(c: IwasawaCoords) -> SAffElement:
    """The element of NAK coordinates, in closed form; raises
    ``ValueError`` naming a coordinate that is not finite, or ``y <= 0``."""
    _check_points(x=c.x, y=c.y, w1=c.w1, w2=c.w2, theta=c.theta)
    sq = np.sqrt(c.y)
    ct, st = np.cos(c.theta), np.sin(c.theta)
    xs, w2s = c.x / sq, c.w2 / sq
    g = SL2Element(sq * ct - xs * st, sq * st + xs * ct, -st / sq, ct / sq)
    return SAffElement(g, (c.w1 * sq * ct - w2s * st,
                           c.w1 * sq * st + w2s * ct))


def iwasawa_from_element(e: SAffElement) -> IwasawaCoords:
    """Invert the NAK chart; only theta, in (-pi, pi], needs trigonometry."""
    a, b, c, d = e.g.a, e.g.b, e.g.c, e.g.d
    w1, w2 = e.w
    den = c * c + d * d
    y = 1.0 / den
    x = (a * c + b * d) / den
    return IwasawaCoords(x, y, w1 * d - w2 * c, y * (w1 * c + w2 * d),
                         np.arctan2(-c, d))


def point_to_element(pt: JacobiPoint, theta: float = 0.0) -> SAffElement:
    """Section of the point map: an element sending the base point to
    ``pt``; raises as :func:`element_from_iwasawa`."""
    _check_points(x=pt.x, y=pt.y, u=pt.u, v=pt.v, theta=theta)
    return element_from_iwasawa(
        IwasawaCoords(pt.x, pt.y, pt.v / pt.y, pt.u, theta))


def element_to_point(e: SAffElement) -> tuple[JacobiPoint, float]:
    """Image of the base point under ``e``, plus the rotation angle."""
    c = iwasawa_from_element(e)
    return JacobiPoint(c.x, c.y, u=c.w2, v=c.w1 * c.y), c.theta


def lift(phi: ModularFunction) -> Callable[[SAffElement], np.ndarray]:
    """Lift a weight-k point function to the group.

    ``lift(phi)(e) = exp(i k theta) y^(k/2) phi(point(e))``; the result
    intertwines the slash action with right group translation and transforms
    under right rotation by the character ``exp(i k theta)`` (K-type k).
    The entries of ``e`` may be arrays: the values then come as a complex
    array of their broadcast shape.  Scalar entries are evaluated as
    one-entry arrays, so where the entries share one shape each value is
    bitwise the value at the scalar element of those entries.
    """
    k = phi.weight

    def fn(e: SAffElement) -> np.ndarray:
        entries = (e.g.a, e.g.b, e.g.c, e.g.d, e.w[0], e.w[1])
        shape = np.broadcast_shapes(*map(np.shape, entries))
        a, b, c, d, w1, w2 = np.broadcast_arrays(*map(np.atleast_1d, entries))
        pt, theta = element_to_point(
            SAffElement(SL2Element(a, b, c, d), (w1, w2)))
        vals = (np.exp(1j * k * theta) * pt.y ** (k / 2.0)
                * phi(pt.x, pt.y, pt.u, pt.v))
        return vals.reshape(shape)[()]   # a scalar for a scalar element

    return fn


_S = SL2Element(0.0, -1.0, 1.0, 0.0)
_T = SL2Element(1.0, 1.0, 0.0, 1.0)
# Steps of the reduction loop; valid inputs settle long before.
_REDUCE_MAX_ITER = 128


def _step(step: SAffElement, cur: JacobiPoint, gamma: SAffElement
          ) -> tuple[JacobiPoint, SAffElement]:
    """Move ``cur`` by ``step`` and record it in ``gamma``."""
    return act_on_jacobi(step, cur), step.compose(gamma)


def reduce_to_fundamental(pt: JacobiPoint) -> tuple[JacobiPoint, SAffElement]:
    """Move a point into the fundamental domain of the integer subgroup.

    The base of the returned point satisfies ``|x| <= 1/2`` and ``|tau| >= 1``
    (ties: ``x = +1/2`` preferred over ``-1/2``; on the open half-arc
    ``|tau| = 1``, ``0 < x < 1/2`` the representative is flipped to ``x < 0``,
    while the corner is canonicalized to ``x = +1/2``), and the torus
    coordinates satisfy ``0 <= p, q < 1``.  Returns ``(reduced, gamma)`` with
    ``gamma`` integral and ``act_on_jacobi(gamma, pt) == reduced`` up to
    rounding; reducing ``reduced`` again returns it with the identity.  A
    torus coordinate that rounding leaves a hair outside ``[0, 1)`` is
    shifted by the nearest integer and set to 0 by moving ``v`` (for ``p``)
    or ``u`` (for ``q``) within rounding.

    Raises
    ------
    ValueError
        If a coordinate is not finite or ``y <= 0``.
    RuntimeError
        If the reduction loop fails to settle within ``_REDUCE_MAX_ITER``
        steps (cannot happen for valid inputs).
    """
    if not math.isfinite(pt.x + pt.y + pt.u + pt.v):   # cheap common case
        for name in ("x", "y", "u", "v"):
            if not math.isfinite(getattr(pt, name)):
                raise ValueError(f"point coordinate {name} must be finite")
    if not (pt.y > 0.0):
        raise ValueError("point must have y > 0")
    gamma = SAffElement.identity()
    cur = pt
    for _ in range(_REDUCE_MAX_ITER):
        shift = -math.floor(cur.x + 0.5)
        if shift != 0:
            cur, gamma = _step(SAffElement.from_sl2(
                SL2Element(1.0, float(shift), 0.0, 1.0)), cur, gamma)
        norm = cur.x * cur.x + cur.y * cur.y
        if norm < 1.0 - 1e-15:
            cur, gamma = _step(SAffElement.from_sl2(_S), cur, gamma)
            continue
        if cur.x <= -0.5:
            cur, gamma = _step(SAffElement.from_sl2(_T), cur, gamma)
        # Arc rule applies on the open half-arc only; the corner stays at +1/2.
        if abs(norm - 1.0) < 1e-15 and 0.0 < cur.x < 0.5 - 1e-12:
            cur, gamma = _step(SAffElement.from_sl2(_S), cur, gamma)
        break
    else:
        raise RuntimeError("fundamental-domain reduction did not settle")
    m1 = -math.floor(cur.p)
    m2 = -math.floor(cur.q)
    if m1 == 0 and m2 == 0:
        return cur, gamma
    cur, gamma = _step(SAffElement.translation(float(m1), float(m2)),
                       cur, gamma)
    for name, (w1, w2) in (("p", (1.0, 0.0)), ("q", (0.0, 1.0))):
        value = getattr(cur, name)
        if not 0.0 <= value < 1.0:   # within rounding of an integer
            n = -float(round(value))
            cur, gamma = _step(SAffElement.translation(n * w1, n * w2),
                               cur, gamma)
            # exactly 0: p = v / y, q = u - v x / y
            cur = (replace(cur, v=0.0) if name == "p"
                   else replace(cur, u=cur.v * cur.x / cur.y))
    return cur, gamma


def reduce_arrays(x, y, u, v):
    """:func:`reduce_to_fundamental` for arrays of points.

    The arguments broadcast to one shape.  Each point takes the steps the
    scalar path takes, under the same rules and with the same arithmetic
    (:func:`_act_entries`, and the composition of :meth:`SAffElement.compose`
    on the entries of ``gamma``), so it comes out bitwise as
    :func:`reduce_to_fundamental` leaves it.  The points still moving are
    gathered at every step.  The entries of ``gamma`` are integers, so the
    scalar path's determinant rescale leaves them as they are.

    Returns ``((x, y, u, v), (a, b, c, d, w1, w2))``: the reduced
    coordinates and the entries of each point's ``gamma``, as float
    arrays of the broadcast shape.

    Raises
    ------
    ValueError
        If a coordinate is not finite or ``y <= 0`` at some point, with the
        message of :func:`reduce_to_fundamental`.
    RuntimeError
        If a point fails to settle within ``_REDUCE_MAX_ITER`` steps.
    """
    pts = [np.array(t, dtype=float) for t in np.broadcast_arrays(x, y, u, v)]
    shape = pts[0].shape
    x, y, u, v = (t.reshape(-1) for t in pts)   # views of fresh copies
    for name, arr in zip("xyuv", (x, y, u, v)):
        if not np.isfinite(arr).all():
            raise ValueError(f"point coordinate {name} must be finite")
    if not (y > 0.0).all():
        raise ValueError("point must have y > 0")
    ga, gb, gc, gd, g1, g2 = (np.full(x.size, e) for e in
                              (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))

    def step(idx, a, b, c, d, w1=0.0, w2=0.0):
        """Move the points ``idx`` by ``([[a, b], [c, d]], (w1, w2))`` and
        compose it into their ``gamma`` on the left."""
        if idx.size == 0:
            return
        x[idx], y[idx], u[idx], v[idx], _ = _act_entries(
            a, b, c, d, w1, w2, x[idx], y[idx], u[idx], v[idx])
        oa, ob, oc, od = ga[idx], gb[idx], gc[idx], gd[idx]
        ga[idx], gb[idx] = a * oa + b * oc, a * ob + b * od
        gc[idx], gd[idx] = c * oa + d * oc, c * ob + d * od
        g1[idx] = w1 * oa + w2 * oc + g1[idx]
        g2[idx] = w1 * ob + w2 * od + g2[idx]

    s_entries, t_entries = ((m.a, m.b, m.c, m.d) for m in (_S, _T))
    todo = np.arange(x.size)
    for _ in range(_REDUCE_MAX_ITER):
        if todo.size == 0:
            break
        shift = -np.floor(x[todo] + 0.5)
        moves = shift != 0
        step(todo[moves], 1.0, shift[moves], 0.0, 1.0)
        xt = x[todo]
        norm = xt * xt + y[todo] * y[todo]
        inside = norm < 1.0 - 1e-15
        step(todo[inside], *s_entries)
        done, norm = todo[~inside], norm[~inside]
        step(done[x[done] <= -0.5], *t_entries)
        # Arc rule applies on the open half-arc only; the corner stays at +1/2.
        xd = x[done]
        step(done[(np.abs(norm - 1.0) < 1e-15) & (0.0 < xd)
                  & (xd < 0.5 - 1e-12)], *s_entries)
        todo = todo[inside]
    if todo.size:
        raise RuntimeError("fundamental-domain reduction did not settle")
    # 0.0 - floor keeps the zero shifts +0.0, as float(-math.floor(.)) does
    m1 = 0.0 - np.floor(v / y)
    m2 = 0.0 - np.floor(u - v * x / y)
    torus = np.flatnonzero((m1 != 0.0) | (m2 != 0.0))
    step(torus, 1.0, 0.0, 0.0, 1.0, m1[torus], m2[torus])
    for name, (w1, w2) in (("p", (1.0, 0.0)), ("q", (0.0, 1.0))):
        xt, yt, ut, vt = x[torus], y[torus], u[torus], v[torus]
        value = vt / yt if name == "p" else ut - vt * xt / yt
        off = ~((0.0 <= value) & (value < 1.0))   # within rounding of an integer
        idx = torus[off]
        # + 0.0 turns a rounded -0.0 into the 0 that Python's round gives
        n = -(np.round(value[off]) + 0.0)
        step(idx, 1.0, 0.0, 0.0, 1.0, n * w1, n * w2)
        # exactly 0: p = v / y, q = u - v x / y
        if name == "p":
            v[idx] = 0.0
        else:
            u[idx] = v[idx] * x[idx] / y[idx]
    return ((x.reshape(shape), y.reshape(shape), u.reshape(shape),
             v.reshape(shape)),
            tuple(g.reshape(shape) for g in (ga, gb, gc, gd, g1, g2)))


def coprime_pairs(cmax: int, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Coprime integer pairs ``(c, d)`` with ``|c| <= cmax``, ``|d| <= dmax``
    (the bottom rows of ``SL2(Z)``), as two arrays in lexicographic order."""
    c, d = np.meshgrid(np.arange(-cmax, cmax + 1), np.arange(-dmax, dmax + 1),
                       indexing="ij")
    keep = np.gcd(c, d) == 1
    return c[keep], d[keep]


def _check_points(**coords: np.ndarray) -> None:
    """Reject points no evaluator can use: raise ``ValueError`` naming the
    first non-finite coordinate, then for ``y <= 0``.  ``coords`` are arrays
    or numbers keyed by coordinate name, ``y`` among them."""
    y = coords["y"]
    # One pass over the sum keeps scalar calls cheap; the per-coordinate
    # pass only runs to name the culprit (and passes on a mere overflow).
    if np.isfinite(sum(coords.values())).all() and np.all(y > 0.0):
        return
    for name, arr in coords.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if not np.all(y > 0.0):
        raise ValueError("y must be positive")


def _ragged(lo: np.ndarray, count: np.ndarray):
    """Expand the runs of ``count_i >= 0`` consecutive integers from
    ``lo_i`` into ``(owner, value)`` arrays, runs in order."""
    owner = np.repeat(np.arange(lo.size), count)
    # value = lo + (position - start), as one repeat and one in-place add
    value = np.repeat(lo - (np.cumsum(count) - count), count)
    value += np.arange(value.size)
    return owner, value


def _disc_rows(c_re, c_im, x, y, rho):
    """Rows of the integer pairs ``(a, b)`` with ``|(c_re + a x + b) +
    i (c_im + a y)| <= rho`` per sample (arrays of one length, ``y > 0``):
    ``(row_sample, row_a, b_lo, count)``, each row's sample, ``a``
    (ascending), least ``b`` and number of points.  A caller expands a row
    quantity to its points by ``np.repeat(., count)``."""
    a_lo = np.ceil((-c_im - rho) / y).astype(np.int64)
    a_hi = np.floor((-c_im + rho) / y).astype(np.int64)
    row_sample, row_a = _ragged(a_lo, np.maximum(a_hi - a_lo + 1, 0))
    im = c_im[row_sample] + row_a * y[row_sample]
    half = np.sqrt(np.maximum(rho[row_sample] ** 2 - im ** 2, 0.0))
    re = c_re[row_sample] + row_a * x[row_sample]
    b_lo = np.ceil(-re - half).astype(np.int64)
    count = np.maximum(np.floor(-re + half).astype(np.int64) - b_lo + 1, 0)
    return row_sample, row_a, b_lo, count


def _disc_points(c_re, c_im, x, y, rho):
    """The rows of :func:`_disc_rows` and their points, ``b`` ascending in
    a row: ``(row_sample, row_a, point_row, b)``."""
    row_sample, row_a, b_lo, count = _disc_rows(c_re, c_im, x, y, rho)
    return (row_sample, row_a, *_ragged(b_lo, count))


# Lattice points one run of samples may enumerate (256 KiB per int64 or
# float64 point array).  Against 2^17, the coefficient tables of the
# benchmark page-fault about twelve times less (sweep in CHANGES.md).
_POINT_BUDGET = 1 << 15
# Values one block of a Monte-Carlo estimate may hold, in whole batches
# (a batch larger than this is a block of its own).  With runs of 2^15
# points, blocks of 2^16 samples took the peak RSS of ``strata all`` from
# about 122 to 94 MB; blocks of 2^15 saved 3 MB more but made the
# coefficient tables page-fault five times as often (sweep in CHANGES.md).
_SAMPLE_BLOCK = 1 << 16


def _runs(y: np.ndarray, rho: np.ndarray):
    """Cut ``range(y.size)`` into runs ``[lo, hi)`` whose point bounds
    ``(2 rho / y + 1)(2 rho + 1)`` sum to at most ``_POINT_BUDGET``, with
    ``rho`` each sample's disc radius as given to :func:`_disc_rows`.
    A sample is never split, so one over the budget runs alone.  The
    bounds are summed once per call; each cut is one binary search.
    """
    cost = np.cumsum((2.0 * rho / y + 1.0) * (2.0 * rho + 1.0))
    lo = 0
    while lo < y.size:
        spent = cost[lo - 1] if lo else 0.0
        hi = int(np.searchsorted(cost, spent + _POINT_BUDGET, "right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


@dataclass
class MasurVeechSample:
    """Batch of points drawn from the normalized invariant measure.

    Arrays ``x, y, p, q`` have common length ``n``; ``u, v`` are derived.
    ``tail_mass`` is the analytic probability mass above the ``y_max``
    truncation under the untruncated law.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    q: np.ndarray
    seed: int
    y_max: float

    def __len__(self) -> int:
        return len(self.x)

    @property
    def u(self) -> np.ndarray:
        return self.q + self.p * self.x

    @property
    def v(self) -> np.ndarray:
        return self.p * self.y

    @property
    def tail_mass(self) -> float:
        return (3.0 / math.pi) / self.y_max


def sample_masur_veech(n: int, seed: int, y_max: float = 1e3) -> MasurVeechSample:
    """Draw ``n`` points from the normalized measure ``(3/pi) dx dy dp dq / y^2``.

    Exact inverse-CDF sampling over the fundamental domain (no rejection):
    the marginal of ``x`` has density ``(3/pi)(1 - x^2)^(-1/2)`` on
    ``(-1/2, 1/2)``, the conditional of ``y`` has density proportional to
    ``y^(-2)`` on ``(sqrt(1 - x^2), y_max)``, and ``(p, q)`` are uniform on
    the unit square.  The truncation at ``y_max`` leaves tail mass
    ``(3/pi)/y_max``, reported by the sample object.

    The draw is the block ``[0, n)`` of :func:`_sample_block`, so any
    block ``[lo, hi)`` drawn alone is bitwise this sample's slice
    ``[lo:hi]``.  Raises ``ValueError`` unless ``y_max > 1``; ``inf``
    draws from the untruncated law.
    """
    return _sample_block(n, seed, y_max, 0, n)


def _sample_block(n: int, seed: int, y_max: float, lo: int, hi: int
                  ) -> MasurVeechSample:
    """Samples ``[lo, hi)`` of the ``n``-point draw of
    :func:`sample_masur_veech`, without drawing the others.

    The draw takes four uniform streams of ``n`` values in turn from
    ``PCG64(seed)``, for ``x``, ``y``, ``p`` and ``q``, one generator
    output per value; stream ``k`` is moved forward to output
    ``k n + lo`` with ``PCG64.advance``, so the block is bitwise the slice
    of the full draw.  Raises ``ValueError`` as :func:`_check_y_max`.
    """
    _check_y_max(y_max)
    bitgen = np.random.PCG64(seed)
    rng = np.random.Generator(bitgen)
    bitgen.advance(lo)
    streams = []
    for _ in range(4):
        streams.append(rng.random(hi - lo))
        bitgen.advance(n - (hi - lo))   # on to output lo of the next stream
    ux, uy, p, q = streams
    x = np.sin(math.pi * (ux - 0.5) / 3.0)
    y_min = np.sqrt(1.0 - x * x)
    y = y_min / (1.0 - uy * (1.0 - y_min / y_max))
    return MasurVeechSample(x=x, y=y, p=p, q=q, seed=seed, y_max=y_max)


def _check_y_max(y_max: float) -> None:
    """Raise ``ValueError`` unless the truncation lies above the domain."""
    if not y_max > 1.0:
        raise ValueError(f"y_max must be > 1, got {y_max}")


def _batch_size(n_samples: int, n_batches: int) -> int:
    """Samples per batch of a batch-means estimate; a remainder past
    ``n_batches`` equal batches is dropped.

    Raises
    ------
    ValueError
        If ``n_batches < 2`` (one batch has no spread) or there are fewer
        samples than batches.
    """
    if n_batches < 2:
        raise ValueError(f"batch means need n_batches >= 2, got {n_batches}")
    if n_samples < n_batches:
        raise ValueError(
            f"{n_samples} samples cannot fill {n_batches} batches")
    return n_samples // n_batches


def _batch_stats(batches: np.ndarray):
    """Estimate and standard error from a table of batch means (batches
    along the leading axis), as two arrays of shape ``batches.shape[1:]``."""
    var = batches.real.var(axis=0, ddof=1) + batches.imag.var(axis=0, ddof=1)
    return batches.mean(axis=0), np.sqrt(var / batches.shape[0])


def _batch_estimate(block_values: Callable[[int, int], np.ndarray],
                    n_samples: int, n_batches: int, width: int = 1):
    """Batch-means estimate and standard error over the leading (sample)
    axis, with the samples taken one block at a time.

    ``block_values(lo, hi)`` returns the values of samples ``[lo, hi)``,
    ``width`` values per sample.  The ``n_batches`` batches of
    ``n_samples // n_batches`` samples are asked for in blocks of whole
    batches, at most ``_SAMPLE_BLOCK`` values each (a larger batch is a
    block alone), and only each block's batch means are kept, so memory
    is bounded by the block and not by ``n_samples``.  The remainder past
    the last batch is never asked for.  A batch mean does not depend on
    the blocks.  Returns two arrays of the values' trailing shape; raises
    ``ValueError`` as :func:`_batch_size`, before any block is asked for.
    """
    size = _batch_size(n_samples, n_batches)
    step = max(_SAMPLE_BLOCK // (size * width), 1) * size
    end = size * n_batches
    means = []
    for lo in range(0, end, step):
        vals = block_values(lo, min(lo + step, end))
        means.append(vals.reshape(-1, size, *vals.shape[1:]).mean(axis=1))
        del vals   # freed before the next block is made
    return _batch_stats(np.concatenate(means))


def inner_product(phi1: ModularFunction, phi2: ModularFunction,
                  n_samples: int = 100_000, seed: int = 7,
                  y_max: float = 1e3, n_batches: int = 100
                  ) -> tuple[complex, float]:
    """Monte Carlo Petersson-type pairing of two weight-k functions.

    Computes ``integral of phi1 conj(phi2) y^k dx dy du dv / y^3`` over the
    quotient as ``(pi/3) E[phi1 conj(phi2) y^k]`` under the normalized
    invariant law.  Returns ``(estimate, stderr)`` with the standard error
    taken over batch means.  The samples of
    ``sample_masur_veech(n_samples, seed, y_max)`` are drawn and evaluated
    one block at a time (:func:`_batch_estimate`), so memory is bounded by
    the block.  A self-pairing (``phi2 is phi1``) evaluates the function
    once.

    Raises
    ------
    ValueError
        If the two functions carry different weights, ``n_batches < 2``,
        there are fewer samples than batches or ``y_max <= 1``.
    """
    if phi1.weight != phi2.weight:
        raise ValueError("weights must match for the pairing")
    k = phi1.weight

    def values(lo, hi):
        s = _sample_block(n_samples, seed, y_max, lo, hi)
        vals1 = phi1.fn(s.x, s.y, s.u, s.v)
        vals2 = vals1 if phi2 is phi1 else phi2.fn(s.x, s.y, s.u, s.v)
        # Explicit in-place steps, the ones numpy takes on its own for
        # temporaries of 256 KiB and more: the same loops at every block
        # size, so a value does not depend on the blocks.
        vals = np.conj(vals2).astype(complex, copy=False)
        vals *= vals1
        vals *= s.y ** k
        vals *= VOLUME_SL2
        return vals

    est, err = _batch_estimate(values, n_samples, n_batches)
    return complex(est), float(err)

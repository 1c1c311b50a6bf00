"""Invariant differential operators on the Jacobi half-space.

Coordinates are ``(x, y, u, v)`` with ``tau = x + i y``, ``z = u + i v``;
the alternative chart uses ``p = v / y``, ``q = u - v x / y``.  Complex
derivatives follow the usual convention ``d_tau = (d_x - i d_y) / 2`` and
``d_z = (d_u - i d_v) / 2``.

Operators
---------
* ``lowering`` / ``raising`` -- the weight-shifting Maass-type pair

      L_k = -2 i y^2 (d_taubar + v y^(-1) d_zbar),
      R_k =  2 i (d_tau + v y^(-1) d_z) + k y^(-1),

  with ``R_(k-2) L_k`` equal to the foliated Laplacian below;
* ``h_lowering`` / ``h_raising`` -- the fibre pair ``-i y d_zbar`` and
  ``i d_z`` whose composition (either order) is the vertical Laplacian;
* ``foliated`` -- second-order operator along the modular directions,

      y^2 (d_x^2 + d_y^2) + 2 y v (d_x d_u + d_y d_v) + v^2 (d_u^2 + d_v^2)
      - i k y (d_x + i d_y) - i k v (d_u + i d_v),

  equal in the ``(x, y, p, q)`` chart to ``y^2 (d_x^2 + d_y^2)
  - i k y (d_x + i d_y)`` at frozen ``(p, q)`` (both routes implemented);
* ``vertical`` -- ``(y / 4)(d_u^2 + d_v^2)``, or in the other chart
  ``(y / 4)(d_q^2 + y^(-2)(d_p - x d_q)^2)``;
* ``total`` -- the cubic invariant operator

      (k/2) y d_u (d_u + i d_v) + (i/2) y^2 d_x (d_u^2 - d_v^2)
      + i y^2 d_y d_u d_v + (i/2) y v d_u (d_u^2 + d_v^2),

  which acts on the character ``e(n x + m v / y)`` by ``-4 pi^3 n m^2``;
* ``compound`` -- ``foliated + eps * vertical``.

Each operator is a table of groups (a coefficient in ``(x, y, u, v, k)``
times a weighted sum of mixed partials) in the order of its formula above.
One applier, ``_apply_groups``, evaluates every table and ``sv``'s plane
images on the stencil engine: fourth-order central stencils, steps scaled by
``y`` in ``y`` and ``v``.  ``quadratic_form_residual`` and the ``pq`` route
of ``vertical`` keep their own chart derivatives.  Appliers return lazy
``ModularFunction`` wrappers with the shifted weight, so operators compose.

Group side: ``right_regular_element`` realizes elements of the enveloping
algebra as right-invariant derivatives (``right_derivative``, one function
call per real word), and the lift of a weight-k function intertwines
``foliated`` and ``total`` with the right-regular images of twice the
quadratic and cubic central elements; the tests pin the sign conventions.

Mode level: on a seed ``beta(y) e(n x + m v / y)`` the negated foliated
operator acts as the radial operator

    (A beta)(y) = -y^2 beta'' - k y beta' + (4 pi^2 n^2 y^2 - 2 pi k n y) beta,

implemented by ``mode_apply``; ``mode_reduce_fol`` is the variant without
the first-order drift term (``A + k y d_y``), which coincides with ``A`` at
weight zero.  ``fit_lambda`` and ``eigen_residual`` work with ``A``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce
from itertools import product
from operator import add
from typing import Callable, Sequence

import numpy as np

from .enveloping import Element, _real_words
from .saff import ModularFunction, SAffElement, SL2Element
from .special import _gl_nodes

__all__ = [
    "partial_derivative",
    "lowering",
    "raising",
    "h_lowering",
    "h_raising",
    "foliated",
    "vertical",
    "total",
    "compound",
    "mode_apply",
    "mode_reduce_fol",
    "eigen_residual",
    "fit_lambda",
    "right_derivative",
    "right_regular_element",
    "quadratic_form_residual",
]


# ---------------------------------------------------------------------------
# finite-difference engine
# ---------------------------------------------------------------------------

_DEFAULT_H = {0: 0.0, 1: 1e-3, 2: 2e-3, 3: 7e-4}
_MODE_H = 1e-3     # log-y step of the mode-level operators
_RIGHT_H = 1e-2    # group step of the right-regular derivatives


@lru_cache(maxsize=None)
def _stencil(order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Symmetric central-difference weights of fourth-order accuracy."""
    if order == 0:
        return (0,), (1.0,)
    p = (order + 1) // 2 + 1
    offs = list(range(-p, p + 1))
    n = len(offs)
    a = np.array([[float(o) ** m for o in offs] for m in range(n)])
    rhs = np.zeros(n)
    rhs[order] = float(math.factorial(order))
    w = np.linalg.solve(a, rhs)
    w[np.abs(w) < 1e-12] = 0.0
    return tuple(offs), tuple(w)


def _grid(x, y, u, v):
    """The four coordinates as broadcast float arrays."""
    return np.broadcast_arrays(*(np.asarray(a, float) for a in (x, y, u, v)))


@lru_cache(maxsize=256)
def _nodes(orders: tuple[int, int, int, int], h: float | None = None):
    """Nonzero nodes of the tensor-product stencil of a mixed partial, as
    ``(weight, node)`` pairs; ``node`` gives each axis's stencil offset and
    unscaled step ``(o, h_d)``."""
    axes = [[(o, w, _DEFAULT_H[d] if h is None else h)
             for o, w in zip(*_stencil(d)) if w != 0.0] for d in orders]
    return tuple((math.prod(w for _, w, _ in combo),
                  tuple((o, hd) for o, _, hd in combo))
                 for combo in product(*axes))


def _at_node(fn, node, x, y, u, v) -> np.ndarray:
    """``fn`` at the point (``node`` None) or at a stencil node: each
    coordinate moved by ``o h_d``, times ``y`` in ``y`` and ``v``."""
    if node is not None:
        x, y, u, v = (c + (o * (hd * s) if o else 0.0) for c, s, (o, hd)
                      in zip((x, y, u, v), (1.0, y, 1.0, y), node))
    return np.asarray(fn(x, y, u, v), dtype=complex)


def _stencil_sum(value, orders, y, h=None) -> np.ndarray:
    """The mixed partial of ``orders`` from ``value(node)``, the function
    at each node of :func:`_nodes`."""
    out = np.zeros(y.shape, dtype=complex)
    for weight, node in _nodes(orders, h):
        out = out + weight * value(node)
    for axis, d in enumerate(orders):
        if d:
            hd = _DEFAULT_H[d] if h is None else h
            out = out / (hd * (y if axis in (1, 3) else 1.0)) ** d
    return out


def partial_derivative(fn, orders: tuple[int, int, int, int],
                       x, y, u, v, h: float | None = None) -> np.ndarray:
    """Mixed partial of ``fn(x, y, u, v)`` by tensor-product central stencils.

    ``orders`` lists the derivative order in each coordinate.  Steps are
    ``h`` in ``x`` and ``u`` and ``h y`` in ``y`` and ``v`` (so the ``y``
    stencil never crosses zero); when ``h`` is omitted each axis uses an
    order-dependent default tuned for fourth-order accuracy in double
    precision.
    """
    x, y, u, v = _grid(x, y, u, v)
    return _stencil_sum(lambda node: _at_node(fn, node, x, y, u, v),
                        orders, y, h)


def _frozen(fn, p, q):
    """``fn`` with ``(x, y)`` free at frozen torus coordinates ``(p, q)``."""

    def frozen(xx, yy, _uu, _vv):
        return fn(xx, yy, q + p * xx, p * yy)

    return frozen


def _chart(fn, x, y):
    """``fn`` with ``(p, q)`` in the unit-step ``x`` and ``u`` slots at
    frozen ``(x, y)``."""

    def chart(pp, _yy, qq, _vv):
        return fn(x, y, qq + pp * x, pp * y)

    return chart


def _apply_groups(fn, tables, k, x, y, u, v) -> list[np.ndarray]:
    """Evaluate operators given as tables, one value per table.  A table is
    a nonempty sequence of groups ``(c, terms)``: the coefficient
    ``c(x, y, u, v, k)`` times the sum of ``w`` times the mixed partial of
    ``fn`` along ``axes`` over the pairs ``(w, axes)`` in ``terms``
    (``"xuu"`` is ``d_x d_u^2``, and ``""`` is ``fn`` itself), added left
    to right.  ``fn`` is called once per distinct node of all tables, keyed
    on its offsets ``o h_d`` (the first-order ``2 * 1e-3`` is the
    second-order ``1 * 2e-3``), and each value is dropped after its last
    use."""
    x, y, u, v = _grid(x, y, u, v)

    def orders(axes):
        return tuple(axes.count(a) for a in "xyuv")

    def key(node):
        return None if node is None else tuple(o * hd for o, hd in node)

    uses = Counter(key(node) for groups in tables for _, terms in groups
                   for _, axes in terms for _, node in (
                       _nodes(orders(axes)) if axes else ((1.0, None),)))
    values = {}

    def value(node):
        at = key(node)
        if at not in values:
            values[at] = _at_node(fn, node, x, y, u, v)
        uses[at] -= 1
        return values[at] if uses[at] else values.pop(at)

    def term(w, axes):
        d = _stencil_sum(value, orders(axes), y) if axes else value(None)
        return d if w == 1 else w * d

    return [reduce(add, (coeff(x, y, u, v, k)
                         * reduce(add, (term(*t) for t in terms))
                         for coeff, terms in groups))
            for groups in tables]


# ---------------------------------------------------------------------------
# the half-space operators as data
# ---------------------------------------------------------------------------


# Each table follows its applier's formula; a subtracted group negates c.
_LOWERING = (
    (lambda x, y, u, v, k: -1j * y ** 2, ((1, "x"), (1j, "y"))),
    (lambda x, y, u, v, k: -1j * y * v, ((1, "u"), (1j, "v"))),
)
_RAISING = (
    (lambda x, y, u, v, k: 1j, ((1, "x"), (-1j, "y"))),
    (lambda x, y, u, v, k: 1j * (v / y), ((1, "u"), (-1j, "v"))),
    (lambda x, y, u, v, k: k / y, ((1, ""),)),
)
_H_LOWERING = ((lambda x, y, u, v, k: -0.5j * y, ((1, "u"), (1j, "v"))),)
_H_RAISING = ((lambda x, y, u, v, k: 0.5j, ((1, "u"), (-1j, "v"))),)
_FOLIATED = (
    (lambda x, y, u, v, k: y ** 2, ((1, "xx"), (1, "yy"))),
    (lambda x, y, u, v, k: 2.0 * y * v, ((1, "xu"), (1, "yv"))),
    (lambda x, y, u, v, k: v ** 2, ((1, "uu"), (1, "vv"))),
    (lambda x, y, u, v, k: -1j * k * y, ((1, "x"), (1j, "y"))),
    (lambda x, y, u, v, k: -1j * k * v, ((1, "u"), (1j, "v"))),
)
_VERTICAL = ((lambda x, y, u, v, k: 0.25 * y, ((1, "uu"), (1, "vv"))),)
_TOTAL = (
    (lambda x, y, u, v, k: (k / 2.0) * y, ((1, "uu"), (1j, "uv"))),
    (lambda x, y, u, v, k: 0.5j * y ** 2, ((1, "xuu"), (-1, "xvv"))),
    (lambda x, y, u, v, k: 1j * y ** 2, ((1, "yuv"),)),
    (lambda x, y, u, v, k: 0.5j * y * v, ((1, "uuu"), (1, "uvv"))),
)


def _operator(phi: ModularFunction, groups, shift: int = 0) -> ModularFunction:
    """``phi`` under the operator ``groups``, with its weight shifted."""
    k = phi.weight
    return ModularFunction(
        lambda x, y, u, v: _apply_groups(phi.fn, (groups,), k, x, y, u, v)[0],
        k + shift)


def lowering(phi: ModularFunction) -> ModularFunction:
    """``L_k phi = -i y^2 (d_x + i d_y) phi - i y v (d_u + i d_v) phi`` (weight k-2)."""
    return _operator(phi, _LOWERING, -2)


def raising(phi: ModularFunction) -> ModularFunction:
    """``R_k phi = i (d_x - i d_y) phi + i (v/y)(d_u - i d_v) phi + (k/y) phi`` (weight k+2)."""
    return _operator(phi, _RAISING, 2)


def h_lowering(phi: ModularFunction) -> ModularFunction:
    """Fibre lowering ``-i y d_zbar = -(i/2) y (d_u + i d_v)`` (weight k-1)."""
    return _operator(phi, _H_LOWERING, -1)


def h_raising(phi: ModularFunction) -> ModularFunction:
    """Fibre raising ``i d_z = (i/2)(d_u - i d_v)`` (weight k+1)."""
    return _operator(phi, _H_RAISING, 1)


def foliated(phi: ModularFunction, route: str = "uv") -> ModularFunction:
    """Foliated Laplacian; ``route`` picks the chart ("uv" or "pq")."""
    if route not in ("uv", "pq"):
        raise ValueError("route must be 'uv' or 'pq'")
    if route == "uv":
        return _operator(phi, _FOLIATED)

    def fn(x, y, u, v):  # the table's (x, y) groups at frozen (p, q)
        x, y, u, v = _grid(x, y, u, v)
        frozen = _frozen(phi.fn, v / y, u - v * x / y)
        return _apply_groups(frozen, ((_FOLIATED[0], _FOLIATED[3]),),
                             phi.weight, x, y, u, v)[0]

    return ModularFunction(fn, phi.weight)


def vertical(phi: ModularFunction, route: str = "uv") -> ModularFunction:
    """Vertical (fibre) Laplacian ``(y/4)(d_u^2 + d_v^2)``."""
    if route not in ("uv", "pq"):
        raise ValueError("route must be 'uv' or 'pq'")
    if route == "uv":
        return _operator(phi, _VERTICAL)

    def fn(x, y, u, v):
        x, y, u, v = _grid(x, y, u, v)
        p = v / y
        q = u - v * x / y
        chart = _chart(phi.fn, x, y)
        dpp = partial_derivative(chart, (2, 0, 0, 0), p, y, q, v)
        dqq = partial_derivative(chart, (0, 0, 2, 0), p, y, q, v)
        dpq = partial_derivative(chart, (1, 0, 1, 0), p, y, q, v)
        return 0.25 * y * (dqq + (dpp - 2.0 * x * dpq + x ** 2 * dqq) / y ** 2)

    return ModularFunction(fn, phi.weight)


def total(phi: ModularFunction) -> ModularFunction:
    """Cubic invariant operator (third-order in the fibre directions)."""
    return _operator(phi, _TOTAL)


def compound(phi: ModularFunction, eps: float) -> ModularFunction:
    """``foliated + eps * vertical``, the two sharing stencil nodes."""

    def fn(x, y, u, v):
        fol, ver = _apply_groups(phi.fn, (_FOLIATED, _VERTICAL), phi.weight,
                                 x, y, u, v)
        return fol + eps * ver

    return ModularFunction(fn, phi.weight)


# ---------------------------------------------------------------------------
# mode-level operators
# ---------------------------------------------------------------------------


def _log_derivs(beta, y: np.ndarray):
    """First and second derivatives of ``s -> beta(exp(s))`` at ``s = log y``."""
    y = np.asarray(y, dtype=float)
    offs1, w1 = _stencil(1)
    offs2, w2 = _stencil(2)
    vals = {o: np.asarray(beta(y * math.exp(o * _MODE_H)), dtype=complex)
            for o in sorted(set(offs1) | set(offs2))}
    d1 = sum(w * vals[o] for o, w in zip(offs1, w1) if w) / _MODE_H
    d2 = sum(w * vals[o] for o, w in zip(offs2, w2) if w) / _MODE_H ** 2
    return vals[0], d1, d2


def _potential(k: int, n: int, y: np.ndarray) -> np.ndarray:
    return (4.0 * math.pi ** 2 * n ** 2 * y ** 2
            - 2.0 * math.pi * k * n * y)


def mode_apply(beta, k: int, n: int, y) -> np.ndarray:
    """Radial operator ``A beta = -y^2 beta'' - k y beta' + V beta``.

    ``A`` is the exact action of the negated foliated Laplacian on the seed
    ``beta(y) e(n x + m v / y)``; in ``s = log y`` it reads
    ``-beta_ss + (1 - k) beta_s + V beta``.
    """
    y = np.asarray(y, dtype=float)
    b0, d1, d2 = _log_derivs(beta, y)
    return -d2 + (1.0 - k) * d1 + _potential(k, n, y) * b0


def mode_reduce_fol(beta, k: int, n: int, y) -> np.ndarray:
    """Drift-free radial operator ``-y^2 beta'' + V beta`` (``A + k y d_y``)."""
    y = np.asarray(y, dtype=float)
    b0, d1, d2 = _log_derivs(beta, y)
    return -(d2 - d1) + _potential(k, n, y) * b0


def fit_lambda(beta, k: int, n: int, y_grid) -> float:
    """Rayleigh quotient ``<A beta, beta> / <beta, beta>`` on a grid."""
    y = np.asarray(y_grid, dtype=float)
    vals = np.asarray(beta(y), dtype=complex)
    applied = mode_apply(beta, k, n, y)
    denom = float(np.sum(np.abs(vals) ** 2))
    if denom == 0.0:
        raise ValueError("profile vanishes on the whole grid")
    return float((np.sum(applied * np.conj(vals)) / denom).real)


def eigen_residual(beta, k: int, n: int, lam: float, y_grid) -> float:
    """Sup-norm residual ``max |A beta - lam beta| / max |beta|`` on a grid."""
    y = np.asarray(y_grid, dtype=float)
    vals = np.asarray(beta(y), dtype=complex)
    applied = mode_apply(beta, k, n, y)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise ValueError("profile vanishes on the whole grid")
    return float(np.max(np.abs(applied - lam * vals)) / scale)


# ---------------------------------------------------------------------------
# right-regular realization on the group
# ---------------------------------------------------------------------------

def _exp_real(name: str, t) -> SAffElement:
    """One-parameter subgroup of a real generator; ``t`` may be an array."""
    if name == "F":
        return SAffElement.from_sl2(SL2Element(1.0, t, 0.0, 1.0))
    if name == "H":
        e = np.exp(t)
        return SAffElement.from_sl2(SL2Element(e, 0.0, 0.0, 1.0 / e))
    if name == "G":
        return SAffElement.from_sl2(SL2Element(1.0, 0.0, t, 1.0))
    if name == "P":
        return SAffElement.translation(t, 0.0)
    if name == "Q":
        return SAffElement.translation(0.0, t)
    raise ValueError(f"unknown real generator {name!r}")


def right_derivative(fun: Callable[[SAffElement], np.ndarray],
                     e: SAffElement, word: Sequence[str]) -> complex:
    """Nested first right derivatives along a word of real generators, left
    to right (``"FH"``: ``d^2/ds dt fun(e exp(s F) exp(t H))`` at zero), by
    one call of ``fun`` on the array-valued element over the word's stencil
    nodes, one axis per letter, in the entries' broadcast shape."""
    offs, ws = zip(*((o, w) for o, w in zip(*_stencil(1)) if w != 0.0))
    t = np.array(offs) * _RIGHT_H
    for axis, name in enumerate(word):
        e = e.compose(_exp_real(name, t.reshape((-1,) + (1,) * (
            len(word) - 1 - axis))))
    vals = fun(e)
    for _ in word:   # the stencil weights, last axis first
        vals = sum(w * vals[..., i] for i, w in enumerate(ws)) / _RIGHT_H
    return complex(vals)


def right_regular_element(fun: Callable[[SAffElement], np.ndarray],
                          elem: Element, e: SAffElement) -> complex:
    """Apply an enveloping-algebra element through the right-regular action:
    ``enveloping._real_words`` expands it exactly into words of the real
    generators (words that cancel drop out), and each distinct word is one
    :func:`right_derivative` (so ``fun`` must take array-valued elements)."""
    return sum((complex(coeff) * right_derivative(fun, e, word)
                for word, coeff in _real_words(elem).items()), 0.0 + 0.0j)


# ---------------------------------------------------------------------------
# quadratic-form identity
# ---------------------------------------------------------------------------


def quadratic_form_residual(phi: ModularFunction, psi: ModularFunction,
                            eps: float, box: dict, n_nodes: int = 14) -> float:
    """Relative defect of the integration-by-parts identity for the compound
    operator on a box (both functions must vanish near the box boundary).

    In chart coordinates ``(x, y, p, q)`` with volume ``dx dy dp dq``:

        int (-(foliated + eps vertical) phi) conj(psi) y^(k-2)
          = int y^k grad_{x,y} phi . conj(grad_{x,y} psi)
            + i k int y^(k-1) (d_x phi) conj(psi)
            + (eps/4) int y^(k-1) grad_{u,v} phi . conj(grad_{u,v} psi),

    where ``d_u = d_q`` and ``d_v = (d_p - x d_q)/y`` at frozen ``(x, y)``.
    Returns ``|lhs - rhs| / max(|lhs|, |rhs|)``.
    """
    if phi.weight != psi.weight:
        raise ValueError("weights must match")
    k = phi.weight
    xs, wx = _gl_nodes(*box["x"], n_nodes)
    ys, wy = _gl_nodes(*box["y"], n_nodes)
    ps, wp = _gl_nodes(*box["p"], n_nodes)
    qs, wq = _gl_nodes(*box["q"], n_nodes)
    x, y, p, q = np.meshgrid(xs, ys, ps, qs, indexing="ij")
    w4 = (wx[:, None, None, None] * wy[None, :, None, None]
          * wp[None, None, :, None] * wq[None, None, None, :])
    u = q + p * x
    v = p * y

    compound_vals = compound(phi, eps).fn(x, y, u, v)
    psi_vals = np.asarray(psi.fn(x, y, u, v), dtype=complex)
    lhs = np.sum(w4 * (-compound_vals) * np.conj(psi_vals) * y ** (k - 2))

    def chart_grad(f):
        """``d_x, d_y`` at frozen ``(p, q)``; ``d_u, d_v`` at frozen
        ``(x, y)``."""
        frozen = _frozen(f, p, q)
        chart = _chart(f, x, y)
        f_x = partial_derivative(frozen, (1, 0, 0, 0), x, y, u, v)
        f_y = partial_derivative(frozen, (0, 1, 0, 0), x, y, u, v)
        f_p = partial_derivative(chart, (1, 0, 0, 0), p, y, q, v)
        f_q = partial_derivative(chart, (0, 0, 1, 0), p, y, q, v)
        return f_x, f_y, f_q, (f_p - x * f_q) / y

    phi_x, phi_y, phi_u, phi_v = chart_grad(phi.fn)
    psi_x, psi_y, psi_u, psi_v = chart_grad(psi.fn)

    rhs = np.sum(w4 * (
        y ** k * (phi_x * np.conj(psi_x) + phi_y * np.conj(psi_y))
        + 1j * k * y ** (k - 1) * phi_x * np.conj(psi_vals)
        + 0.25 * eps * y ** (k - 1)
        * (phi_u * np.conj(psi_u) + phi_v * np.conj(psi_v))))
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

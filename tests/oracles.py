"""Reference implementations that only the tests compare against.

None of these is called by the package, its CLI or its benchmark; they are
independent routes to values the package computes another way:

* ``whittaker_m`` and ``mp_whittaker_ode_residual``: the recessive
  Whittaker function and the Whittaker equation's residual, both through
  mpmath, whose derivative is taken in high precision;
* ``whittaker_w_bessel``: ``W_{0, mu}`` through the modified Bessel
  function ``K_mu``;
* the classical non-holomorphic Eisenstein series, summed directly and by
  its Fourier-Bessel expansion, for the functional equation;
* ``ktype_eisenstein``: the direct coprime-pair sum that the absolute
  Siegel--Veech transform of a K-type function equals;
* ``bracket_in_basis``: the structure constants of the enveloping algebra
  from commutators of the faithful 3x3 generator matrices.
"""

import math
from typing import Iterable

import mpmath as mp
import numpy as np
from scipy import special as sp

from strata.enveloping import HALF, I, GaussianRational, _coerce
from strata.saff import coprime_pairs
from strata.special import _positive_x

_MP_DPS = 30


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------


def whittaker_m(kappa, mu, x):
    """Recessive Whittaker function ``M_{kappa, mu}(x)`` (complex ``mu`` ok)
    through ``mpmath.whitm`` at 30 digits.

    Raises ``ValueError`` as ``strata.special.whittaker_w``.
    """
    xs = _positive_x(x)
    out = np.empty(xs.shape, dtype=complex)
    with mp.workdps(_MP_DPS):
        for idx in np.ndindex(xs.shape):
            out[idx] = complex(mp.whitm(mp.mpmathify(kappa), mp.mpmathify(mu),
                                        mp.mpmathify(xs[idx])))
    if out.shape == ():
        return complex(out)
    return out


def mp_whittaker_ode_residual(kappa, mu, x: float, which: str) -> float:
    """Residual of the Whittaker equation at ``x``, in high precision.

    Evaluates ``f'' + (-1/4 + kappa/x + (1/4 - mu^2)/x^2) f`` at 40 digits
    for ``f = mpmath.whitw`` (``which="w"``) or ``whitm`` (``"m"``) and
    returns its magnitude, normalized by ``max(1, |f(x)|)``.  Raises
    ``ValueError`` as ``strata.special.whittaker_w``.
    """
    x = float(_positive_x(x))
    fun = {"w": mp.whitw, "m": mp.whitm}[which]
    with mp.workdps(_MP_DPS + 10):
        ka, m2, xx = mp.mpmathify(kappa), mp.mpmathify(mu), mp.mpf(x)
        f = lambda t: fun(ka, m2, t)
        d2 = mp.diff(f, xx, 2)
        val = f(xx)
        res = d2 + (mp.mpf(-0.25) + ka / xx + (mp.mpf(0.25) - m2 ** 2) / xx ** 2) * val
        return float(abs(res) / max(1.0, abs(val)))


def whittaker_w_bessel(mu, x: float) -> complex:
    """``W_{0, mu}(x) = sqrt(x / pi) K_mu(x / 2)`` (DLMF 13.18.9), with
    ``mpmath.besselk`` at 30 digits."""
    with mp.workdps(_MP_DPS):
        xx = mp.mpf(x)
        return complex(mp.sqrt(xx / mp.pi)
                       * mp.besselk(mp.mpmathify(mu), xx / 2))


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
    """Completed zeta ``pi^(-w/2) Gamma(w/2) zeta(w)`` (meromorphically),
    through mpmath at 25 digits."""
    with mp.workdps(25):
        return complex(mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w))


def completed_eisenstein(tau: complex, s: complex, radius: int = 120) -> complex:
    """``pi^(-s) Gamma(s) zeta(2s) E(tau, s)`` by direct summation."""
    return _lambda_completed(2 * s) * classical_eisenstein(tau, s, radius)


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


# ---------------------------------------------------------------------------
# the K-type Eisenstein identity of the absolute transform
# ---------------------------------------------------------------------------


def ktype_eisenstein(k: int, psi, psi_support: tuple[float, float],
                     tau: complex) -> complex:
    """Direct coprime-pair sum ``sum (c tau + d)^k |c tau + d|^{-k}
    psi(y / |c tau + d|^2)`` for compactly supported ``psi``.

    Independent route to the absolute transform of
    ``f0(r) = psi(1/r^2)`` of rotational type ``k``.
    """
    y = tau.imag
    lo = psi_support[0]
    if lo <= 0.0:
        raise ValueError("psi support must be bounded away from zero")
    nmax = y / lo
    cmax = int(math.floor(math.sqrt(nmax) / y)) + 1
    dmax = int(math.floor(cmax * abs(tau.real) + math.sqrt(nmax))) + 1
    cc, dd = coprime_pairs(cmax, dmax)
    j = cc * tau + dd
    n2 = np.abs(j) ** 2
    arg = y / n2
    inside = (arg >= psi_support[0]) & (arg <= psi_support[1])
    if not np.any(inside):
        return 0.0 + 0.0j
    j = j[inside]
    vals = (j / np.abs(j)) ** k * np.asarray(psi(arg[inside]), dtype=complex)
    return complex(np.sum(vals))


# ---------------------------------------------------------------------------
# 3x3 faithful matrices of the special affine Lie algebra
# ---------------------------------------------------------------------------

Matrix3 = tuple[tuple[GaussianRational, ...], ...]


def _mat(rows: Iterable[Iterable]) -> Matrix3:
    return tuple(tuple(_coerce(x) for x in row) for row in rows)


#: Lie-algebra element (A, a) embedded as [[A, 0], [a, 0]]; the bottom row is
#: the translation part, matching the group embedding (g, w) -> [[g, 0], [w, 1]].
_GENERATOR_MATRICES: dict[str, Matrix3] = {
    "Z": _mat([[0, -I, 0], [I, 0, 0], [0, 0, 0]]),
    "Xp": _mat([[HALF, HALF * I, 0], [HALF * I, -HALF, 0], [0, 0, 0]]),
    "Xm": _mat([[HALF, -HALF * I, 0], [-HALF * I, -HALF, 0], [0, 0, 0]]),
    "Yp": _mat([[0, 0, 0], [0, 0, 0], [HALF, HALF * I, 0]]),
    "Ym": _mat([[0, 0, 0], [0, 0, 0], [HALF, -HALF * I, 0]]),
}


def _mat_mul(a: Matrix3, b: Matrix3) -> Matrix3:
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(3)), GaussianRational())
            for j in range(3)
        )
        for i in range(3)
    )


def _mat_sub(a: Matrix3, b: Matrix3) -> Matrix3:
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def matrix_bracket(name_a: str, name_b: str) -> Matrix3:
    """Commutator of two generator matrices (exact)."""
    a, b = _GENERATOR_MATRICES[name_a], _GENERATOR_MATRICES[name_b]
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def bracket_in_basis(name_a: str, name_b: str) -> dict[str, GaussianRational]:
    """Expand ``[a, b]`` (computed from matrices) in the five-generator basis.

    The five generator matrices determine coordinates uniquely: writing the
    commutator as (2x2 block ``f F + h H + g G``, bottom row ``p e1 + q e2``),
    the complex basis coordinates are

        z = i (f - g) / 2,   x+ = h - i (f + g) / 2,   x- = h + i (f + g) / 2,
        y+ = p - i q,        y- = p + i q.
    """
    m = matrix_bracket(name_a, name_b)
    f, h, g = m[0][1], m[0][0], m[1][0]
    p, q = m[2][0], m[2][1]
    half_i = HALF * I
    coords = {
        "Z": half_i * (f - g),
        "Xp": h - half_i * (f + g),
        "Xm": h + half_i * (f + g),
        "Yp": p - I * q,
        "Ym": p + I * q,
    }
    return {name: c for name, c in coords.items() if c}

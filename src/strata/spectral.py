"""Per-mode one-dimensional spectral solver for the compound Laplacian.

Cusp modes of the compound operator separate over joint Fourier
frequencies ``(n, m)`` with ``n != 0`` and ``m != 0``.  Writing a mode as
``y^{k/2} beta(y)`` times the oscillatory factor — the twist that makes
the natural inner product ``integral of |beta|^2 y^{-2} dy`` — the
operator acts on ``beta`` as the Sturm-Liouville problem

    (L beta)(y) = -y^2 beta'' + V(y) beta,
    V(y) = k(k-2)/4 + 4 pi^2 n^2 y^2 - 2 pi k n y + eps pi^2 m^2 / y.

The constant ``k(k-2)/4`` is the conjugation shift produced by the
``y^{k/2}`` twist; it vanishes for k in {0, 2} and keeps the power family
``y^{1/2+it}`` at eigenvalue ``t^2 + (k-1)^2/4``, consistent with the
untwisted radial operator implemented by ``operators.mode_apply``.

Because the ``y^{-2}`` weight cancels the ``y^2`` leading coefficient,
the quadratic form is a plain Dirichlet integral plus a potential term,

    a(beta, beta) = integral |beta'|^2 dy + integral V |beta|^2 y^{-2} dy,

so the discretization is textbook: P1 finite elements on a log-spaced
grid, lumped mass, and a similarity transform to an ordinary symmetric
tridiagonal eigenproblem solved by LAPACK, with Dirichlet conditions at
both ends.  The potential walls (``n^2 y^2`` as ``y -> infinity``;
``eps / y`` plus the Hardy barrier as ``y -> 0``) do not confine the low
modes to the default domain ``[1e-3, 50]`` at every ``eps``, since the
left wall recedes as ``eps`` falls.  For ``(0, 1, 1)`` the 10 lowest
values on it are within 2e-6 relative of a settled wide-domain solve at
``eps = 0.01``, but up to 15 % too high at ``eps = 0.001``; at
``eps = 0.01``, moving ``y_min`` to ``1e-5`` lowers eigenvalues 17-40 of a
40-mode solve by 0.1-12 %.
``refinement_deltas`` measures the shift under one grid refinement on the
same domain, not an error bound: it reads below 1e-5 next to those 15 %.
Only the tests check localization (lowest five modes of ``(0, 1, 1)`` at
``eps = 1`` and ``0.01``) and the slope in ``eps``.

As ``eps`` decreases the left wall recedes like ``eps`` and the low
spectrum descends toward the continuum band bottom ``(k-1)^2/4`` of the
drift-free radial operator, while the eigenvalue count in any fixed
window grows — the discrete spectra accumulate on the continuous band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "ModeGrid",
    "ModeOperator",
    "potential",
    "build_mode_operator",
    "eigen_solve",
    "eigenvalues",
    "rayleigh_quotient",
    "epsilon_sweep",
    "window_count",
    "refinement_deltas",
]


@dataclass(frozen=True)
class ModeGrid:
    """Log-spaced grid on ``[y_min, y_max]`` with optional grading.

    ``grading`` is the power applied to the uniform parameter before the
    exponential map: 1.0 gives uniform-in-log nodes, values above 1.0
    cluster nodes toward ``y_min``.
    """

    y_min: float = 1e-3
    y_max: float = 50.0
    n_points: int = 4096
    grading: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.y_min < self.y_max:
            raise ValueError("need 0 < y_min < y_max")
        if self.n_points < 16:
            raise ValueError("grid too coarse")
        if self.grading <= 0.0:
            raise ValueError("grading must be positive")

    def nodes(self) -> np.ndarray:
        s = np.linspace(0.0, 1.0, self.n_points) ** self.grading
        return self.y_min * (self.y_max / self.y_min) ** s

    def refined(self) -> "ModeGrid":
        return replace(self, n_points=2 * self.n_points)

    def extended(self, y_min: float | None = None,
                 y_max: float | None = None) -> "ModeGrid":
        """Wider domain at (roughly) unchanged node density."""
        new_min = self.y_min if y_min is None else y_min
        new_max = self.y_max if y_max is None else y_max
        stretch = (math.log(new_max / new_min)
                   / math.log(self.y_max / self.y_min))
        return ModeGrid(new_min, new_max,
                        int(round(self.n_points * stretch)), self.grading)


def potential(k: int, n: int, m: int, eps: float, y) -> np.ndarray:
    """Multiplier ``V(y)`` of the twisted radial mode operator."""
    y = np.asarray(y, dtype=float)
    return (k * (k - 2) / 4.0
            + 4.0 * math.pi ** 2 * n ** 2 * y ** 2
            - 2.0 * math.pi * k * n * y
            + eps * math.pi ** 2 * m ** 2 / y)


@dataclass
class ModeOperator:
    """Discretized mode operator: tridiagonal stiffness, lumped mass.

    Interior (Dirichlet) degrees of freedom only.  ``stiff_diag`` and
    ``stiff_off`` define the symmetric stiffness matrix ``A`` of the
    quadratic form; ``mass`` holds the lumped weights ``y_i^{-2} w_i`` of
    the ``y^{-2} dy`` inner product.  Eigenpairs solve ``A v = lam M v``.
    """

    k: int
    n: int
    m: int
    eps: float
    grid: ModeGrid
    nodes: np.ndarray = field(repr=False)
    stiff_diag: np.ndarray = field(repr=False)
    stiff_off: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    def symmetric_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of ``M^{-1/2} A M^{-1/2}``."""
        d = self.stiff_diag / self.mass
        e = self.stiff_off / np.sqrt(self.mass[:-1] * self.mass[1:])
        return d, e

    def matvec(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        out = self.stiff_diag * v
        out[:-1] += self.stiff_off * v[1:]
        out[1:] += self.stiff_off * v[:-1]
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Strong-form action ``(L beta)(y_i)`` on sampled interior values.

        Consistent to second order in the log-grid spacing for smooth
        profiles vanishing at both domain ends.
        """
        return self.matvec(values) / self.mass

    def form(self, v: np.ndarray, w: np.ndarray) -> complex:
        return complex(np.vdot(w, self.matvec(v)))

    def weighted_inner(self, v: np.ndarray, w: np.ndarray) -> complex:
        return complex(np.vdot(w, self.mass * np.asarray(v)))

    def symmetry_residual(self, seed: int = 0) -> float:
        """``|<L v, w> - <v, L w>|`` for random vectors, relative scale."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.size)
        w = rng.standard_normal(self.size)
        lv = self.apply(v)
        lw = self.apply(w)
        a = self.weighted_inner(lv, w)
        b = self.weighted_inner(v, lw)
        scale = max(abs(a), abs(b), 1.0)
        return abs(a - b) / scale


def build_mode_operator(k: int, n: int, m: int, eps: float,
                        grid: ModeGrid = ModeGrid()) -> ModeOperator:
    """Assemble the P1 / lumped-mass discretization of the mode operator.

    Raises ``ValueError`` unless ``n != 0``, ``m != 0`` (cusp modes only)
    and ``eps`` is finite and ``>= 0``.
    """
    if n == 0 or m == 0:
        raise ValueError("cusp modes require n != 0 and m != 0")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    y = grid.nodes()
    h = np.diff(y)
    inv = 1.0 / h
    yi = y[1:-1]
    lumped = 0.5 * (h[:-1] + h[1:])
    mass = lumped / yi ** 2
    stiff_diag = inv[:-1] + inv[1:] + potential(k, n, m, eps, yi) * mass
    stiff_off = -inv[1:-1]
    return ModeOperator(k=k, n=n, m=m, eps=eps, grid=grid, nodes=yi,
                        stiff_diag=stiff_diag, stiff_off=stiff_off,
                        mass=mass)


def _tridiagonal(op: ModeOperator, count: int):
    """``op.symmetric_tridiagonal()``, once ``count`` fits ``op.size``."""
    if not 1 <= count <= op.size:
        raise ValueError(f"count must be in [1, {op.size}], got {count}")
    return op.symmetric_tridiagonal()


def eigen_solve(op: ModeOperator, count: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of ``A v = lam M v``.

    Returns ascending eigenvalues and an ``(size, count)`` array whose
    columns are orthonormal in the weighted inner product.
    """
    d, e = _tridiagonal(op, count)
    vals, vecs = eigh_tridiagonal(d, e, select="i",
                                  select_range=(0, count - 1))
    return vals, vecs / np.sqrt(op.mass)[:, None]


def eigenvalues(op: ModeOperator, count: int) -> np.ndarray:
    """:func:`eigen_solve`'s values (the same ``stebz`` bisection) without
    vectors, copied out of the length-``size`` array a slice would pin."""
    d, e = _tridiagonal(op, count)
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                            select_range=(0, count - 1)).copy()


def rayleigh_quotient(op: ModeOperator, values: np.ndarray) -> float:
    """``<L beta, beta> / <beta, beta>`` in the weighted inner product."""
    denom = op.weighted_inner(values, values)
    if denom == 0:
        raise ValueError("zero vector")
    return float((op.form(values, values) / denom).real)


def epsilon_sweep(k: int, n: int, m: int, eps_list, count: int = 10,
                  grid: ModeGrid = ModeGrid()) -> np.ndarray:
    """Table of the lowest eigenvalues across ``eps`` values.

    Row ``i`` holds the ``count`` lowest eigenvalues at ``eps_list[i]``.
    Each column is nondecreasing in ``eps`` (the ``eps``-term is a
    nonnegative diagonal perturbation); as ``eps`` decreases the rows
    slide down toward the continuum band bottom and fill windows densely.
    """
    return np.array([eigenvalues(build_mode_operator(k, n, m, eps, grid),
                                 count) for eps in eps_list])


def window_count(vals: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues inside the closed window ``[lo, hi]``."""
    v = np.asarray(vals)
    return int(np.sum((v >= lo) & (v <= hi)))


def refinement_deltas(k: int, n: int, m: int, eps: float, count: int = 10,
                      grid: ModeGrid = ModeGrid()
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues plus their relative shift under one grid refinement.

    The shift measures the discretization on ``grid``'s domain only; it is
    not an error bound, since it cannot see a domain too narrow for the
    modes (see the module docstring).
    """
    vals = eigenvalues(build_mode_operator(k, n, m, eps, grid), count)
    fine = eigenvalues(build_mode_operator(k, n, m, eps, grid.refined()),
                       count)
    return fine, np.abs(fine - vals) / np.abs(fine)

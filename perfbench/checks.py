"""Correctness checks for the benchmark, computed apart from ``strata``.

Every check takes the program's outputs plus the inputs the benchmark
generated, and returns a list of failure messages (empty when the output
passes).  References come from closed forms, from quadrature written
here, or from a property the paper proves (an invariance, an isometry, a
duality).  None compares against a stored copy of an earlier output.

Monte Carlo outputs are checked against their targets within ``Z``
standard errors.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy import special as sp

#: Standard errors allowed between a Monte Carlo estimate and its target.
Z = 5.0


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def panel_nodes(a: float, b: float, panels: int, per_panel: int = 8):
    """Composite Gauss-Legendre nodes and weights on ``[a, b]``."""
    edges = np.linspace(a, b, panels + 1)
    parts = [gauss_legendre(lo, hi, per_panel)
             for lo, hi in zip(edges[:-1], edges[1:])]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def plane_moments(profile, radius: float, n: int = 400) -> tuple[float, float]:
    """``(integral f, integral f^2)`` over the plane of a radial profile."""
    r, w = gauss_legendre(0.0, radius, n)
    v = np.real(np.asarray(profile(r)))
    return (2.0 * math.pi * float(np.sum(w * r * v)),
            2.0 * math.pi * float(np.sum(w * r * v * v)))


def bessel_k_imag(t: float, z) -> np.ndarray:
    """``K_{it}(z)`` for real ``t`` and ``z > 0`` from
    ``K_{it}(z) = integral_0^inf exp(-z cosh u) cos(t u) du``."""
    z = np.atleast_1d(np.asarray(z, float))
    out = np.empty(z.shape)
    for i, zi in enumerate(z):
        upper = math.acosh(1.0 + 60.0 / zi)
        u, w = panel_nodes(0.0, upper, 16, 24)
        out[i] = np.sum(w * np.exp(-zi * (np.cosh(u) - 1.0)) * np.cos(t * u)) \
            * math.exp(-zi)
    return out


def _bad(label: str, got, want, tol) -> str:
    return f"{label}: got {got!r}, want {want!r} (tolerance {tol:g})"


def _z_fails(label: str, est, err, want) -> list[str]:
    if not (np.isfinite(est) and np.isfinite(err) and err > 0):
        return [f"{label}: estimate {est!r} with stderr {err!r} is not usable"]
    if abs(est - want) > Z * err:
        return [f"{label}: {est!r} is {abs(est - want) / err:.2f} stderr "
                f"from {want!r} (bound {Z:g})"]
    return []


def batch_mean_stderr(vals: np.ndarray, n_batches: int = 100):
    usable = (vals.size // n_batches) * n_batches
    batches = vals[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------------------
# verify_all: the report of ``strata all``
# ---------------------------------------------------------------------------

#: Parameters the CLI's suites fix in code (not in the run configuration).
RAYLEIGH_T = 0.7
OSCILLATING_Y = 1.3


def check_cli_report(rc: int, text: str) -> list[str]:
    """Exit code 0, every suite passing, and the closed-form claims."""
    fails = []
    if rc != 0:
        fails.append(f"strata all exited {rc}")
    try:
        report = json.loads(text)
    except ValueError as exc:
        return fails + [f"report is not JSON: {exc}"]
    suites = report.get("suites", {})
    if sorted(suites) != ["algebra", "fourier", "operators", "series", "sv"]:
        fails.append(f"suites {sorted(suites)}")
    if not report.get("pass"):
        fails.append("report does not pass")
    cfg = report["config"]
    seen = set()
    for suite in suites.values():
        for c in suite["checks"]:
            claim = c["claim"]
            if not c["pass"]:
                fails.append(f"claim failed: {claim}")
            if claim.startswith("transform mean over the moduli space"):
                seen.add("mean")
                M, r = cfg["M"], cfg["r_lattice"]
                want = M * M * math.pi * (1.0 - math.exp(-r * r))
                if abs(c["predicted"] - want) > 1e-9 * want:
                    fails.append(_bad(claim, c["predicted"], want, 1e-9))
                fails += _z_fails(claim, c["measured"], c["stderr"], want)
                if c["stderr"] >= 0.01 * want:
                    fails.append(f"{claim}: stderr {c['stderr']} above 1%")
            elif claim.startswith("cubic operator eigenvalue"):
                n, m = map(int, re.search(r"n=(-?\d+), m=(-?\d+)",
                                          claim).groups())
                seen.add(("cubic", n, m))
                want = 4.0 * math.pi ** 3 * n * m * m
                if abs(c["predicted"] - want) > 1e-12 * abs(want):
                    fails.append(_bad(claim, c["predicted"], want, 1e-12))
                if abs(c["measured"] - want) > 1e-5 * abs(want):
                    fails.append(_bad(claim, c["measured"], want, 1e-5))
            elif claim == "radial power profile Rayleigh quotient":
                seen.add("rayleigh")
                want = RAYLEIGH_T ** 2 + 0.25
                if abs(c["predicted"] - want) > 1e-12:
                    fails.append(_bad(claim, c["predicted"], want, 1e-12))
                if abs(c["measured"] - want) > 1e-6:
                    fails.append(_bad(claim, c["measured"], want, 1e-6))
            elif claim == "coefficient of an explicit oscillating function":
                seen.add("oscillating")
                want = 1.0 / (1.0 + OSCILLATING_Y)
                if abs(c["predicted"] - want) > 1e-12:
                    fails.append(_bad(claim, c["predicted"], want, 1e-12))
                if abs(c["measured"] - want) > 1e-10:
                    fails.append(_bad(claim, c["measured"], want, 1e-10))
    if len(seen) != 6:
        fails.append(f"closed-form claims found: {sorted(map(str, seen))}")
    return fails


# ---------------------------------------------------------------------------
# cusp_moments
# ---------------------------------------------------------------------------


def check_second_moment(label: str, out, M: int, mass: float, l2: float
                        ) -> list[str]:
    """``E|SV_M f|^2 = M^4 (int f)^2 + M^2 int f^2`` within ``Z`` stderr."""
    est, err = out
    if abs(complex(est).imag) > 1e-12 * abs(est):
        return [f"{label}: estimate {est!r} is not real"]
    want = M ** 4 * mass * mass + M * M * l2
    return _z_fails(label, complex(est).real, err, want)


def check_dual_sum(label: str, vals: np.ndarray, n: int, M: int,
                   h_integral: float) -> list[str]:
    """Siegel mean value: the sum over nonzero vectors of ``h(M |v|)`` has
    mean ``(1 / M^2) integral over the plane of h``."""
    vals = np.asarray(vals)
    if vals.shape != (n,):
        return [f"{label}: shape {vals.shape}, want ({n},)"]
    if not np.all(np.isfinite(vals)) or np.min(vals) < 0.0:
        return [f"{label}: values must be finite and nonnegative"]
    est, err = batch_mean_stderr(vals)
    return _z_fails(label, est, err, h_integral / (M * M))


# ---------------------------------------------------------------------------
# special_coeffs
# ---------------------------------------------------------------------------


def gaussian_hankel(k: int, s) -> np.ndarray:
    """``integral r^(k+1) exp(-r^2) J_k(s r) dr = s^k exp(-s^2/4) / 2^(k+1)``."""
    s = np.asarray(s, float)
    return s ** k * np.exp(-s * s / 4.0) / 2.0 ** (k + 1)


def check_gaussian_hankel(label: str, k: int, s, got) -> list[str]:
    want = gaussian_hankel(k, s)
    dev = float(np.max(np.abs(np.asarray(got) - want)))
    return [] if dev <= 1e-9 else [_bad(label, dev, 0.0, 1e-9)]


def edge_hankel(k: int, a: float, s) -> np.ndarray:
    """Transform of ``r^k`` on ``[0, a]``: ``a^(k+1) J_{k+1}(a s) / s``."""
    s = np.asarray(s, float)
    safe = np.where(s > 0.0, s, 1.0)
    at0 = a * a / 2.0 if k == 0 else 0.0
    return np.where(s > 0.0, a ** (k + 1) * sp.jv(k + 1, a * safe) / safe, at0)


def edge_tail(k: int, a: float, S: float) -> float:
    """``integral_S^inf |H(s)|^2 s ds`` for the edge profile, from
    ``integral_0^inf J_nu(t)^2 / t dt = 1 / (2 nu)``."""
    t, w = panel_nodes(0.0, a * S, int(4 * a * S) + 4, 16)
    head = float(np.sum(w * sp.jv(k + 1, t) ** 2 / t))
    return a ** (2 * k + 2) * (1.0 / (2.0 * (k + 1)) - head)


def check_edge_hankel(label: str, k: int, a: float, S: float, s, w, got
                      ) -> list[str]:
    """Pointwise closed form, and the Plancherel isometry
    ``integral |H f|^2 s ds = integral |f|^2 r dr`` with the tail beyond
    ``S`` taken in closed form."""
    got = np.asarray(got)
    fails = []
    dev = float(np.max(np.abs(got - edge_hankel(k, a, s))))
    if dev > 1e-9:
        fails.append(_bad(f"{label} pointwise", dev, 0.0, 1e-9))
    norm_f = a ** (2 * k + 2) / (2 * k + 2)
    norm_h = float(np.sum(w * np.abs(got) ** 2 * s)) + edge_tail(k, a, S)
    if abs(norm_h - norm_f) > 1e-7 * norm_f:
        fails.append(_bad(f"{label} isometry", norm_h, norm_f, 1e-7))
    return fails


def involution_bound(k: int, a: float, r, S: float) -> np.ndarray:
    """Bound on the error of transforming the edge profile's closed-form
    transform cut at frequency ``S``, at ``0 < r < a``.

    The cut-off tail is ``a^(k+1) integral_S^inf J_{k+1}(a s) J_k(r s) ds``.
    With the leading Bessel asymptotics the integrand is
    ``(pi s sqrt(a r))^-1`` times two cosines of frequencies ``a -/+ r``,
    and ``|integral_S^inf cos(w s - c) / s ds| <= 2 / (w S)``; the factor
    1.5 covers the next order.
    """
    r = np.asarray(r, float)
    return 1.5 * a ** (k + 1) / (math.pi * np.sqrt(a * r)) \
        * (2.0 / ((a - r) * S) + 2.0 / ((a + r) * S))


def check_involution(label: str, k: int, a: float, S: float, r, got
                     ) -> list[str]:
    """``H_k H_k f = f``: the transform of the edge profile's closed-form
    transform returns ``r^k`` inside ``[0, a)`` up to the cut-off tail."""
    r = np.asarray(r, float)
    dev = np.abs(np.asarray(got) - r ** k)
    bound = involution_bound(k, a, r, S)
    if np.all(dev <= bound):
        return []
    i = int(np.argmax(dev / bound))
    return [_bad(f"{label} at r={r[i]:.4g}", float(dev[i]), 0.0,
                 float(bound[i]))]


def hankel_reference(k: int, profile, radius: float, s) -> np.ndarray:
    """``integral_0^R f(r) J_k(s r) r dr`` by composite Gauss-Legendre, for
    profiles that are smooth up to and across the edge of their support."""
    s = np.atleast_1d(np.asarray(s, float))
    panels = int(np.max(s) * radius / math.pi) + 16
    r, w = panel_nodes(0.0, radius, panels, 24)
    fr = np.real(np.asarray(profile(r))) * r * w
    return sp.jv(k, np.outer(s, r)) @ fr


def coefficient_prediction(k: int, M: int, m: int, y, profile, radius: float
                           ) -> np.ndarray:
    """The coefficient at ``(0, mM)``:
    ``2 pi M^2 (sign m)^k H_k f0(2 pi |m| M / sqrt y)``."""
    s = 2.0 * math.pi * abs(m) * M / np.sqrt(np.asarray(y, float))
    return 2.0 * math.pi * M * M * (1 if m > 0 else -1) ** k \
        * hankel_reference(k, profile, radius, s)


def check_prediction(label: str, k: int, M: int, m: int, ys, profile,
                     radius: float, got) -> list[str]:
    want = coefficient_prediction(k, M, m, ys, profile, radius)
    dev = float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))
    return [] if dev <= 1e-9 else [_bad(label, dev, 0.0, 1e-9)]


def check_coefficient_table(label: str, k: int, M: int, m: int, y: float,
                            profile, radius: float, table: np.ndarray
                            ) -> list[str]:
    """The coefficient formula at ``(0, mM)`` to 1e-6 relative, and every
    index off the support (``n != 0`` or index not a multiple of ``M``)
    below 1e-8."""
    nx, nv = table.shape
    fails = []
    want = complex(coefficient_prediction(k, M, m, y, profile, radius)[0])
    got = complex(table[0, (m * M) % nv])
    if abs(got - want) > 1e-6 * abs(want):
        fails.append(_bad(f"{label} formula", got, want, 1e-6))
    allowed = np.zeros(table.shape, dtype=bool)
    for idx in range(-(nv // 2) + 1, nv // 2):
        if idx % M == 0:
            allowed[0, idx % nv] = True
    floor = float(np.max(np.abs(table[~allowed])))
    if floor > 1e-8:
        fails.append(_bad(f"{label} vanishing", floor, 0.0, 1e-8))
    return fails


def whittaker_w_imag(t: float, x) -> np.ndarray:
    """``W_{0, it}(x) = sqrt(x / pi) K_{it}(x / 2)`` (DLMF 13.18.9)."""
    x = np.asarray(x, float)
    return np.sqrt(x / math.pi) * bessel_k_imag(t, x / 2.0)


def check_whittaker(label: str, got, want) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    dev = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return [] if dev <= 1e-9 else [_bad(label, dev, 0.0, 1e-9)]


def whittaker_packet(psi, t_support, n_t: int, y) -> np.ndarray:
    """The ``k = 0, n = 1`` Whittaker packet from ``K_{it}``.

    With ``Gamma(2it) Gamma(-2it) / (Gamma(1/2+it) Gamma(1/2-it))
    = 1 / (4 t sinh(pi t))`` and DLMF 13.18.9 the packet is
    ``(sqrt(y) / pi) sum_j w_j psi(t_j) sqrt(t_j sinh(pi t_j))
    K_{i t_j}(2 pi y)`` on the same Gauss-Legendre nodes in ``t``.
    """
    t, w = gauss_legendre(t_support[0], t_support[1], n_t)
    y = np.atleast_1d(np.asarray(y, float))
    total = np.zeros(y.shape)
    for tj, wj, pj in zip(t, w, np.real(np.asarray(psi(t)))):
        total += wj * pj * math.sqrt(tj * math.sinh(math.pi * tj)) \
            * bessel_k_imag(tj, 2.0 * math.pi * y)
    return np.sqrt(y) / math.pi * total


def check_refinement(label: str, out) -> list[str]:
    vals, deltas = out
    worst = float(np.max(deltas))
    return [] if worst < 5e-3 else [_bad(label, worst, 0.0, 5e-3)]


def check_sweep(label: str, eps_desc, tab) -> list[str]:
    """Each eigenvalue column strictly decreases as ``eps`` decreases."""
    tab = np.asarray(tab)
    if tab.shape[0] != len(eps_desc):
        return [f"{label}: {tab.shape[0]} rows for {len(eps_desc)} eps"]
    if not np.all(tab[:-1] > tab[1:]):
        return [f"{label}: eigenvalues not strictly monotone in eps"]
    return []


# ---------------------------------------------------------------------------
# adjoint_pointwise
# ---------------------------------------------------------------------------

#: Generators of the integer group as ``(a, b, c, d, w1, w2)``.
GENERATORS = (
    (0, -1, 1, 0, 0, 0),    # S
    (1, 1, 0, 1, 0, 0),     # T
    (1, -1, 0, 1, 0, 0),    # T^-1
    (1, 0, 0, 1, 1, 0),     # fibre translation (1, 0)
    (1, 0, 0, 1, 0, 1),     # fibre translation (0, 1)
)


def act(g, x, y, u, v):
    """Left action ``(tau, z) -> ((a tau + b) / j, (z + w1 tau + w2) / j)``
    with ``j = c tau + d``."""
    a, b, c, d, w1, w2 = g
    tau = complex(x, y)
    z = complex(u, v)
    j = c * tau + d
    tau2 = (a * tau + b) / j
    z2 = (z + w1 * tau + w2) / j
    return tau2.real, tau2.imag, z2.real, z2.imag


def check_reduction(label: str, point, result, again) -> list[str]:
    """The reduced point lies in the fundamental domain, equals the image
    of the input under the returned element, that element is integral,
    and reducing once more changes nothing."""
    red, gamma = result
    g = gamma.g
    entries = (g.a, g.b, g.c, g.d, gamma.w[0], gamma.w[1])
    if any(abs(e - round(e)) > 1e-9 for e in entries):
        return [f"{label}: element {entries} is not integral"]
    if abs(g.a * g.d - g.b * g.c - 1.0) > 1e-9:
        return [f"{label}: element {entries} has determinant != 1"]
    image = act(tuple(round(e) for e in entries), point.x, point.y,
                point.u, point.v)
    got = (red.x, red.y, red.u, red.v)
    scale = max(1.0, *map(abs, image))
    if max(abs(p - q) for p, q in zip(image, got)) > 1e-9 * scale:
        return [f"{label}: reduced point {got} is not the image {image}"]
    p, q = red.v / red.y, red.u - red.v * red.x / red.y
    if not (abs(red.x) <= 0.5 + 1e-12 and red.x * red.x + red.y * red.y
            >= 1.0 - 1e-12 and -1e-12 <= p < 1.0 and -1e-12 <= q < 1.0):
        return [f"{label}: reduced point {got} is outside the domain"]
    red2, gamma2 = again
    got2 = (red2.x, red2.y, red2.u, red2.v)
    g2 = gamma2.g
    if got2 != got or (g2.a, g2.b, g2.c, g2.d, *gamma2.w) != (
            1.0, 0.0, 0.0, 1.0, 0.0, 0.0):
        return [f"{label}: reduction is not idempotent at {got}"]
    return []


def check_invariance(label: str, base, moved) -> list[str]:
    """``SV_M f`` takes the same value at a point and at its image."""
    base = np.asarray(base)
    moved = np.asarray(moved)
    scale = float(np.max(np.abs(base)))
    if not scale > 0.0:
        return [f"{label}: transform vanishes at every base point"]
    dev = float(np.max(np.abs(moved - base))) / scale
    return [] if dev <= 1e-9 else [_bad(label, dev, 0.0, 1e-9)]


def check_duality(label: str, lhs: float, lhs_err: float, weights, out
                  ) -> list[str]:
    """``<SV f, h>`` on the moduli space equals ``<f, SV* h>`` on the plane
    within ``Z`` combined standard errors; ``weights`` already carry
    ``f`` times the plane quadrature weights."""
    vals, errs = out
    vals = np.asarray(vals)
    if np.max(np.abs(vals.imag)) > 0.0 or np.min(vals.real) < 0.0:
        return [f"{label}: adjoint of a nonnegative bump must be "
                "real and nonnegative"]
    rhs = float(np.sum(weights * vals.real))
    rhs_err = float(np.sum(np.abs(weights) * np.asarray(errs)))
    return _z_fails(label, rhs, lhs_err + rhs_err, lhs)



#: The default ``FundamentalBump``: a band of the base inside the domain.
BUMP_X_HALF = 0.4
BUMP_Y = (1.2, 1.8)


def bump(x, y, p, q) -> np.ndarray:
    """The default bump, written out here from its definition."""
    sx = np.asarray(x, float) / BUMP_X_HALF
    yc, yh = 0.5 * (BUMP_Y[0] + BUMP_Y[1]), 0.5 * (BUMP_Y[1] - BUMP_Y[0])
    sy = (np.asarray(y, float) - yc) / yh
    inside = (np.abs(sx) < 1.0) & (np.abs(sy) < 1.0)
    sx = np.where(inside, sx, 0.0)
    sy = np.where(inside, sy, 0.0)
    base = np.where(inside, np.exp(-1.0 / (1.0 - sx * sx))
                    * np.exp(-1.0 / (1.0 - sy * sy)), 0.0)
    return base * (1.0 + np.cos(2.0 * math.pi * p)) \
        * (1.0 + 0.5 * np.cos(2.0 * math.pi * q))


def band_pairing(f, radius: float, n: int, rng: np.random.Generator):
    """``integral of SV_1 f * bump  dx dy dp dq / y^2`` by Monte Carlo over
    the bump's band, which lies inside the fundamental domain, with the
    lattice sum done here over a box that covers the support of ``f``.

    Returns ``(estimate, stderr)``.
    """
    y0, y1 = BUMP_Y
    x = rng.uniform(-BUMP_X_HALF, BUMP_X_HALF, n)
    y = 1.0 / (1.0 / y0 - rng.random(n) * (1.0 / y0 - 1.0 / y1))
    p = rng.random(n)
    q = rng.random(n)
    mass = 2.0 * BUMP_X_HALF * (1.0 / y0 - 1.0 / y1)
    u, v, sq = q + p * x, p * y, np.sqrt(y)
    a_range, b_range = range(-5, 4), range(-7, 7)
    total = np.zeros(n)
    for a in a_range:
        for b in b_range:
            w = (u + a * x + b + 1j * (v + a * y)) / sq
            inside = np.abs(w) <= radius
            if not np.any(inside):
                continue
            if a in (a_range[0], a_range[-1]) or b in (b_range[0], b_range[-1]):
                raise RuntimeError("lattice box does not cover the support")
            total += np.where(inside, np.real(f(w)), 0.0)
    return batch_mean_stderr(mass * total * bump(x, y, p, q))

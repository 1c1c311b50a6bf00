"""The benchmark's four workloads.

A workload turns ``--seed`` into inputs (set-up) and lists the operations
of one round.  Every round runs the same operations on the same inputs.
Program functions are looked up on their module at call time, so the
traced run sees the wrapped ones.

Calls to the functions that are due to change shape (``sv_adjoint``,
``sv_adjoint_of_bump``, ``reduce_to_fundamental``) each sit in one place
below.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from strata import cli, fourier, saff, series, special, spectral, sv


@dataclass
class Op:
    """One timed call.  ``check`` returns failure messages for its output;
    an op with ``expect`` set succeeds only by raising that exception."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]] | None = None
    expect: type[Exception] | None = None


def _identity(fn):
    return fn


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed, tag])
    return [int(s) for s in ss.generate_state(n)]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int
                ) -> np.ndarray:
    """One uniform draw in each of ``n`` equal parts of ``[lo, hi]``: the
    inputs change with the seed while the work they cost barely does."""
    return lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n


def warm_up() -> None:
    """First calls that fill lazy state: scipy quadrature and splines,
    mpmath, numpy's lattice kernels and the sampler."""
    prof = special.RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), 2.0)
    special.hankel_transform(0, prof, 1.0)
    special.whittaker_w(0.0, 0.5j, 1.0)
    sv.radial_fourier(prof, 1.0, 3)
    f = sv.PlaneFunction(lambda z: np.exp(-np.abs(z) ** 2), 2.0)
    sv.sv_rel_values(f, [0.1], [1.1], [0.2], [0.3], 1)
    saff.sample_masur_veech(10, 0)


# ---------------------------------------------------------------------------
# benchmark callbacks (the ``profile`` layer)
# ---------------------------------------------------------------------------


def window(r, radius: float) -> np.ndarray:
    s = np.asarray(r, float) / radius
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def windowed_gaussian(r):
    r = np.asarray(r, float)
    return np.exp(-r * r) * window(r, 2.4)


def ring(r):
    s = (np.asarray(r, float) - 1.1) / 0.9
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def gaussian_plane(z):
    return np.exp(-np.abs(np.asarray(z, complex)) ** 2)


def gaussian_power(k: int):
    def profile(r):
        r = np.asarray(r, float)
        return r ** k * np.exp(-r * r)
    profile.__name__ = f"gaussian_power_{k}"
    return profile


def edge_power(k: int):
    """``r^k``; the support cut of the profile makes the jump at ``a``."""
    def profile(r):
        return np.asarray(r, float) ** k
    profile.__name__ = f"edge_power_{k}"
    return profile


def edge_transform(k: int, a: float):
    def profile(s):
        return checks.edge_hankel(k, a, s)
    profile.__name__ = f"edge_transform_{k}"
    return profile


def sample_fundamental(n: int, rng: np.random.Generator, y_max: float):
    """``(x, y)`` from ``(3/pi) dx dy / y^2`` on the fundamental domain, by
    rejection from the strip ``|x| < 1/2``, ``sqrt(3)/2 < y < y_max``."""
    y_lo = math.sqrt(3.0) / 2.0
    xs, ys, have = [], [], 0
    while have < n:
        m = 2 * (n - have) + 64
        x = rng.uniform(-0.5, 0.5, m)
        y = 1.0 / (1.0 / y_lo - rng.random(m) * (1.0 / y_lo - 1.0 / y_max))
        keep = x * x + y * y >= 1.0
        xs.append(x[keep])
        ys.append(y[keep])
        have += int(keep.sum())
    return np.concatenate(xs)[:n], np.concatenate(ys)[:n]


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


class VerifyAll:
    """``strata all`` at its default configuration through ``cli.main``.

    The default configuration fixes its own seed, so the inputs do not
    depend on ``--seed``.
    """

    def __init__(self, seed: int, tracer=None):
        pass

    @staticmethod
    def run_all():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["all"])
        return rc, out.getvalue()

    def ops(self) -> list[Op]:
        return [Op("strata_all", self.run_all,
                   lambda out: checks.check_cli_report(*out))]


# ---------------------------------------------------------------------------
# cusp_moments
# ---------------------------------------------------------------------------


class CuspMoments:
    """Exact-fibre second moments and direct dual-lattice sums, whose work
    per sample grows like ``sqrt(y)`` up to ``y_max = 1e8``."""

    N = 200_000         # samples of each exact-fibre estimate
    N_DUAL = 100_000    # points of each direct dual sum
    RHO_MAX = 1.5       # both transforms are below 1e-9 of their peak here
    N_GRID = 101

    def __init__(self, seed: int, tracer=None):
        profile = tracer.profile if tracer else _identity
        r, w = checks.gauss_legendre(0.0, 3.0, 400)
        base = np.exp(-r * r) * window(r, 3.0)
        c = float(np.sum(w * r * base) / np.sum(w * r ** 3 * base))

        def mean_zero(rr):
            rr = np.asarray(rr, float)
            return (1.0 - c * rr * rr) * np.exp(-rr * rr) * window(rr, 3.0)

        def dual_density(rho):
            rho = np.asarray(rho, float)
            return (math.pi * rho * rho * np.exp(-math.pi * rho * rho)) ** 2

        self.cases = [
            ("gauss", windowed_gaussian, 2.4, 1e6),
            ("mean_zero", mean_zero, 3.0, 1e8),
        ]
        self.profiles = {name: special.RadialProfile(profile(fn), radius)
                         for name, fn, radius, _ in self.cases}
        self.moments = {name: checks.plane_moments(fn, radius)
                        for name, fn, radius, _ in self.cases}
        self.seeds = _seeds(seed, 1, 4)
        # |g^|^2 for g^(rho) = pi rho^2 exp(-pi rho^2): plane integral 1/4
        self.h = special.RadialProfile(profile(dual_density), 4.0)
        self.h_integral = 0.25
        self.x, self.y = sample_fundamental(self.N_DUAL, _rng(seed, 2), 1e8)

    def ops(self) -> list[Op]:
        ops = []
        i = 0
        for name, _fn, _radius, y_max in self.cases:
            for M in (1, 2):
                mass, l2 = self.moments[name]
                label = f"exact_fibre_{name}_M{M}"
                ops.append(Op(label, functools.partial(
                    self.exact_fibre, self.profiles[name], M, self.seeds[i],
                    y_max), functools.partial(
                        checks.check_second_moment, label, M=M, mass=mass,
                        l2=l2)))
                i += 1
        for M in (1, 2):
            label = f"dual_sum_M{M}"
            ops.append(Op(label, functools.partial(self.dual_sum, M),
                          functools.partial(checks.check_dual_sum, label,
                                            n=self.N_DUAL, M=M,
                                            h_integral=self.h_integral)))
        return ops

    def exact_fibre(self, prof, M, seed, y_max):
        return sv.sv_second_moment_exact_fibre(
            prof, M, n_samples=self.N, seed=seed, y_max=y_max,
            rho_max=self.RHO_MAX, n_grid=self.N_GRID)

    def dual_sum(self, M):
        return sv.dual_norm_sum_values(self.h, self.x, self.y, M)


# ---------------------------------------------------------------------------
# special_coeffs
# ---------------------------------------------------------------------------


class SpecialCoeffs:
    """Hankel transforms, coefficient predictions and tables, Whittaker
    values and packets, and per-mode spectra."""

    EDGE_A = 2.0          # support edge of the jump profiles
    EDGE_S = 12.0         # frequencies used by the isometry check
    INVOLUTION_S = 60.0   # support of the closed-form transform
    SPEC = (8, 32, 256)

    def __init__(self, seed: int, tracer=None):
        profile = tracer.profile if tracer else _identity
        rng = _rng(seed, 3)
        self.smooth = [(k, special.RadialProfile(profile(gaussian_power(k)), 6.5),
                        _stratified(rng, 0.0, 12.0, 40)) for k in range(3)]
        a = self.EDGE_A
        self.edge_s, self.edge_w = checks.panel_nodes(0.0, self.EDGE_S, 12, 8)
        self.edge = [(k, special.RadialProfile(profile(edge_power(k)), a))
                     for k in range(3)]
        self.involution = [
            (k, special.RadialProfile(profile(edge_transform(k, a)),
                                      self.INVOLUTION_S),
             _stratified(rng, 0.2, 1.6, 3)) for k in range(3)]
        # (k, M, m, profile, support radius, heights)
        self.coeff_cases = [
            (k, M, m, fn, radius, special.RadialProfile(profile(fn), radius),
             _stratified(rng, 2.5, 6.0, 4))
            for k, M, m, fn, radius in ((0, 1, 1, windowed_gaussian, 2.4),
                                        (2, 2, 1, ring, 2.0))]
        self.whit_x = _stratified(rng, 0.5, 8.0, 40)
        self.whit_t = _stratified(rng, 0.5, 2.0, 2)
        self.whit_kappa = _stratified(rng, 0.3, 2.0, 2)

        def psi(t):
            t = np.asarray(t, float)
            return (t - 0.5) ** 2 * (2.0 - t) ** 2

        self.psi = psi
        self.psi_cb = profile(psi)
        self.packet_y = _stratified(rng, 0.3, 1.5, 6)
        self.refine_eps = 10.0 ** _stratified(rng, -2.0, 0.0, 2)
        self.sweep_eps = [10.0 ** rng.uniform(lo, lo + 0.3)
                          for lo in (-0.3, -1.3, -2.0)]

    def ops(self) -> list[Op]:
        ops = []
        for k, prof, s in self.smooth:
            label = f"hankel_gauss_k{k}"
            ops.append(Op(
                label, lambda k=k, prof=prof, s=s:
                    special.hankel_transform(k, prof, s),
                functools.partial(checks.check_gaussian_hankel, label, k, s)))
        for k, prof in self.edge:
            label = f"hankel_edge_k{k}"
            ops.append(Op(
                label, lambda k=k, prof=prof:
                    special.hankel_transform(k, prof, self.edge_s),
                functools.partial(checks.check_edge_hankel, label, k,
                                  self.EDGE_A, self.EDGE_S, self.edge_s,
                                  self.edge_w)))
        for k, prof, r in self.involution:
            label = f"involution_k{k}"
            ops.append(Op(
                label, lambda k=k, prof=prof, r=r:
                    special.hankel_transform(k, prof, r),
                functools.partial(checks.check_involution, label, k,
                                  self.EDGE_A, self.INVOLUTION_S, r)))
        for k, M, m, fn, radius, prof, ys in self.coeff_cases:
            label = f"prediction_k{k}_M{M}"
            ops.append(Op(
                label, lambda k=k, M=M, m=m, prof=prof, ys=ys:
                    sv.sv_coefficient_prediction(prof, k, M, m, ys),
                functools.partial(checks.check_prediction, label, k, M, m, ys,
                                  fn, radius)))
            for y in ys:
                label = f"coeff_table_k{k}_M{M}"
                ops.append(Op(label, functools.partial(
                    self.coeff_table, k, M, prof, float(y)),
                    functools.partial(checks.check_coefficient_table, label,
                                      k, M, m, float(y), fn, radius)))
        for t in self.whit_t:
            ops.append(Op(
                "whittaker_imag",
                lambda t=t: special.whittaker_w(0.0, 1j * t, self.whit_x),
                functools.partial(self.check_whittaker_imag, float(t))))
        for kappa in self.whit_kappa:
            ops.append(Op(
                "whittaker_closed",
                lambda kp=kappa: special.whittaker_w(kp, kp - 0.5, self.whit_x),
                functools.partial(self.check_whittaker_closed, float(kappa))))
        ops.append(Op("whittaker_packet", self.packet, self.check_packet))
        for eps in self.refine_eps:
            ops.append(Op(
                "refinement",
                lambda e=float(eps): spectral.refinement_deltas(0, 1, 1, e,
                                                                count=10),
                functools.partial(checks.check_refinement,
                                  f"refinement eps={eps:.4g}")))
        ops.append(Op("epsilon_sweep", lambda: spectral.epsilon_sweep(
            0, 1, 1, self.sweep_eps, count=20),
            functools.partial(checks.check_sweep, "epsilon sweep",
                              self.sweep_eps)))
        return ops

    def coeff_table(self, k, M, prof, y):
        phi = sv.sv_rel_modular(sv.k_type_function(prof, k), M)
        return fourier.coeff_H0_table(phi, y, fourier.QuadratureSpec(*self.SPEC))

    def packet(self):
        beta = series.beta_whittaker(0, 1, self.psi_cb, (0.5, 2.0), n_t=8)
        return beta(self.packet_y)

    def check_whittaker_imag(self, t, out):
        return checks.check_whittaker(f"W(0, i{t:.4g})", out,
                                      checks.whittaker_w_imag(t, self.whit_x))

    def check_whittaker_closed(self, kappa, out):
        want = self.whit_x ** kappa * np.exp(-self.whit_x / 2.0)
        return checks.check_whittaker(f"W({kappa:.4g}, {kappa - 0.5:.4g})",
                                      out, want)

    def check_packet(self, out):
        want = checks.whittaker_packet(self.psi, (0.5, 2.0), 8, self.packet_y)
        return checks.check_whittaker("Whittaker packet", out, want)


# ---------------------------------------------------------------------------
# adjoint_pointwise
# ---------------------------------------------------------------------------


def reduce_points(points):
    return [saff.reduce_to_fundamental(p) for p in points]


def adjoint_of_bump(hb, rows, n_samples, seed):
    return sv.sv_adjoint_of_bump(hb, rows, n_samples=n_samples, seed=seed)


def adjoint_generic(h, rows, n_samples, seed):
    return sv.sv_adjoint(h, rows, n_samples=n_samples, seed=seed)


def _polar_rows(radius, n_r, n_theta, phase, f):
    """Plane quadrature nodes and weights (times ``f``) on the disc."""
    r, wr = checks.gauss_legendre(0.0, radius, n_r)
    theta = phase + 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr = np.repeat(r, n_theta)
    tt = np.tile(theta, n_r)
    rows = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=1)
    weights = np.repeat(wr * r, n_theta) * (2.0 * math.pi / n_theta) \
        * np.real(f(rr))
    return rows, weights


class AdjointPointwise:
    """Per-point Python calls: adjoints of an invariant bump, reduction to
    the fundamental domain, invariance of the scalar transform, and three
    invalid-input calls that must raise ``ValueError``."""

    RADIUS = 2.5
    REDUCE_BATCHES = 12
    REDUCE_BATCH = 100
    INVARIANCE_BATCHES = 6
    INVARIANCE_BATCH = 15
    WORD = 4
    BUMP_SAMPLES = 12_000
    GENERIC_SAMPLES = 1_000
    PAIRING_SAMPLES = 100_000

    def __init__(self, seed: int, tracer=None):
        profile = tracer.profile if tracer else _identity
        rng = _rng(seed, 4)
        self.seed = seed
        self.f = sv.PlaneFunction(profile(gaussian_plane), self.RADIUS)
        self.hb = sv.FundamentalBump()
        self.h = (tracer.wrap("sv", "FundamentalBump.on_element",
                              self.hb.on_element)
                  if tracer else self.hb.on_element)
        self.bump_rows, self.bump_weights = _polar_rows(
            self.RADIUS, 12, 6, rng.uniform(0.0, math.pi / 3.0), gaussian_plane)
        self.generic_rows, self.generic_weights = _polar_rows(
            self.RADIUS, 8, 3, rng.uniform(0.0, 2.0 * math.pi / 3.0),
            gaussian_plane)
        self.adjoint_seeds = _seeds(seed, 5, 2)
        self.reduce_batches = [
            [saff.JacobiPoint(float(x), float(y), float(u), float(v))
             for x, y, u, v in zip(
                 rng.uniform(-3.0, 3.0, self.REDUCE_BATCH),
                 np.exp(rng.uniform(math.log(0.05), math.log(20.0),
                                    self.REDUCE_BATCH)),
                 rng.uniform(-2.0, 2.0, self.REDUCE_BATCH),
                 rng.uniform(-2.0, 2.0, self.REDUCE_BATCH))]
            for _ in range(self.REDUCE_BATCHES)]
        self.invariance_batches = []
        for b in range(self.INVARIANCE_BATCHES):
            base, moved = [], []
            for _ in range(self.INVARIANCE_BATCH):
                pt = (rng.uniform(-2.0, 2.0),
                      math.exp(rng.uniform(math.log(0.4), math.log(4.0))),
                      rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                img = pt
                for letter in rng.integers(0, len(checks.GENERATORS), self.WORD):
                    img = checks.act(checks.GENERATORS[letter], *img)
                base.append(saff.JacobiPoint(*map(float, pt)))
                moved.append(saff.JacobiPoint(*map(float, img)))
            self.invariance_batches.append((1 + b % 2, base, moved))
        self.invalid = [
            ("invalid_y_nan", saff.JacobiPoint(0.3, math.nan, 0.1, 0.2)),
            ("invalid_y_negative", saff.JacobiPoint(0.3, -1.0, 0.1, 0.2)),
            ("invalid_x_inf", saff.JacobiPoint(math.inf, 1.0, 0.1, 0.2)),
        ]

    def ops(self) -> list[Op]:
        ops = [
            Op("adjoint_of_bump", functools.partial(
                adjoint_of_bump, self.hb, self.bump_rows, self.BUMP_SAMPLES,
                self.adjoint_seeds[0]),
                functools.partial(self.check_duality, "adjoint of bump",
                                  self.bump_weights)),
            Op("adjoint_generic", functools.partial(
                adjoint_generic, self.h, self.generic_rows,
                self.GENERIC_SAMPLES, self.adjoint_seeds[1]),
                functools.partial(self.check_duality, "generic adjoint",
                                  self.generic_weights)),
        ]
        for batch in self.reduce_batches:
            ops.append(Op("reduce", functools.partial(reduce_points, batch),
                          functools.partial(self.check_reduce, batch)))
        for M, base, moved in self.invariance_batches:
            ops.append(Op("invariance", functools.partial(
                self.invariance, M, base, moved),
                lambda out, M=M: checks.check_invariance(
                    f"invariance M={M}", *out)))
        for kind, pt in self.invalid:
            ops.append(Op(kind, lambda pt=pt: sv.sv_rel_value(self.f, pt, 1),
                          expect=ValueError))
        return ops

    def invariance(self, M, base, moved):
        return ([sv.sv_rel_value(self.f, p, M) for p in base],
                [sv.sv_rel_value(self.f, p, M) for p in moved])

    def check_reduce(self, batch, out):
        again = reduce_points([red for red, _gamma in out])
        fails = []
        for pt, res, res2 in zip(batch, out, again):
            fails += checks.check_reduction("reduction", pt, res, res2)
        return fails

    @functools.cached_property
    def pairing(self):
        return checks.band_pairing(gaussian_plane, self.RADIUS,
                                   self.PAIRING_SAMPLES, _rng(self.seed, 6))

    def check_duality(self, label, weights, out):
        lhs, lhs_err = self.pairing
        return checks.check_duality(label, lhs, lhs_err, weights, out)


WORKLOADS = {
    "verify_all": VerifyAll,
    "cusp_moments": CuspMoments,
    "special_coeffs": SpecialCoeffs,
    "adjoint_pointwise": AdjointPointwise,
}

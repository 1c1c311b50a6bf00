"""Command-line verification harness and spectral table generator.

Subcommands
-----------
``verify {algebra,operators,series,sv,fourier}``
    Run one verification suite and emit a machine-readable report.
``sv-verify``
    Shorthand for ``verify sv`` that prints one JSON object per check,
    each with the keys ``claim / predicted / measured / stderr / pass``.
``spectrum``
    Eigenvalue table of the per-mode operator across a list of ``eps``
    values, with refinement deltas (CSV by default).
``all``
    Run every verification suite, one after another.

Configuration is a flat ``key = value`` text file (``--config``) with
flag overrides on top.  Reports use schema ``report_v1``; an identical
run configuration produces a byte-identical report.  Exit codes: 0 when
every selected check passes, 1 when at least one fails (the failing
claims are listed on stderr), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .enveloping import (
    casimir_saff,
    casimir_sl2,
    euclidean_fol_identity_op,
    euclidean_rep,
    is_central,
    symmetrize,
)
from .fourier import QuadratureSpec, coeff_H0, relation_T_H0_residual
from .operators import fit_lambda, total
from .saff import (
    ModularFunction,
    SAffElement,
    SL2Element,
    _act_arrays,
    inner_product,
)
from .series import (BetaProfile, beta_bump, beta_norm_sq, eisenstein,
                     seed as series_seed)
from .spectral import ModeGrid, refinement_deltas
from .sv import (
    PlaneFunction,
    k_type_function,
    plane_integral,
    sv_coefficient_prediction,
    sv_mean_mc,
    sv_rel_modular,
    sv_rel_values,
)
from .special import RadialProfile

SUITES = ("algebra", "operators", "series", "sv", "fourier")
# Batch count of the suites' Monte-Carlo estimates.
_N_BATCHES = 100


@dataclass(frozen=True)
class RunConfig:
    """Flat, serializable run configuration with round-trip stable defaults."""

    seed: int = 7
    r_coset: int = 120
    r_lattice: float = 2.5
    samples: int = 1_000_000
    quad_nx: int = 8
    quad_nu: int = 32
    quad_nv: int = 128
    grid_ymin: float = 1e-3
    grid_ymax: float = 50.0
    grid_n: int = 4096
    M: int = 2
    suites: str = ",".join(SUITES)
    out: str = ""
    fmt: str = "json"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.as_dict().items())

    def suite_list(self) -> list[str]:
        names = [s for s in self.suites.split(",") if s]
        if not names:
            raise ValueError("suites: the list is empty, no check would run")
        for s in names:
            if s not in SUITES:
                raise ValueError(f"suites: unknown suite {s!r}")
        return names

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_nx, self.quad_nu, self.quad_nv)

    def mode_grid(self) -> ModeGrid:
        return ModeGrid(self.grid_ymin, self.grid_ymax, self.grid_n)


def parse_config_text(text: str, base: RunConfig = RunConfig()) -> RunConfig:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        updates[key] = casts[str(types[key])](value)
    return dataclasses.replace(base, **updates)


def _suite_seed(root: int, name: str) -> int:
    """Deterministic per-suite seed, splittable from the root seed."""
    ss = np.random.SeedSequence((root, SUITES.index(name)))
    return int(ss.generate_state(1)[0])


def _check(claim: str, predicted, measured, ok: bool,
           stderr: float | None = None) -> dict:
    out = {"claim": claim, "predicted": predicted, "measured": measured,
           "pass": bool(ok)}
    if stderr is not None:
        out["stderr"] = float(stderr)
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def run_algebra(cfg: RunConfig) -> list[dict]:
    cp = casimir_saff()
    c2 = casimir_sl2()
    checks = [
        _check("degree-three invariant is central", True,
               is_central(cp), is_central(cp) is True),
        _check("degree-two invariant alone is not central", False,
               is_central(c2), is_central(c2) is False),
    ]
    six = symmetrize(cp) == cp.scale(6)
    checks.append(_check(
        "symmetrized leading term equals six times the invariant",
        True, six, six))
    rep3 = euclidean_rep(cp.scale(2))
    annihilates = all(
        not rep3.apply_monomial(a, b)
        for a in range(5) for b in range(5) if a + b <= 4)
    checks.append(_check(
        "euclidean degree-three operator annihilates polynomials up to "
        "degree four", True, annihilates, annihilates))
    euler = euclidean_rep(c2.scale(8)) == euclidean_fol_identity_op()
    checks.append(_check(
        "euclidean degree-two operator matches the Euler-operator identity",
        True, euler, euler))
    return checks


def run_operators(cfg: RunConfig) -> list[dict]:
    checks = []
    pts = (0.2, 1.3, 0.3, 0.5)
    for (n, m) in [(1, 1), (2, 1), (1, -3)]:
        ch = series_seed(0, n, m, BetaProfile(np.ones_like))
        got = -total(ch).fn(*pts) / ch.fn(*pts)
        want = 4.0 * math.pi ** 3 * n * m ** 2
        checks.append(_check(
            f"cubic operator eigenvalue on the (n={n}, m={m}) character",
            want, float(got.real),
            abs(got - want) / abs(want) < 1e-5))
    t = 0.7
    lam = fit_lambda(lambda y: np.asarray(y, complex) ** (0.5 + 1j * t),
                     0, 0, np.geomspace(0.5, 2.0, 200))
    want = t * t + 0.25
    checks.append(_check(
        "radial power profile Rayleigh quotient", want, lam,
        abs(lam - want) < 1e-6))
    return checks


def run_series(cfg: RunConfig) -> list[dict]:
    seed = _suite_seed(cfg.seed, "series")
    beta = beta_bump(0.8, 1.6)
    E = eisenstein(2, 1, beta, radius=cfg.r_coset)
    y0 = 1.1
    c = coeff_H0(E, 0, 1, y0, QuadratureSpec(16, 16, 64))
    want = float(beta(np.array([y0]))[0].real) / math.sqrt(2.0)
    checks = [_check(
        "series coefficient at the predicted index equals the scaled "
        "profile", want, float(c.real), abs(c - want) < 1e-6 * abs(want))]
    c0 = coeff_H0(E, 0, 0, y0, QuadratureSpec(16, 16, 64))
    checks.append(_check(
        "series coefficient vanishes at the zero index", 0.0,
        abs(c0), abs(c0) < 1e-8))
    want_norm = beta_norm_sq(beta, 2, 0.7, 1.7)
    n_mc = max(20_000, min(cfg.samples, 200_000))
    est, err = inner_product(E, E, n_samples=n_mc, seed=seed,
                             n_batches=_N_BATCHES)
    checks.append(_check(
        "series norm, Monte Carlo pairing against the profile integral",
        want_norm, float(est.real),
        abs(est - want_norm) <= 3.0 * err, stderr=err))
    return checks


def _truncated_gaussian(radius: float) -> PlaneFunction:
    def fn(z):
        return np.exp(-np.abs(np.asarray(z, complex)) ** 2)
    return PlaneFunction(fn, radius)


def _ring_profile() -> RadialProfile:
    def fn(r):
        s = (np.asarray(r, float) - 1.1) / 0.9
        out = np.zeros_like(s)
        mask = np.abs(s) < 1.0
        out[mask] = np.exp(-1.0 / (1.0 - s[mask] ** 2))
        return out
    return RadialProfile(fn, 2.0)


def run_sv(cfg: RunConfig) -> list[dict]:
    seed = _suite_seed(cfg.seed, "sv")
    f = _truncated_gaussian(cfg.r_lattice)
    mass = float(plane_integral(f).real)
    want = cfg.M ** 2 * mass
    est_c, err = sv_mean_mc(f, cfg.M, n_samples=cfg.samples, seed=seed,
                            n_batches=_N_BATCHES)
    est = float(np.real(est_c))
    checks = [_check(
        f"transform mean over the moduli space equals "
        f"M^2 integral of f (M={cfg.M})",
        want, est, abs(est - want) <= 3.0 * err and err < 0.01 * want,
        stderr=err)]

    rng = np.random.default_rng(seed)
    n_pairs = 100
    xs = rng.uniform(-2.0, 2.0, n_pairs)
    ys = np.exp(rng.uniform(math.log(0.4), math.log(4.0), n_pairs))
    us = rng.uniform(-1.5, 1.5, n_pairs)
    vs = rng.uniform(-1.5, 1.5, n_pairs)
    ring = k_type_function(_ring_profile(), 0)
    base = sv_rel_values(ring, xs, ys, us, vs, cfg.M)
    # rows (a, b, c, d, w1, w2) of S, T and the translation by (1, -1)
    gens = np.array([(0.0, -1.0, 1.0, 0.0, 0.0, 0.0),
                     (1.0, 1.0, 0.0, 1.0, 0.0, 0.0),
                     (1.0, 0.0, 0.0, 1.0, 1.0, -1.0)])
    # word i: gens[1 - i % 2], then three letters drawn point by point
    words = np.array([[1 - i % 2, *rng.integers(0, 3, 3)]
                      for i in range(n_pairs)])
    gamma = reduce(SAffElement.compose, (
        SAffElement(SL2Element(a, b, c, d), (w1, w2))
        for a, b, c, d, w1, w2 in gens[words.T].transpose(0, 2, 1)))
    x2, y2, u2, v2, _ = _act_arrays(gamma, xs, ys, us, vs)
    moved = sv_rel_values(ring, x2, y2, u2, v2, cfg.M)
    resid = float(np.max(np.abs(moved - base)) / np.max(np.abs(base)))
    checks.append(_check(
        "integer-group invariance residual over random pairs", 0.0,
        resid, resid < 1e-9))

    def smooth_gauss(r):
        s = np.asarray(r, float) / cfg.r_lattice
        out = np.zeros_like(s)
        mask = s < 1.0
        out[mask] = (np.exp(-(np.asarray(r, float)[mask] ** 2))
                     * np.exp(1.0 - 1.0 / (1.0 - s[mask] ** 2)))
        return out

    f0 = RadialProfile(smooth_gauss, cfg.r_lattice)
    phi = sv_rel_modular(k_type_function(f0, 0), 1)
    y0 = 3.0
    pred = float(sv_coefficient_prediction(f0, 0, 1, 1, y0).real)
    meas = coeff_H0(phi, 0, 1, y0, cfg.quad_spec())
    checks.append(_check(
        "fibre coefficient matches the Hankel-transform prediction",
        pred, float(meas.real), abs(meas - pred) < 1e-6 * abs(pred)))
    return checks


def run_fourier(cfg: RunConfig) -> list[dict]:
    E = eisenstein(2, 1, beta_bump(0.8, 1.6), radius=cfg.r_coset)
    resid = relation_T_H0_residual(E, 0.3 + 1.1j, 1)
    checks = [_check(
        "torus and Heisenberg coefficient systems agree", 0.0,
        float(resid), resid < 1e-8)]

    g = series_seed(0, 2, 1, BetaProfile(lambda y: 1.0 / (1.0 + y)))
    y0 = 1.3
    c = coeff_H0(g, 2, 1, y0, QuadratureSpec(16, 16, 64))
    want = 1.0 / (1.0 + y0)
    checks.append(_check(
        "coefficient of an explicit oscillating function", want,
        float(c.real), abs(c - want) < 1e-10))

    def rfn(x, y, u, v):
        return (np.cos(2.0 * math.pi * np.asarray(x, float))
                * np.cos(2.0 * math.pi * np.asarray(v, float)
                         / np.asarray(y, float)) / (1.0 + np.asarray(y, float)))
    r = ModularFunction(rfn, weight=0)
    cp = coeff_H0(r, 1, 1, y0, QuadratureSpec(16, 16, 64))
    cm = coeff_H0(r, -1, -1, y0, QuadratureSpec(16, 16, 64))
    dev = abs(cp - np.conj(cm))
    checks.append(_check(
        "conjugate symmetry of real-function coefficients", 0.0,
        float(dev), dev < 1e-12))
    return checks


_RUNNERS = {
    "algebra": run_algebra,
    "operators": run_operators,
    "series": run_series,
    "sv": run_sv,
    "fourier": run_fourier,
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def run_suites(cfg: RunConfig, names: list[str]) -> dict:
    suites = {}
    for name in names:
        checks = _RUNNERS[name](cfg)
        suites[name] = {"checks": checks,
                        "pass": all(c["pass"] for c in checks)}
    return {
        "schema": "report_v1",
        "config": cfg.as_dict(),
        "suites": suites,
        "pass": all(s["pass"] for s in suites.values()),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    lines = ["suite,claim,predicted,measured,stderr,pass"]
    for name in sorted(report["suites"]):
        for c in report["suites"][name]["checks"]:
            claim = c["claim"].replace(",", ";")
            err = c.get("stderr", "")
            lines.append(f"{name},{claim},{c['predicted']},{c['measured']},"
                         f"{err},{c['pass']}")
    return "\n".join(lines) + "\n"


def failing_claims(report: dict) -> list[str]:
    out = []
    for name in report["suites"]:
        for c in report["suites"][name]["checks"]:
            if not c["pass"]:
                out.append(f"{name}: {c['claim']}")
    return out


def spectrum_table(cfg: RunConfig, k: int, n: int, m: int,
                   eps_list: list[float], count: int) -> list[dict]:
    rows = []
    for eps in eps_list:
        vals, deltas = refinement_deltas(k, n, m, eps, count=count,
                                         grid=cfg.mode_grid())
        for j, (lam, d) in enumerate(zip(vals, deltas)):
            rows.append({"k": k, "n": n, "m": m, "eps": eps, "j": j,
                         "lam": float(lam), "refine_delta": float(d)})
    return rows


def spectrum_to_csv(rows: list[dict]) -> str:
    lines = ["k,n,m,eps,j,lam,refine_delta"]
    for r in rows:
        lines.append(f"{r['k']},{r['n']},{r['m']},{r['eps']},{r['j']},"
                     f"{r['lam']!r},{r['refine_delta']!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--r-coset", type=int, dest="r_coset")
    p.add_argument("--r-lattice", type=float, dest="r_lattice")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), dest="fmt")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata", description="verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_config_flags(p_verify)

    p_svv = sub.add_parser(
        "sv-verify", help="transform suite, one JSON object per line")
    _add_config_flags(p_svv)

    p_all = sub.add_parser("all", help="run every verification suite")
    _add_config_flags(p_all)

    p_spec = sub.add_parser("spectrum", help="per-mode eigenvalue table")
    p_spec.add_argument("--k", type=int, default=0)
    p_spec.add_argument("--n", type=int, default=1)
    p_spec.add_argument("--m", type=int, default=1)
    p_spec.add_argument("--eps", default="1,0.1,0.01",
                        help="comma-separated list")
    p_spec.add_argument("--count", type=int, default=10)
    _add_config_flags(p_spec)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration: defaults, then ``--config``, then the flags.

    Raises
    ------
    ValueError
        If the file does not parse, or a value cannot run (``samples``
        below the batch count, ``M`` or ``r_coset`` below 1, ``r_lattice``
        not positive and finite, empty or unknown ``suites``, unusable
        ``grid_*`` or ``quad_*``); the message names the key.
    OSError
        If the file cannot be read.
    """
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read(), cfg)
    overrides = {}
    for name in ("seed", "samples", "M", "r_coset", "r_lattice", "out",
                 "fmt"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    cfg = dataclasses.replace(cfg, **overrides)
    if cfg.samples < _N_BATCHES:
        raise ValueError(f"samples must be at least {_N_BATCHES}, the "
                         f"suites' batch count, got {cfg.samples}")
    if cfg.M < 1:
        raise ValueError(f"M must be at least 1, got {cfg.M}")
    if cfg.r_coset < 1:
        raise ValueError(f"r_coset must be at least 1, got {cfg.r_coset}")
    if not 0.0 < cfg.r_lattice < math.inf:
        raise ValueError(
            f"r_lattice must be positive and finite, got {cfg.r_lattice}")
    cfg.suite_list()   # raises for an empty list or an unknown suite name
    try:
        cfg.mode_grid()
    except ValueError as exc:
        raise ValueError(f"grid_ymin, grid_ymax, grid_n = {cfg.grid_ymin}, "
                         f"{cfg.grid_ymax}, {cfg.grid_n}: {exc}") from None
    try:
        cfg.quad_spec().check_mode(n=0, m=1)
    except ValueError as exc:
        raise ValueError(f"quad_nx, quad_nu, quad_nv = {cfg.quad_nx}, "
                         f"{cfg.quad_nu}, {cfg.quad_nv}: {exc}, which the "
                         "sv suite's coefficient needs") from None
    return cfg


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "spectrum":
        try:
            eps_list = [float(e) for e in args.eps.split(",") if e]
        except ValueError:
            print(f"bad --eps list: {args.eps!r}", file=sys.stderr)
            return 2
        rows = spectrum_table(cfg, args.k, args.n, args.m, eps_list,
                              args.count)
        if cfg.fmt == "csv":
            _emit(spectrum_to_csv(rows), cfg.out)
        else:
            _emit(json.dumps({"schema": "spectrum_v1", "rows": rows},
                             sort_keys=True, indent=2) + "\n", cfg.out)
        return 0

    if args.command == "verify":
        names = [args.suite]
    elif args.command == "sv-verify":
        names = ["sv"]
    else:
        names = cfg.suite_list()

    report = run_suites(cfg, names)
    if args.command == "sv-verify":
        lines = "".join(json.dumps(c, sort_keys=True) + "\n"
                        for c in report["suites"]["sv"]["checks"])
        _emit(lines, cfg.out)
    elif cfg.fmt == "csv":
        _emit(report_to_csv(report), cfg.out)
    else:
        _emit(report_to_json(report), cfg.out)

    if not report["pass"]:
        for line in failing_claims(report):
            print(f"FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

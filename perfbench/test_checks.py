"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py

The right answers are built here from the same closed forms; the wrong
ones are the right ones with a typical slip (a factor of ``M``, a flipped
sign, a leaked coefficient).
"""

import json
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import checks


def _report(mean_scale=1.0, cubic_scale=1.0, rayleigh=0.74, coeff=1 / 2.3,
            rc=0):
    M, r = 2, 2.5
    mean = M * M * math.pi * (1.0 - math.exp(-r * r))
    cubic = [_claim(f"cubic operator eigenvalue on the (n={n}, m={m}) "
                    "character", 4 * math.pi ** 3 * n * m * m,
                    4 * math.pi ** 3 * n * m * m * cubic_scale)
             for n, m in ((1, 1), (2, 1), (1, -3))]
    suites = {
        "algebra": [_claim("degree-three invariant is central", True, True)],
        "operators": cubic + [_claim("radial power profile Rayleigh quotient",
                                     0.74, rayleigh)],
        "series": [_claim("series norm", 1.0, 1.0)],
        "sv": [dict(_claim("transform mean over the moduli space equals "
                           "M^2 integral of f (M=2)", mean, mean * mean_scale),
                    stderr=0.003 * mean)],
        "fourier": [_claim("coefficient of an explicit oscillating function",
                           1 / 2.3, coeff)],
    }
    report = {"config": {"M": M, "r_lattice": r}, "pass": True,
              "suites": {k: {"checks": v, "pass": True}
                         for k, v in suites.items()}}
    return rc, json.dumps(report)


def _claim(claim, predicted, measured):
    return {"claim": claim, "predicted": predicted, "measured": measured,
            "pass": True}


def test_cli_report():
    assert checks.check_cli_report(*_report()) == []
    assert checks.check_cli_report(*_report(mean_scale=2.0))     # off by M
    assert checks.check_cli_report(*_report(cubic_scale=-1.0))
    assert checks.check_cli_report(*_report(rayleigh=0.49))
    assert checks.check_cli_report(*_report(coeff=1 / 1.3))
    assert checks.check_cli_report(*_report(rc=1))


def test_second_moment():
    mass, l2, M = 2.5, 1.3, 2
    want = M ** 4 * mass ** 2 + M * M * l2
    assert checks.check_second_moment("m", (want + 0.01, 0.01), M, mass, l2) == []
    assert checks.check_second_moment("m", (want / M, 0.01), M, mass, l2)


def test_dual_sum():
    rng = np.random.default_rng(0)
    M = 2
    vals = 0.25 / M ** 2 + 0.01 * rng.standard_normal(10_000)
    assert checks.check_dual_sum("d", vals, vals.size, M, 0.25) == []
    assert checks.check_dual_sum("d", vals * M, vals.size, M, 0.25)
    assert checks.check_dual_sum("d", -vals, vals.size, M, 0.25)


def test_hankel_checks():
    s = np.linspace(0.0, 12.0, 40)
    for k in range(3):
        right = checks.gaussian_hankel(k, s)
        assert checks.check_gaussian_hankel("h", k, s, right) == []
        assert checks.check_gaussian_hankel("h", k, s, -right)
    a, S = 2.0, 12.0
    ss, w = checks.panel_nodes(0.0, S, 12, 8)
    for k in range(3):
        right = checks.edge_hankel(k, a, ss)
        assert checks.check_edge_hankel("e", k, a, S, ss, w, right) == []
        assert checks.check_edge_hankel("e", k, a, S, ss, w, -right)
        assert checks.check_edge_hankel("e", k, a, S, ss, w, right * 1.001)
        r = np.array([0.3, 0.9, 1.5])
        assert checks.check_involution("i", k, a, 60.0, r, r ** k) == []
        assert checks.check_involution("i", k, a, 60.0, r, -(r + 0.2) ** k)


def test_edge_tail_matches_direct_integral():
    k, a, S = 1, 2.0, 12.0
    s, w = checks.panel_nodes(S, 400.0, 4000, 8)
    direct = float(np.sum(w * checks.edge_hankel(k, a, s) ** 2 * s))
    # beyond s = 400, J^2 averages 1 / (pi a s)
    far = a ** (2 * k + 2) / (math.pi * a * 400.0)
    assert checks.edge_tail(k, a, S) == pytest.approx(direct + far, rel=1e-3)


def test_coefficient_checks():
    def prof(r):
        return np.exp(-np.asarray(r) ** 2)
    k, M, m, y, R = 0, 2, 1, 3.0, 6.0
    ys = np.array([2.5, 3.0, 4.0])
    right = checks.coefficient_prediction(k, M, m, ys, prof, R)
    assert checks.check_prediction("p", k, M, m, ys, prof, R, right) == []
    assert checks.check_prediction("p", k, M, m, ys, prof, R, right / M)
    table = np.zeros((8, 256), dtype=complex)
    table[0, m * M] = checks.coefficient_prediction(k, M, m, y, prof, R)[0]
    table[0, 4] = 0.01          # an allowed index (a multiple of M)
    assert checks.check_coefficient_table("t", k, M, m, y, prof, R, table) == []
    bad = table.copy()
    bad[0, m * M] *= M
    assert checks.check_coefficient_table("t", k, M, m, y, prof, R, bad)
    leak = table.copy()
    leak[0, 1] = 1e-6          # index 1 is not a multiple of M = 2
    assert checks.check_coefficient_table("t", k, M, m, y, prof, R, leak)


def test_gaussian_hankel_reference():
    s = np.array([0.5, 3.0, 9.0])
    got = checks.hankel_reference(1, lambda r: np.asarray(r) * np.exp(-np.asarray(r) ** 2),
                                  7.0, s)
    assert np.max(np.abs(got - checks.gaussian_hankel(1, s))) < 1e-12


def test_whittaker_references():
    for t, x in ((0.7, 1.3), (1.9, 6.0)):
        want = complex(mp.whitw(0, 1j * t, x))
        got = checks.whittaker_w_imag(t, x)[0]
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    x = np.linspace(0.5, 8.0, 10)
    w = x ** 1.2 * np.exp(-x / 2)
    assert checks.check_whittaker("w", w, w) == []
    assert checks.check_whittaker("w", -w, w)


def test_spectral_checks():
    assert checks.check_refinement("r", (None, np.array([1e-4, 2e-3]))) == []
    assert checks.check_refinement("r", (None, np.array([1e-4, 2e-2])))
    tab = np.array([[3.0, 5.0], [2.0, 4.0], [1.0, 3.5]])
    assert checks.check_sweep("s", [1.0, 0.1, 0.01], tab) == []
    assert checks.check_sweep("s", [1.0, 0.1, 0.01], tab[::-1])


def _gamma(a=1.0, b=0.0, c=0.0, d=1.0, w=(0.0, 0.0)):
    return SimpleNamespace(g=SimpleNamespace(a=a, b=b, c=c, d=d), w=w)


def _pt(x, y, u, v):
    return SimpleNamespace(x=x, y=y, u=u, v=v)


def test_reduction_check():
    pt = _pt(0.1, 1.5, 0.2, 0.3)
    ident = (pt, _gamma())
    assert checks.check_reduction("r", pt, ident, ident) == []
    # T maps x = -0.9 to 0.1: correct result of a non-trivial step
    raw = _pt(-0.9, 1.5, 0.2, 0.3)
    assert checks.check_reduction("r", raw, (pt, _gamma(b=1.0)), ident) == []
    out = _pt(0.7, 1.5, 0.2, 0.3)
    assert checks.check_reduction("r", out, (out, _gamma()), (out, _gamma()))
    assert checks.check_reduction("r", raw, (pt, _gamma(b=1.5)), ident)
    assert checks.check_reduction("r", pt, ident, (pt, _gamma(b=1.0)))


def test_invariance_check():
    base = np.array([1.0, 0.5 + 0.1j, 2.0])
    assert checks.check_invariance("i", base, base.copy()) == []
    assert checks.check_invariance("i", base, base * 1.001)


def test_duality_check():
    weights = np.array([0.5, 0.25])
    vals = np.array([2.0, 4.0], dtype=complex)
    errs = np.array([0.01, 0.01])
    lhs = float(np.sum(weights * vals.real))
    assert checks.check_duality("d", lhs, 0.01, weights, (vals, errs)) == []
    assert checks.check_duality("d", lhs, 0.01, weights, (2 * vals, errs))
    assert checks.check_duality("d", lhs, 0.01, weights, (-vals, errs))


def test_band_pairing_box_covers_support():
    est, err = checks.band_pairing(
        lambda z: np.exp(-np.abs(z) ** 2), 2.5, 2000,
        np.random.default_rng(1))
    assert est > 0.0 and err > 0.0

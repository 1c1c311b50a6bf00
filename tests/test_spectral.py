"""Tests for the per-mode 1D spectral solver."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata.operators import fit_lambda, mode_apply
from strata.spectral import (
    ModeGrid,
    build_mode_operator,
    eigen_solve,
    eigenvalues,
    epsilon_sweep,
    potential,
    rayleigh_quotient,
    refinement_deltas,
    window_count,
)


def test_grid_nodes_log_uniform():
    g = ModeGrid(1e-3, 50.0, 512)
    y = g.nodes()
    assert y.size == 512
    assert abs(y[0] - 1e-3) < 1e-18
    assert abs(y[-1] - 50.0) < 1e-12
    ratios = y[1:] / y[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid(0.0, 50.0)
    with pytest.raises(ValueError):
        ModeGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        ModeGrid(n_points=4)
    with pytest.raises(ValueError):
        ModeGrid(grading=0.0)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_mode_operator(0, 0, 1, 1.0)
    with pytest.raises(ValueError):
        build_mode_operator(0, 1, 0, 1.0)
    for eps in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            build_mode_operator(0, 1, 1, eps)
    op = build_mode_operator(0, 1, 1, 1.0, ModeGrid(n_points=64))
    for solve in (eigen_solve, eigenvalues):
        for count in (0, op.size + 1):
            with pytest.raises(ValueError, match="count"):
                solve(op, count)


_nonzero = st.integers(-3, 3).filter(bool)


@settings(max_examples=12)
@given(k=st.integers(-2, 4), n=_nonzero, m=_nonzero,
       eps=st.sampled_from([0.0, 0.01, 0.3, 1.0, 2.5]),
       count=st.integers(1, 25), refined=st.booleans())
@example(k=2, n=-1, m=-2, eps=0.0, count=6, refined=False)
@example(k=2, n=-1, m=-2, eps=0.0, count=6, refined=True)
def test_eigenvalues_are_eigen_solve_values_owned(k, n, m, eps, count,
                                                   refined):
    """``eigenvalues`` returns an array that owns exactly ``count`` values
    (not a view of LAPACK's work array), bitwise ``eigen_solve``'s, on the
    default grid and on its refinement; the examples pin k = 2 with
    negative n and m at eps = 0."""
    grid = ModeGrid().refined() if refined else ModeGrid()
    op = build_mode_operator(k, n, m, eps, grid)
    vals = eigenvalues(op, count)
    assert vals.base is None and vals.flags.owndata
    assert vals.shape == (count,)
    pairs, _ = eigen_solve(op, count)
    assert np.array_equal(vals.view(np.uint64), pairs.view(np.uint64))


def test_symmetry_in_weighted_inner_product():
    op = build_mode_operator(2, -1, 3, 0.4, ModeGrid(n_points=1024))
    assert op.symmetry_residual(seed=1) < 1e-12
    d, e = op.symmetric_tridiagonal()
    assert np.all(np.isfinite(d)) and np.all(np.isfinite(e))


def test_potential_positive_part():
    y = ModeGrid().nodes()
    confining = (4.0 * math.pi ** 2 * y ** 2
                 + 0.3 * math.pi ** 2 / y)
    assert np.all(confining > 0.0)
    assert np.max(np.abs(potential(0, 1, 1, 0.3, y) - confining)) < 1e-12


def test_bound_state_annihilated():
    # k=2, n=1: the twisted profile y exp(-2 pi y) is an exact zero mode
    lam = fit_lambda(lambda y: np.exp(-2.0 * math.pi * y), 2, 1,
                     np.geomspace(0.05, 5.0, 400))
    assert abs(lam) < 1e-8
    op = build_mode_operator(2, 1, 1, 0.0)
    y = op.nodes
    beta = y * np.exp(-2.0 * math.pi * y)
    resid = op.apply(beta) - lam * beta
    inner = (y > 0.05) & (y < 10.0)
    assert np.max(np.abs(resid[inner])) < 1e-4 * np.max(np.abs(beta))
    # the eigenvalue error is a domain effect: the zero mode's tail decays
    # like sqrt(y), so the Dirichlet wall at y_min costs O(y_min)
    v0, _ = eigen_solve(op, 1)
    assert 0.0 < v0[0] < 0.02
    deep, _ = eigen_solve(
        build_mode_operator(2, 1, 1, 0.0, ModeGrid(1e-6, 50.0, 8192)), 1)
    assert deep[0] < 5e-5


def test_apply_matches_radial_oracle_second_order():
    # strong-form action against the untwisted radial operator plus the
    # eps-term, on a smooth profile; error falls like the grid spacing
    # squared
    k, n, m, eps = 2, 1, 3, 0.7

    def c_prof(y):
        s = np.log(np.asarray(y, float))
        return np.exp(-s * s)

    sups = []
    for N in (4096, 16384):
        op = build_mode_operator(k, n, m, eps, ModeGrid(1e-3, 50.0, N))
        y = op.nodes
        beta = y ** (k / 2) * c_prof(y)
        oracle = (y ** (k / 2) * mode_apply(c_prof, k, n, y)
                  + eps * math.pi ** 2 * m ** 2 / y * beta)
        got = op.apply(beta)
        inner = (y > 0.02) & (y < 20.0)
        sups.append(np.max(np.abs((got - oracle)[inner]))
                    / np.max(np.abs(beta)))
    assert sups[0] < 2e-5
    assert sups[0] / sups[1] > 8.0


def test_eigenvalues_grid_stable():
    for eps in (1.0, 0.01):
        fine, delta = refinement_deltas(0, 1, 1, eps, count=10)
        assert np.max(delta) < 0.005
        wide, _ = eigen_solve(
            build_mode_operator(0, 1, 1, eps, ModeGrid(1e-4, 100.0, 8192)),
            10)
        base, _ = eigen_solve(build_mode_operator(0, 1, 1, eps), 10)
        assert np.max(np.abs(wide - base) / wide) < 0.005
        assert np.all(base > 0.0)
        assert np.all(np.diff(base) > 1e-3)  # simple, separated


def test_eigenvalues_grading_independent():
    base, _ = eigen_solve(build_mode_operator(0, 1, 1, 1.0), 8)
    graded, _ = eigen_solve(
        build_mode_operator(0, 1, 1, 1.0, ModeGrid(grading=1.15)), 8)
    assert np.max(np.abs(graded - base) / base) < 0.005


def test_eigenvector_localization():
    for eps in (1.0, 0.01):
        _, vecs = eigen_solve(build_mode_operator(0, 1, 1, eps), 5)
        edge = max(np.max(np.abs(vecs[:8, :])), np.max(np.abs(vecs[-8:, :])))
        assert edge < 1e-5 * np.max(np.abs(vecs))


def test_eigenvalue_count_grows_with_cutoff():
    vals, _ = eigen_solve(build_mode_operator(0, 1, 1, 0.1), 30)
    c_small = window_count(vals, 0.0, 30.0)
    c_large = window_count(vals, 0.0, 80.0)
    assert 0 < c_small < c_large
    assert c_large < 30  # the request covered the whole range


def test_epsilon_monotonicity_and_window_growth():
    tab = epsilon_sweep(0, 1, 1, [1.0, 0.1, 0.01], count=40)
    # strictly increasing in eps, every index
    assert np.all(tab[0] > tab[1])
    assert np.all(tab[1] > tab[2])
    # fixed windows fill up as eps decreases
    for lo, hi in ((5.0, 40.0), (30.0, 80.0)):
        counts = [window_count(row, lo, hi) for row in tab]
        assert counts[0] < counts[1] < counts[2]
    assert np.all(tab[:, -1] > 80.0)  # windows lie inside the solved range


def test_low_spectrum_descends_toward_band_bottom():
    # the continuum band of the drift-free operator starts at 1/4; with the
    # eps-wall receding the ground state drifts down toward it
    lam = [epsilon_sweep(0, 1, 1, [e], count=1)[0, 0]
           for e in (1e-2, 1e-4)]
    assert lam[1] < lam[0]
    assert 0.25 < lam[1] < 0.8


def test_perturbation_slope():
    op = build_mode_operator(0, 1, 1, 0.1)
    vals, vecs = eigen_solve(op, 4)
    up, _ = eigen_solve(build_mode_operator(0, 1, 1, 0.105), 4)
    dn, _ = eigen_solve(build_mode_operator(0, 1, 1, 0.095), 4)
    slope = (up - dn) / 0.01
    for j in range(4):
        u = vecs[:, j]
        pred = float(np.real(np.vdot(
            u, op.mass * (math.pi ** 2 / op.nodes) * u)))
        assert abs(slope[j] - pred) <= 0.05 * pred


def test_rayleigh_quotient_matches_eigenvalue():
    op = build_mode_operator(0, 1, 1, 0.1)
    vals, vecs = eigen_solve(op, 4)
    for j in range(4):
        rq = rayleigh_quotient(op, vecs[:, j])
        assert abs(rq - vals[j]) <= 1e-8 * max(1.0, abs(vals[j]))
    with pytest.raises(ValueError):
        rayleigh_quotient(op, np.zeros(op.size))


def test_weighted_orthonormal_eigenvectors():
    op = build_mode_operator(0, 1, 1, 1.0)
    _, vecs = eigen_solve(op, 3)
    gram = np.array([[op.weighted_inner(vecs[:, i], vecs[:, j]).real
                      for j in range(3)] for i in range(3)])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_extended_grid_keeps_density():
    g = ModeGrid(1e-3, 50.0, 4096)
    wide = g.extended(y_min=1e-4, y_max=100.0)
    h0 = math.log(g.y_max / g.y_min) / (g.n_points - 1)
    h1 = math.log(wide.y_max / wide.y_min) / (wide.n_points - 1)
    assert abs(h1 - h0) / h0 < 0.01

"""Tests for group arithmetic, charts, actions, lifting, and sampling.

Group products are checked against the faithful 3x3 matrix embedding, the
left action on points against the composition law, and the lift against the
closed-form value it must take on NAK-factored elements.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.saff import (
    _RENORM_EVERY,
    _act_arrays,
    _batch_estimate,
    _ragged,
    _sample_block,
    IwasawaCoords,
    JacobiPoint,
    MasurVeechSample,
    ModularFunction,
    SAffElement,
    SL2Element,
    VOLUME_SL2,
    act_on_jacobi,
    coprime_pairs,
    element_from_iwasawa,
    element_to_point,
    inner_product,
    iwasawa_from_element,
    lift,
    point_to_element,
    reduce_arrays,
    reduce_to_fundamental,
    sample_masur_veech,
    slash,
)


def random_elements(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, w1, w2 = rng.normal(size=3)
        y = math.exp(rng.normal())
        theta = rng.uniform(-math.pi, math.pi)
        out.append(element_from_iwasawa(IwasawaCoords(x, y, w1, w2, theta)))
    return out


# -- group layer ------------------------------------------------------------


def test_compose_matches_matrix_embedding():
    for a, b in zip(random_elements(20, 1), random_elements(20, 2)):
        got = a.compose(b).matrix3()
        want = a.matrix3() @ b.matrix3()
        assert np.allclose(got, want, atol=1e-12)


def test_inverse_and_identity():
    ident = SAffElement.identity()
    for e in random_elements(10, 3):
        g = e.compose(e.inverse())
        assert np.allclose(g.matrix3(), ident.matrix3(), atol=1e-12)
        g = e.inverse().compose(e)
        assert np.allclose(g.matrix3(), ident.matrix3(), atol=1e-12)


def test_affine_action_is_right_action():
    v = (0.37, -1.21)
    for a, b in zip(random_elements(10, 4), random_elements(10, 5)):
        via_product = a.compose(b).apply_to_vector(v)
        stepwise = b.apply_to_vector(a.apply_to_vector(v))
        assert np.allclose(via_product, stepwise, atol=1e-12)


def test_determinant_renormalization_controls_drift():
    rng = np.random.default_rng(6)
    g = SL2Element.identity()
    for _ in range(5000):
        x = rng.normal() * 0.1
        g = g @ SL2Element(math.exp(x), rng.normal() * 0.1, 0.0, math.exp(-x))
    assert abs(g.det() - 1.0) < 1e-10


def test_renormalization_wraps_chain_and_keeps_integer_matrices():
    rng = np.random.default_rng(17)
    n = 2 * _RENORM_EVERY + 9
    # random SL2(R) steps k(theta) a(e^t) n(x): the chain counter wraps
    # before it reaches the threshold and the determinant stays at one; an
    # element of array entries takes the same steps with the same bits
    g = SL2Element.identity()
    pair = SL2Element(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
    for _ in range(n):
        theta, t, x = (rng.uniform(0.0, 2.0 * math.pi),
                       rng.uniform(-0.1, 0.1), rng.normal() * 0.1)
        c, s, e = math.cos(theta), math.sin(theta), math.exp(t)
        step = (c * e, c * e * x - s / e, s * e, s * e * x + c / e)
        g = g @ SL2Element(*step)
        pair = pair @ SL2Element(*(np.full(2, v) for v in step))
        assert 0 <= g.chain < _RENORM_EVERY
        assert abs(g.det() - 1.0) <= 1e-12
        assert all(np.array_equal(getattr(pair, name),
                                  np.full(2, getattr(g, name)))
                   for name in "abcd")
    # integer words: the rescale by det^(-1/2) = 1 changes no bit, which
    # the reduction to the fundamental domain relies on
    gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1))]
    exact = ((1, 0), (0, 1))
    g = SL2Element.identity()
    wrapped = 0
    for _ in range(n):
        # entries stay below 1000, so every float product is exact
        while True:
            letter = gens[rng.integers(3)]
            step = tuple(tuple(sum(exact[i][k] * letter[k][j] for k in (0, 1))
                               for j in (0, 1)) for i in (0, 1))
            if max(abs(v) for row in step for v in row) <= 1000:
                break
        exact = step
        before = g.chain
        g = g @ SL2Element(*(float(v) for row in letter for v in row))
        wrapped += g.chain < before
        entries = np.array([g.a, g.b, g.c, g.d])
        assert entries.tolist() == [v for row in exact for v in row]
        again = g.renormalized()
        assert np.array_equal(
            np.array([again.a, again.b, again.c, again.d]).view(np.uint64),
            entries.view(np.uint64))
    assert wrapped == 2


# -- charts -----------------------------------------------------------------


def test_iwasawa_round_trip():
    for e in random_elements(25, 7):
        c = iwasawa_from_element(e)
        back = element_from_iwasawa(c)
        assert np.allclose(back.matrix3(), e.matrix3(), atol=1e-10)
        assert c.y > 0


def test_point_chart_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(25):
        pt = JacobiPoint(rng.normal(), math.exp(rng.normal()),
                         rng.normal(), rng.normal())
        theta = rng.uniform(-math.pi, math.pi)
        e = point_to_element(pt, theta)
        pt2, theta2 = element_to_point(e)
        assert np.allclose([pt2.x, pt2.y, pt2.u, pt2.v],
                           [pt.x, pt.y, pt.u, pt.v], atol=1e-10)
        assert abs(theta2 - theta) < 1e-10


_CHART_FIELDS = ("x", "y", "w1", "w2", "theta")


def _entries(e):
    return np.array([e.g.a, e.g.b, e.g.c, e.g.d, *e.w])


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
def test_iwasawa_on_array_valued_element_matches_scalar_bits(seed, n):
    """The chart of an array-valued element is, entry by entry, the bits
    of the chart of each scalar element (signed zeros in ``c`` and ``d``
    among the draws)."""
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(6, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (6, n))
    entries[2:4][rng.random((2, n)) < 0.1] = 0.0
    entries[2:4] *= np.where(rng.random((2, n)) < 0.5, -1.0, 1.0)
    entries[3][entries[2] == 0.0] += 1.0   # keep c^2 + d^2 > 0
    got = iwasawa_from_element(
        SAffElement(SL2Element(*entries[:4]), tuple(entries[4:])))
    for i in range(n):
        a, b, c, d, w1, w2 = map(float, entries[:, i])
        one = iwasawa_from_element(SAffElement(SL2Element(a, b, c, d),
                                               (w1, w2)))
        assert np.array_equal(
            _bits(*(getattr(got, f)[i] for f in _CHART_FIELDS)),
            _bits(*(getattr(one, f) for f in _CHART_FIELDS)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200))
def test_chart_round_trips_on_arrays(seed, n):
    """``element_from_iwasawa`` after ``iwasawa_from_element`` gives an
    array-valued element back, for heights from 1e-3 to 1e6; the chart
    keeps ``y`` and ``theta`` of the coordinates it was built from."""
    rng = np.random.default_rng(seed)
    coords = IwasawaCoords(rng.normal(0.0, 3.0, n),
                           10.0 ** rng.uniform(-3.0, 6.0, n),
                           rng.normal(0.0, 3.0, n), rng.normal(0.0, 3.0, n),
                           rng.uniform(-math.pi, math.pi, n))
    e = element_from_iwasawa(coords)
    chart = iwasawa_from_element(e)
    back = element_from_iwasawa(chart)
    scale = np.abs(_entries(e)).max(axis=0)
    assert np.all(np.abs(_entries(back) - _entries(e)) <= 1e-14 * scale)
    assert np.allclose(chart.y, coords.y, rtol=1e-14, atol=0.0)
    assert np.allclose(chart.theta, coords.theta, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name, bad, match", [
    ("y", -1.0, "y must be positive"),
    ("y", 0.0, "y must be positive"),
    ("y", math.nan, "y must be finite"),
    ("x", math.nan, "x must be finite"),
    ("w2", math.inf, "w2 must be finite"),
    ("theta", -math.inf, "theta must be finite"),
])
def test_chart_rejects_bad_coordinates(name, bad, match):
    """``element_from_iwasawa`` and ``point_to_element`` name the bad
    coordinate, for scalars and for one bad entry of an array."""
    good = {"x": 0.3, "y": 1.2, "w1": 0.1, "w2": -0.2, "theta": 0.4}
    for array in (False, True):
        coords = {k: np.array([v, 0.5 * v]) if array else v
                  for k, v in good.items()}
        coords[name] = np.array([good[name], bad]) if array else bad
        with pytest.raises(ValueError, match=match):
            element_from_iwasawa(IwasawaCoords(**coords))
        if name in ("x", "y", "theta"):
            pt = JacobiPoint(coords["x"], coords["y"], 0.4, 0.7)
            with pytest.raises(ValueError, match=match):
                point_to_element(pt, coords["theta"])


def test_pq_coordinates_invert():
    pt = JacobiPoint(0.3, 2.0, u=-0.7, v=1.1)
    back = JacobiPoint.from_pq(pt.x, pt.y, pt.p, pt.q)
    assert np.allclose([back.u, back.v], [pt.u, pt.v], atol=1e-14)
    # z = p tau + q by construction
    assert abs(pt.p * pt.tau + pt.q - pt.z) < 1e-14


# -- actions ----------------------------------------------------------------


def test_left_action_composition_law():
    pt = JacobiPoint(0.21, 1.7, 0.4, -0.9)
    for a, b in zip(random_elements(15, 9), random_elements(15, 10)):
        lhs = act_on_jacobi(a.compose(b), pt)
        rhs = act_on_jacobi(a, act_on_jacobi(b, pt))
        assert np.allclose([lhs.x, lhs.y, lhs.u, lhs.v],
                           [rhs.x, rhs.y, rhs.u, rhs.v], atol=1e-10)


@st.composite
def _saff_elements(draw):
    """An element of ``SL2(R) ⋉ R²``: real entries with ``|a|`` in
    ``[0.2, 5]``, ``b, c`` in ``[-3, 3]`` and ``d = (1 + b c) / a``, and a
    translation in ``[-3, 3]²``."""
    a = draw(st.floats(0.2, 5.0)) * draw(st.sampled_from([-1.0, 1.0]))
    b, c, w1, w2 = (draw(st.floats(-3.0, 3.0)) for _ in range(4))
    return SAffElement(SL2Element(a, b, c, (1.0 + b * c) / a), (w1, w2))


@settings(max_examples=200)
@given(a=_saff_elements(), b=_saff_elements(), x=st.floats(-3.0, 3.0),
       log_y=st.floats(-2.0, 2.0), u=st.floats(-3.0, 3.0),
       v=st.floats(-3.0, 3.0))
def test_slash_is_right_action(a, b, x, log_y, u, v):
    phi = ModularFunction(
        lambda x, y, u, v: np.exp(2j * math.pi * (x + v / y)) * y ** 1.3,
        weight=3)
    pt = JacobiPoint(x, 10.0 ** log_y, u, v)
    lhs = slash(slash(phi, a), b).at(pt)
    rhs = slash(phi, a.compose(b)).at(pt)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_lift_closed_form_on_nak_elements():
    """On n(b, w) a(sqrt(y)) k(theta) the lift of a seed function is explicit.

    For phi(tau, z) = alpha(sqrt(y)) e(n x + m v / y) of weight k the lift is
    exp(i k theta) y^(k/2) alpha(sqrt(y)) e(n b + m w1).
    """
    kw, n, m = 3, 2, -1
    alpha = lambda a: np.exp(-((np.log(a)) ** 2))
    phi = ModularFunction(
        lambda x, y, u, v: alpha(np.sqrt(y))
        * np.exp(2j * math.pi * (n * x + m * v / y)),
        weight=kw)
    lifted = lift(phi)
    rng = np.random.default_rng(13)
    for _ in range(20):
        b, w1, w2 = rng.normal(size=3)
        y = math.exp(rng.normal())
        theta = rng.uniform(-math.pi, math.pi)
        e = element_from_iwasawa(IwasawaCoords(b, y, w1, w2, theta))
        want = (np.exp(1j * kw * theta) * y ** (kw / 2.0)
                * alpha(math.sqrt(y)) * np.exp(2j * math.pi * (n * b + m * w1)))
        assert abs(lifted(e) - want) < 1e-10 * max(1.0, abs(want))


def test_lift_right_rotation_k_type():
    """Right rotation multiplies the lift by exp(i k theta)."""
    kw = 2
    phi = ModularFunction(
        lambda x, y, u, v: (u + 1j * v + 0.3) * y ** 2, weight=kw)
    lifted = lift(phi)
    e = random_elements(1, 14)[0]
    base = lifted(e)
    for theta in (0.3, -1.1, 2.0):
        ct, st = math.cos(theta), math.sin(theta)
        rot = SAffElement.from_sl2(SL2Element(ct, st, -st, ct))
        val = lifted(e.compose(rot))
        assert abs(val - np.exp(1j * kw * theta) * base) < 1e-10


def test_lift_intertwines_slash_and_translation():
    """lift(phi |_k a)(e) == lift(phi)(a e)."""
    kw = 2
    phi = ModularFunction(
        lambda x, y, u, v: np.exp(2j * math.pi * (x + v / y)) * np.exp(-y),
        weight=kw)
    for a, e in zip(random_elements(10, 15), random_elements(10, 16)):
        lhs = lift(slash(phi, a))(e)
        rhs = lift(phi)(a.compose(e))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def _stacked(els, shape):
    """The scalar elements ``els`` as one array-valued element of ``shape``."""
    a, b, c, d, w1, w2 = (np.reshape(t, shape) for t in zip(
        *((e.g.a, e.g.b, e.g.c, e.g.d, *e.w) for e in els)))
    return SAffElement(SL2Element(a, b, c, d), (w1, w2))


def test_lift_on_array_valued_element_matches_scalar_bits():
    els = random_elements(8, 17)
    batch = _stacked(els, (2, 4))
    for k in (-1, 0, 1, 2, 3, 4):
        phi = ModularFunction(
            lambda x, y, u, v: (x + 1j * y) * np.exp(2j * math.pi * v / y),
            weight=k)
        got = lift(phi)(batch)
        want = np.array([lift(phi)(e) for e in els])
        assert got.shape == (2, 4)
        assert np.array_equal(got.reshape(-1).view(np.uint64),
                              want.view(np.uint64))


_S_ELT = SAffElement.from_sl2(SL2Element(0.0, -1.0, 1.0, 0.0))
_T_ELT = SAffElement.from_sl2(SL2Element(1.0, 1.0, 0.0, 1.0))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(1, 8))
def test_array_valued_compose_and_act_match_scalar_bits(seed, length):
    """Composing words as one array-valued element and acting once gives,
    per point, the bits of the scalar composition and action."""
    n = 12
    rng = np.random.default_rng(seed)
    letters = [_S_ELT, _T_ELT, _T_ELT.inverse(),
               SAffElement.translation(1.0, -2.0),
               *random_elements(3, seed)]
    words = rng.integers(0, len(letters), (n, length))
    pts = (rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-3.0, 3.0, n)),
           rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n))
    gamma = _stacked([letters[j] for j in words[:, 0]], n)
    for col in words.T[1:]:
        gamma = gamma.compose(_stacked([letters[j] for j in col], n))
    got = np.array(_act_arrays(gamma, *pts)[:4]).T
    want = []
    for word, pt in zip(words, zip(*pts)):
        g = letters[word[0]]
        for j in word[1:]:
            g = g.compose(letters[j])
        img = act_on_jacobi(g, JacobiPoint(*pt))
        want.append((img.x, img.y, img.u, img.v))
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


# -- fundamental domain -----------------------------------------------------


def test_reduction_lands_in_fundamental_domain():
    rng = np.random.default_rng(18)
    for _ in range(200):
        pt = JacobiPoint(rng.normal() * 5, math.exp(rng.normal() * 2),
                         rng.normal() * 3, rng.normal() * 3)
        red, gamma = reduce_to_fundamental(pt)
        assert -0.5 <= red.x <= 0.5
        assert red.x * red.x + red.y * red.y >= 1.0 - 1e-12
        assert 0.0 <= red.p < 1.0
        assert 0.0 <= red.q < 1.0
        # gamma is integral and implements the reduction
        m = gamma.matrix3()
        assert np.allclose(m, np.round(m), atol=1e-9)
        img = act_on_jacobi(gamma, pt)
        assert np.allclose([img.x, img.y, img.u, img.v],
                           [red.x, red.y, red.u, red.v], atol=1e-9)


@settings(max_examples=300)
@given(x=st.floats(-50.0, 50.0), log_y=st.floats(-3.0, 6.0),
       u=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0))
def test_reduction_on_generated_points(x, log_y, u, v):
    """Generated points reach the domain with an integral ``gamma`` of
    determinant one, a reduced point reduces to itself with the identity,
    and ``gamma`` maps the point onto the reduced one.  The last match is
    relative: ``gamma`` grows like ``1/y`` (entries near 2e5 at
    ``y = 1e-3``), and uniform draws showed an absolute error of 2e-9 and
    a relative one of 4.3e-10."""
    pt = JacobiPoint(x, 10.0 ** log_y, u, v)
    red, gamma = reduce_to_fundamental(pt)
    assert -0.5 <= red.x <= 0.5
    assert red.x * red.x + red.y * red.y >= 1.0 - 1e-12
    assert 0.0 <= red.p < 1.0 and 0.0 <= red.q < 1.0
    m, g = gamma.matrix3(), gamma.g
    assert np.array_equal(m, np.round(m))
    assert g.a * g.d - g.b * g.c == 1.0
    again, gamma2 = reduce_to_fundamental(red)
    assert again == red
    assert np.array_equal(gamma2.matrix3(), np.eye(3))
    img = act_on_jacobi(gamma, pt)
    got = np.array([img.x, img.y, img.u, img.v])
    want = np.array([red.x, red.y, red.u, red.v])
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_reduction_settles_torus_ties():
    # v a hair above 0: q reads -5e-74, and shifted up it reads 1.0
    red, _ = reduce_to_fundamental(JacobiPoint(1.5, 1.0, 0.0, 2e-73))
    assert (red.p, red.q) == (2e-73, 0.0)
    assert reduce_to_fundamental(red)[0] == red
    # x a hair above 0 on the arc: the flip leaves v = 1.0, so p reads 1.0
    red, _ = reduce_to_fundamental(JacobiPoint(1e-19, 1.0, 1e-19, 1e-19))
    assert 0.0 <= red.p < 1.0 and 0.0 <= red.q < 1.0


def test_reduction_fixes_interior_points():
    pt = JacobiPoint(0.13, 1.4, 0.25, 0.5)
    red, gamma = reduce_to_fundamental(pt)
    assert np.allclose([red.x, red.y, red.u, red.v],
                       [pt.x, pt.y, pt.u, pt.v], atol=1e-12)
    assert np.allclose(gamma.matrix3(), np.eye(3), atol=1e-12)


def test_reduction_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_to_fundamental(JacobiPoint(0.0, -1.0))
    with pytest.raises(ValueError, match="coordinate x"):
        reduce_to_fundamental(JacobiPoint(math.nan, 1.0))
    with pytest.raises(ValueError, match="coordinate v"):
        reduce_to_fundamental(JacobiPoint(0.1, 1.0, 0.0, math.inf))


def _bits(*values):
    return np.array(values, dtype=float).view(np.uint64)


@st.composite
def _hard_points(draw):
    """A point ``(x, y, u, v)`` where the reduction rules bite: generic,
    on a tie ``x = n +- 1/2``, on a translate of the arc ``|tau| = 1``, or
    with torus coordinates within rounding of an integer."""
    kind = draw(st.sampled_from(["generic", "tie", "arc", "torus"]))
    x = draw(st.floats(-1e3, 1e3))
    y = 10.0 ** draw(st.floats(-3.0, 6.0))
    p, q = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    if kind == "tie":
        x = draw(st.integers(-5, 5)) + draw(st.sampled_from([-0.5, 0.5]))
    elif kind == "arc":
        theta = draw(st.floats(0.01, math.pi - 0.01))
        x = draw(st.integers(-3, 3)) + math.cos(theta)
        y = math.sin(theta)
    elif kind == "torus":
        tiny = st.sampled_from([0.0, 5e-324, -5e-324, 1e-17, -1e-17, 2e-73])
        p = draw(st.integers(-4, 4)) + draw(tiny)
        q = draw(st.integers(-4, 4)) + draw(tiny)
    return x, y, q + p * x, p * y


@settings(max_examples=150)
@given(pts=st.lists(_hard_points(), min_size=1, max_size=20))
def test_reduce_arrays_matches_scalar_bitwise(pts):
    """``reduce_arrays`` reduces every point of an array bitwise as
    ``reduce_to_fundamental`` reduces it alone, ``gamma`` included."""
    pts += [(1.5, 1.0, 0.0, 2e-73), (1e-19, 1.0, 1e-19, 1e-19)]
    red, gamma = reduce_arrays(*np.array(pts).T)
    for i, pt in enumerate(pts):
        want, g = reduce_to_fundamental(JacobiPoint(*pt))
        assert np.array_equal(_bits(*(r[i] for r in red)),
                              _bits(want.x, want.y, want.u, want.v))
        assert np.array_equal(
            _bits(*(e[i] for e in gamma)),
            _bits(g.g.a, g.g.b, g.g.c, g.g.d, g.w[0], g.w[1]))


def test_reduce_arrays_broadcasts():
    (x, y, u, v), gamma = reduce_arrays([[0.3], [2.7]], [1.5, 0.2, 3.0],
                                        0.25, 1.25)
    assert x.shape == y.shape == u.shape == v.shape == (2, 3)
    assert all(e.shape == (2, 3) for e in gamma)
    red, _ = reduce_to_fundamental(JacobiPoint(2.7, 0.2, 0.25, 1.25))
    assert (x[1, 1], y[1, 1], u[1, 1], v[1, 1]) == (red.x, red.y, red.u, red.v)


@pytest.mark.parametrize("bad", [(0.0, -1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
                                 (math.nan, 1.0, 0.0, 0.0),
                                 (0.0, math.nan, 0.0, 0.0),
                                 (0.3, 1.0, -math.inf, 0.0),
                                 (0.1, 1.0, 0.0, math.inf)])
def test_reduce_arrays_rejects_bad_input_as_scalar(bad):
    """An invalid point, alone or among valid ones, raises the
    ``ValueError`` that ``reduce_to_fundamental`` raises for it."""
    with pytest.raises(ValueError) as want:
        reduce_to_fundamental(JacobiPoint(*bad))
    good = (0.2, 1.3, 0.4, 0.6)
    for batch in ([bad], [good, bad, good]):
        with pytest.raises(ValueError) as got:
            reduce_arrays(*np.array(batch).T)
        assert str(got.value) == str(want.value)


def test_batch_means_reject_unformable_batches():
    """Batch means raise on one batch (no spread) and on fewer samples
    than batches, instead of returning NaN."""
    vals = np.arange(12.0)

    def batch_means(n_batches):
        return _batch_estimate(lambda lo, hi: vals[lo:hi], vals.size,
                               n_batches)

    with pytest.raises(ValueError, match="n_batches >= 2"):
        batch_means(1)
    with pytest.raises(ValueError, match="n_batches >= 2"):
        batch_means(0)
    with pytest.raises(ValueError, match="12 samples cannot fill 13"):
        batch_means(13)
    est, err = batch_means(12)   # one sample per batch
    assert est == np.mean(vals) and np.isfinite(err)
    one = ModularFunction(lambda x, y, u, v: x + 0j, weight=0)
    with pytest.raises(ValueError, match="n_batches >= 2"):
        inner_product(one, one, n_samples=100, n_batches=1)


def test_coprime_pairs_lexicographic():
    c, d = coprime_pairs(2, 5)
    want = [(cc, dd) for cc in range(-2, 3) for dd in range(-5, 6)
            if math.gcd(cc, dd) == 1]
    assert list(zip(c.tolist(), d.tolist())) == want


# -- sampling ---------------------------------------------------------------


def test_sampler_reproducible_and_in_domain():
    s1 = sample_masur_veech(1000, seed=42)
    s2 = sample_masur_veech(1000, seed=42)
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    assert np.all(np.abs(s1.x) <= 0.5)
    assert np.all(s1.y >= np.sqrt(1 - s1.x ** 2) - 1e-12)
    assert np.all(s1.y <= s1.y_max)
    assert np.all((s1.p >= 0) & (s1.p < 1) & (s1.q >= 0) & (s1.q < 1))
    assert abs(s1.tail_mass - (3 / math.pi) / 1e3) < 1e-15


def _sequential_draw(n, seed, y_max):
    """Reference sampler: the four uniform streams drawn one after the
    other from one generator, each in full."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    ux = rng.random(n)
    x = np.sin(math.pi * (ux - 0.5) / 3.0)
    y_min = np.sqrt(1.0 - x * x)
    uy = rng.random(n)
    y = y_min / (1.0 - uy * (1.0 - y_min / y_max))
    return x, y, rng.random(n), rng.random(n)


def _sample_bits(sample):
    return [np.asarray(getattr(sample, c)).view(np.uint64) for c in "xypq"]


@pytest.mark.parametrize("n, seed, y_max", [(1, 0, 1e3), (1000, 42, 1e3),
                                            (40_037, 7, 1e6)])
def test_sampler_matches_sequential_draw(n, seed, y_max):
    want = _sequential_draw(n, seed, y_max)
    got = _sample_bits(sample_masur_veech(n, seed, y_max))
    for g, w in zip(got, want):
        assert np.array_equal(g, w.view(np.uint64))


@given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 63 - 1),
       y_max=st.floats(1.5, 1e8), data=st.data())
def test_block_draw_is_slice_of_full_draw(n, seed, y_max, data):
    """A block drawn alone is bitwise its slice of the full draw."""
    lo = data.draw(st.integers(0, n - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, n), label="hi")
    block = _sample_block(n, seed, y_max, lo, hi)
    assert len(block) == hi - lo
    assert (block.seed, block.y_max) == (seed, y_max)
    full = _sample_bits(sample_masur_veech(n, seed, y_max))
    for b, f in zip(_sample_bits(block), full):
        assert np.array_equal(b, f[lo:hi])


def test_sampler_matches_known_integrals():
    """E[1/y] = (3/pi) * integral of y^-3 dx dy over the domain = 3/(2 pi) * ...

    Two moments with closed forms under the normalized law (y_max -> inf):
    E[1/y] and E[x^2].  Checked to a few standard errors.
    """
    s = sample_masur_veech(400_000, seed=99, y_max=1e6)
    # E[1/y]: (3/pi) * int_{-1/2}^{1/2} int_{ymin}^{inf} y^-3 dy dx
    #       = (3/pi) * int (1/2) (1-x^2)^-1 dx = (3/pi) * (1/2) * 2 atanh(1/2)
    want_inv_y = (3 / math.pi) * math.atanh(0.5)
    got = float(np.mean(1.0 / s.y))
    err = float(np.std(1.0 / s.y) / math.sqrt(len(s)))
    assert abs(got - want_inv_y) < 4 * err
    # E[x^2] = (3/pi) int x^2 (1-x^2)^(-1/2) dx on (-1/2, 1/2)
    #        = (3/pi) * (pi/6 - sqrt(3)/4) = 1/2 - 3 sqrt(3) / (4 pi)
    want_x2 = (3 / math.pi) * (math.pi / 6 - math.sqrt(3) / 4)
    got2 = float(np.mean(s.x ** 2))
    err2 = float(np.std(s.x ** 2) / math.sqrt(len(s)))
    assert abs(got2 - want_x2) < 4 * err2


def test_inner_product_of_known_function():
    """<1, 1> at weight 0 equals the total mass pi/3; a self-pairing
    evaluates the function once, a pairing of two objects twice."""
    calls = []

    def fn(x, y, u, v):
        calls.append(len(x))
        return np.ones(np.broadcast(x, y).shape, dtype=complex)

    one = ModularFunction(fn, weight=0)
    val, err = inner_product(one, one, n_samples=10_000, seed=1)
    assert calls == [10_000]
    assert err < 1e-12
    assert abs(val - VOLUME_SL2) < 1e-10
    other = ModularFunction(fn, weight=0)
    assert inner_product(one, other, n_samples=10_000, seed=1) == (val, err)
    assert calls == [10_000] * 3


def test_inner_product_splits_an_oversized_batch(monkeypatch):
    """Two batches of 2^19 samples each exceed the 2^16-value block: the
    driver fills each batch in near-equal calls of at most a block, so the
    peak is one batch of values plus one call's temporaries (13.7 MiB
    measured; evaluating a batch whole peaked at 40.7 MiB), and the
    estimate is bitwise the one of whole-batch calls."""
    def fn(x, y, u, v):
        return np.exp(2j * math.pi * (x + v / y)) / (1.0 + y)

    wave = ModularFunction(fn, weight=0)
    kw = dict(n_samples=1 << 20, seed=3, n_batches=2)
    tracemalloc.start()
    try:
        est, err = inner_product(wave, wave, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    monkeypatch.setattr("strata.saff._SAMPLE_BLOCK", 1 << 20)
    want = inner_product(wave, wave, **kw)
    got = np.array([est.real, est.imag, err])
    want = np.array([want[0].real, want[0].imag, want[1]])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_inner_product_weight_mismatch():
    f0 = ModularFunction(lambda x, y, u, v: x + 0j, weight=0)
    f1 = ModularFunction(lambda x, y, u, v: x + 0j, weight=1)
    with pytest.raises(ValueError):
        inner_product(f0, f1)


def test_ragged_matches_gather_formula():
    """The ragged expansion is the gather ``lo[owner] + (position -
    start[owner])`` of the intervals, empty ones (``hi < lo``) included."""
    rng = np.random.default_rng(19)
    for size in (0, 1, 7, 500):
        lo = rng.integers(-50, 50, size)
        hi = lo + rng.integers(-3, 6, size)   # about a third empty
        count = np.maximum(hi - lo + 1, 0)
        owner = np.repeat(np.arange(size), count)
        starts = np.cumsum(count) - count
        want = lo[owner] + (np.arange(owner.size) - starts[owner])
        got_owner, got = _ragged(lo, count)
        assert np.array_equal(got_owner, owner)
        assert got.dtype == want.dtype and np.array_equal(got, want)

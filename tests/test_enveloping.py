"""Exact tests for the enveloping-algebra layer.

Everything here is integer/rational arithmetic; there are no tolerances.
The structure-constant table is cross-checked against commutators of the
faithful 3x3 matrices, and the differential-operator representation is
cross-checked against the bracket relations it must intertwine.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.enveloping import (
    DiffOp,
    Element,
    GENERATORS,
    GaussianRational,
    bracket,
    casimir_saff,
    casimir_sl2,
    euclidean_fol_identity_op,
    euclidean_rep,
    generator,
    is_central,
    pbw_normalize,
    symmetrize,
)

from oracles import bracket_in_basis

GQ = GaussianRational

# small Gaussian rationals, nonzero or not
_coeffs = st.builds(
    lambda a, b, c, d: GQ(Fraction(a, b), Fraction(c, d)),
    st.integers(-3, 3), st.integers(1, 3),
    st.integers(-3, 3), st.integers(1, 3))

# sums of up to three PBW words of length <= 2
_elements = st.dictionaries(
    st.lists(st.integers(0, 4), max_size=2).map(lambda w: tuple(sorted(w))),
    _coeffs, max_size=3).map(Element)

# operators w1^e1 w2^e2 D1^d1 D2^d2 with exponents and orders <= 2
_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
_diffops = st.dictionaries(st.tuples(_pairs, _pairs), _coeffs,
                           max_size=3).map(DiffOp)


# -- scalar layer -----------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = GQ(Fraction(3, 4), Fraction(-1, 2))
    b = GQ(Fraction(1, 3), 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.conjugate() == GQ(Fraction(9, 16) + Fraction(1, 4))
    assert complex(GQ(1, 2)) == 1 + 2j
    with pytest.raises(TypeError):
        GQ(1) + 0.5  # inexact floats must be rejected


# -- structure constants ----------------------------------------------------

EXPECTED_BRACKETS = {
    ("Z", "Xp"): {"Xp": GQ(2)},
    ("Z", "Xm"): {"Xm": GQ(-2)},
    ("Z", "Yp"): {"Yp": GQ(1)},
    ("Z", "Ym"): {"Ym": GQ(-1)},
    ("Xp", "Xm"): {"Z": GQ(1)},
    ("Xp", "Yp"): {},
    ("Xp", "Ym"): {"Yp": GQ(-1)},
    ("Xm", "Yp"): {"Ym": GQ(-1)},
    ("Xm", "Ym"): {},
    ("Yp", "Ym"): {},
}


def test_bracket_table_matches_matrix_oracle():
    """Every structure constant agrees with the 3x3 matrix commutator."""
    for (na, nb), expected in EXPECTED_BRACKETS.items():
        assert bracket_in_basis(na, nb) == expected, (na, nb)


def test_algebra_brackets_match_table():
    for (na, nb), expected in EXPECTED_BRACKETS.items():
        got = bracket(generator(na), generator(nb))
        want = Element.zero()
        for name, coeff in expected.items():
            want = want + generator(name).scale(coeff)
        assert got == want, (na, nb)


def test_jacobi_identity_all_triples():
    gens = [generator(n) for n in GENERATORS]
    for a in gens:
        for b in gens:
            for c in gens:
                total = (
                    bracket(a, bracket(b, c))
                    + bracket(b, bracket(c, a))
                    + bracket(c, bracket(a, b))
                )
                assert total.is_zero()


# -- PBW straightening ------------------------------------------------------


def test_pbw_normalize_reorders_with_correction():
    # Xm * Xp = Xp * Xm - [Xp, Xm] = Xp*Xm - Z.
    got = pbw_normalize({(2, 1): GQ(1)})
    want = Element({(1, 2): GQ(1), (0,): GQ(-1)})
    assert got == want


def test_pbw_associativity_spot_checks():
    """(a*b)*c == a*(b*c) for a deterministic set of short words."""
    words = [(4, 0), (3, 1), (2, 0, 1), (4, 3), (1,), (2, 2)]
    elems = [pbw_normalize({w: GQ(1)}) for w in words]
    for a in elems:
        for b in elems:
            for c in elems:
                assert ((a * b) * c) == (a * (b * c))


@settings(max_examples=30)
@given(a=_elements, b=_elements, c=_elements)
def test_product_associative_on_generated_elements(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_straightening_is_order_independent():
    # Normalizing a fully reversed degree-4 word must agree with stepwise
    # products of generators taken left to right.
    word = (4, 3, 2, 0)
    direct = pbw_normalize({word: GQ(1)})
    step = Element.one()
    for idx in word:
        step = step * Element({(idx,): GQ(1)})
    assert direct == step


# -- Casimir elements -------------------------------------------------------


def test_casimir_sl2_pbw_form():
    c = casimir_sl2()
    assert c.terms == {
        (0, 0): GQ(Fraction(1, 8)),
        (0,): GQ(Fraction(-1, 4)),
        (1, 2): GQ(Fraction(1, 2)),
    }


def test_casimir_saff_has_three_ordered_monomials():
    cp = casimir_saff()
    assert set(cp.terms) == {(0, 3, 4), (1, 4, 4), (2, 3, 3)}
    assert cp.terms[(0, 3, 4)] == GQ(1)
    assert cp.terms[(1, 4, 4)] == GQ(-1)
    assert cp.terms[(2, 3, 3)] == GQ(1)


def test_casimir_sl2_central_for_sl2_only():
    c = casimir_sl2()
    for name in ("Z", "Xp", "Xm"):
        assert bracket(generator(name), c).is_zero()
    assert not bracket(generator("Yp"), c).is_zero()
    assert not is_central(c)


def test_casimir_saff_central_and_powers():
    cp = casimir_saff()
    assert is_central(cp)
    assert is_central(cp * cp)
    assert is_central(cp * cp * cp)


def test_symmetrized_leading_term_is_six_casimir():
    lead = casimir_saff()  # degree-3 part == the whole element here
    assert symmetrize(lead) == lead.scale(GQ(6))


# -- Euclidean representation ----------------------------------------------


def test_rep_intertwines_brackets():
    """rep([a,b]) == rep(a) rep(b) - rep(b) rep(a) for all generator pairs."""
    for na in GENERATORS:
        for nb in GENERATORS:
            lhs = euclidean_rep(bracket(generator(na), generator(nb)))
            ra, rb = euclidean_rep(generator(na)), euclidean_rep(generator(nb))
            rhs = ra * rb - rb * ra
            assert lhs == rhs, (na, nb)


def test_rep_well_defined_on_products():
    """rep(x*y) == rep(x) o rep(y) for a few straightened elements."""
    xs = [
        pbw_normalize({(2, 1): GQ(1)}),
        casimir_sl2(),
        generator("Yp") * generator("Xm"),
    ]
    ys = [generator("Ym"), casimir_saff(), pbw_normalize({(3, 0): GQ(1)})]
    for x in xs:
        for y in ys:
            assert euclidean_rep(x * y) == euclidean_rep(x) * euclidean_rep(y)


@settings(max_examples=30)
@given(a=_elements, b=_elements)
def test_rep_multiplicative_on_generated_elements(a, b):
    assert euclidean_rep(a * b) == euclidean_rep(a) * euclidean_rep(b)


@settings(max_examples=40)
@given(a=_diffops, b=_diffops, mono=_pairs)
def test_composition_applies_right_factor_first(a, b, mono):
    """``(A*B)`` on a monomial is ``B``'s monomial map followed by ``A``'s."""
    want = {}
    for (ea, eb), cb in b.apply_monomial(*mono).items():
        for key, ca in a.apply_monomial(ea, eb).items():
            acc = want.get(key, GQ()) + ca * cb
            if acc:
                want[key] = acc
            else:
                want.pop(key)
    assert (a * b).apply_monomial(*mono) == want


def test_rep_eight_casimir_equals_euler_identity():
    assert euclidean_rep(casimir_sl2().scale(GQ(8))) == euclidean_fol_identity_op()


def test_rep_degree_three_casimir_is_zero_operator():
    rep = euclidean_rep(casimir_saff().scale(GQ(2)))
    assert rep.is_zero()


def test_rep_degree_three_casimir_annihilates_monomials():
    rep = euclidean_rep(casimir_saff().scale(GQ(2)))
    for a in range(5):
        for b in range(5 - a):
            assert rep.apply_monomial(a, b) == {}


def test_diffop_normal_ordering():
    # D1^2 with D1 = w1 d1 must normal-order to w1^2 d1^2 + w1 d1.
    d1 = DiffOp({((0, 0), (1, 0)): GQ(1)})
    w1 = DiffOp({((1, 0), (0, 0)): GQ(1)})
    euler = w1 * d1
    sq = euler * euler
    assert sq.terms == {
        ((2, 0), (2, 0)): GQ(1),
        ((1, 0), (1, 0)): GQ(1),
    }

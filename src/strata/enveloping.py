"""Exact universal-enveloping-algebra arithmetic for the special affine Lie algebra.

The Lie algebra ``saff2 = sl2 + R^2`` of the special affine group of the plane
is generated here by the complexified basis

    Z,  X+ ("Xp"),  X- ("Xm"),  Y+ ("Yp"),  Y- ("Ym"),

obtained from the real basis ``F, H, G`` of sl2 (upper triangular, diagonal,
lower triangular) and the translation generators ``P, Q`` via

    Z  = -i (F - G),
    X+/- = (H +/- i (F + G)) / 2,
    Y+/- = (P +/- i Q) / 2.

The private table ``_REAL_FORMS`` is the single definition of this basis
change: ``euclidean_rep`` and ``operators.right_regular_element`` both expand
through it, via ``_real_words``.

Everything in this module is exact: coefficients are Gaussian rationals
(complex numbers with rational real and imaginary parts), products are
straightened into the Poincare-Birkhoff-Witt basis, and the degree-three
central element is produced and certified without floating point.

The module also carries the representation of the algebra by polynomial-
coefficient differential operators on the plane (right translation action on
functions of a row vector ``(w1, w2)``), used to check that the degree-three
Casimir acts by zero on polynomials.  The structure constants are checked
against commutators of the faithful 3x3 generator matrices, an oracle that
the tests carry (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping

__all__ = [
    "GaussianRational",
    "GENERATORS",
    "Element",
    "generator",
    "bracket",
    "pbw_normalize",
    "casimir_sl2",
    "casimir_saff",
    "symmetrize",
    "is_central",
    "DiffOp",
    "euclidean_rep",
    "euclidean_fol_identity_op",
]


class GaussianRational:
    """Exact complex number ``re + i*im`` with ``Fraction`` components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons / hashing ---------------------------------------------
    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    # -- conversions --------------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GQ({self.re})"
        return f"GQ({self.re}, {self.im})"


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, complex):
        # Only exact embeddings of small integers are safe; reject floats.
        raise TypeError("implicit float/complex coercion is not exact")
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))

#: Generator names in the fixed PBW order Z < X+ < X- < Y+ < Y-.
GENERATORS = ("Z", "Xp", "Xm", "Yp", "Ym")

_INDEX = {name: i for i, name in enumerate(GENERATORS)}

# Structure constants [g_i, g_j] for i < j, as {generator index: coefficient}.
# Derived from the commutators of the faithful 3x3 matrices of the
# generators; the test suite recomputes every entry from those matrices.
_BRACKET_TABLE: dict[tuple[int, int], dict[int, GaussianRational]] = {
    (0, 1): {1: GaussianRational(2)},    # [Z, X+] = 2 X+
    (0, 2): {2: GaussianRational(-2)},   # [Z, X-] = -2 X-
    (0, 3): {3: ONE},                    # [Z, Y+] = Y+
    (0, 4): {4: -ONE},                   # [Z, Y-] = -Y-
    (1, 2): {0: ONE},                    # [X+, X-] = Z
    (1, 3): {},                          # [X+, Y+] = 0
    (1, 4): {3: -ONE},                   # [X+, Y-] = -Y+
    (2, 3): {4: -ONE},                   # [X-, Y+] = -Y-
    (2, 4): {},                          # [X-, Y-] = 0
    (3, 4): {},                          # [Y+, Y-] = 0
}


def _accumulate(out: dict, key, coeff) -> None:
    """Add ``coeff`` to ``out[key]``, dropping the key when the sum is zero."""
    acc = out.get(key, GaussianRational()) + coeff
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def _add_scaled(out: dict, terms: Mapping, factor) -> None:
    """In place ``out += factor * terms``."""
    for key, coeff in terms.items():
        _accumulate(out, key, coeff * factor)


class _LinearCombination:
    """Sparse exact linear combination: ``terms`` maps keys to nonzero
    ``GaussianRational`` coefficients, in insertion order."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[tuple(key)] = coeff

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(out, key, coeff)
        return type(self)(out)

    def __neg__(self):
        return self.scale(-ONE)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = _coerce(factor)
        return type(self)({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (len(k), k))
        return " + ".join(f"({self.terms[k]!r})*{self._monomial(k)}"
                          for k in keys)


class Element(_LinearCombination):
    """Element of the universal enveloping algebra in the PBW basis.

    ``terms`` maps PBW words -- non-decreasing tuples of generator indices --
    to ``GaussianRational`` coefficients.  The empty word is the identity.
    """

    __slots__ = ()

    @staticmethod
    def one() -> "Element":
        return Element({(): ONE})

    def __mul__(self, other: "Element") -> "Element":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_scaled(out, _straighten(w1 + w2).terms, c1 * c2)
        return Element(out)

    @staticmethod
    def _monomial(word: tuple[int, ...]) -> str:
        return "*".join(GENERATORS[i] for i in word) or "1"


def generator(name: str) -> Element:
    """Return the generator ``name`` in {Z, Xp, Xm, Yp, Ym} as an element."""
    return Element({(_INDEX[name],): ONE})


_STRAIGHTEN_CACHE: dict[tuple[int, ...], Element] = {}


def _straighten(word: tuple[int, ...]) -> Element:
    """Rewrite an arbitrary word of generators in the PBW basis."""
    cached = _STRAIGHTEN_CACHE.get(word)
    if cached is not None:
        return cached
    out = {word: ONE}
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a > b:
            out = dict(_straighten(word[:pos] + (b, a) + word[pos + 2:]).terms)
            for idx, coeff in _BRACKET_TABLE[(b, a)].items():
                # word = swapped + [a, b] insertion with [a,b] = -[b,a].
                lower = word[:pos] + (idx,) + word[pos + 2:]
                _add_scaled(out, _straighten(lower).terms, -coeff)
            break
    _STRAIGHTEN_CACHE[word] = Element(out)
    return _STRAIGHTEN_CACHE[word]


def pbw_normalize(words: Mapping[tuple[int, ...], GaussianRational]) -> Element:
    """Normalize a formal combination of arbitrary words into the PBW basis.

    Parameters
    ----------
    words:
        Mapping from words (tuples of generator indices, in any order) to
        coefficients.

    Returns
    -------
    Element
        The equivalent element written in the ordered PBW basis.
    """
    out: dict = {}
    for word, coeff in words.items():
        _add_scaled(out, _straighten(tuple(word)).terms, coeff)
    return Element(out)


def bracket(a: Element, b: Element) -> Element:
    """Commutator ``a*b - b*a`` in the enveloping algebra."""
    return a * b - b * a


def casimir_sl2() -> Element:
    """Degree-two Casimir of the sl2 part.

    Returns ``(1/4) X+ X- + (1/8) Z^2 + (1/4) X- X+`` straightened into the
    PBW basis (equal to ``(1/2) X+ X- + (1/8) Z^2 - (1/4) Z``).  It is central
    for sl2 but *not* for the full special affine algebra.
    """
    quarter = GaussianRational(Fraction(1, 4))
    eighth = GaussianRational(Fraction(1, 8))
    return pbw_normalize({
        (_INDEX["Xp"], _INDEX["Xm"]): quarter,
        (_INDEX["Z"], _INDEX["Z"]): eighth,
        (_INDEX["Xm"], _INDEX["Xp"]): quarter,
    })


def casimir_saff() -> Element:
    """Degree-three central element ``Z Y+ Y- - X+ Y-^2 + X- Y+^2``.

    The three words are already PBW-ordered, so the element has exactly three
    monomials.  Centrality is a theorem; ``is_central`` certifies it exactly.
    """
    iZ, iXp, iXm, iYp, iYm = range(5)
    return Element({
        (iZ, iYp, iYm): ONE,
        (iXp, iYm, iYm): -ONE,
        (iXm, iYp, iYp): ONE,
    })


def symmetrize(element: Element) -> Element:
    """Sum over all permutations of each word (no 1/n! normalization).

    Applied to the top-degree part of a PBW expression this produces the
    canonical symmetrization; for a degree-three word the result is the sum
    of its six reorderings, each straightened back into the PBW basis.
    """
    out: dict = {}
    for word, coeff in element.terms.items():
        for perm in itertools.permutations(word):
            _add_scaled(out, _straighten(perm).terms, coeff)
    return Element(out)


def is_central(element: Element) -> bool:
    """True iff ``element`` commutes with every generator (exact check)."""
    return all(bracket(generator(name), element).is_zero() for name in GENERATORS)


# ---------------------------------------------------------------------------
# Differential-operator representation on the plane
# ---------------------------------------------------------------------------


class DiffOp(_LinearCombination):
    """Polynomial-coefficient differential operator in two variables.

    ``terms`` maps ``((e1, e2), (d1, d2))`` to coefficients, standing for
    ``w1^e1 w2^e2 d^d1/dw1^d1 d^d2/dw2^d2`` in normal order (all
    multiplications to the left of all derivatives).  Arithmetic is exact.
    """

    __slots__ = ()

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp({((0, 0), (0, 0)): ONE})

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition ``self o other`` (apply ``other`` first)."""
        out: dict = {}
        for (e, d), c1 in self.terms.items():
            for (eb, db), c2 in other.terms.items():
                # Commute d^d past w^eb with the two-variable Leibniz rule.
                for j1 in range(min(d[0], eb[0]) + 1):
                    for j2 in range(min(d[1], eb[1]) + 1):
                        coeff = (
                            c1 * c2
                            * math.comb(d[0], j1) * math.perm(eb[0], j1)
                            * math.comb(d[1], j2) * math.perm(eb[1], j2)
                        )
                        key = (
                            (e[0] + eb[0] - j1, e[1] + eb[1] - j2),
                            (d[0] - j1 + db[0], d[1] - j2 + db[1]),
                        )
                        _accumulate(out, key, coeff)
        return DiffOp(out)

    def apply_monomial(self, a: int, b: int) -> dict[tuple[int, int], GaussianRational]:
        """Apply to ``w1^a w2^b``; returns exponent -> coefficient (exact)."""
        out: dict[tuple[int, int], GaussianRational] = {}
        for (e, d), coeff in self.terms.items():
            if d[0] > a or d[1] > b:
                continue
            c = coeff * math.perm(a, d[0]) * math.perm(b, d[1])
            _accumulate(out, (a - d[0] + e[0], b - d[1] + e[1]), c)
        return out

    @staticmethod
    def _monomial(key) -> str:
        (e1, e2), (d1, d2) = key
        return f"w1^{e1}w2^{e2}D1^{d1}D2^{d2}"


#: Right-translation action of the real generators on functions of the row
#: vector ``(w1, w2)`` under the affine right action ``w -> w g + t``, in
#: normal order: ``F = w1 d2``, ``H = w1 d1 - w2 d2``, ``G = w2 d1``,
#: ``P = d1``, ``Q = d2``.
_REAL_OPS: dict[str, DiffOp] = {
    "F": DiffOp({((1, 0), (0, 1)): ONE}),
    "H": DiffOp({((1, 0), (1, 0)): ONE, ((0, 1), (0, 1)): -ONE}),
    "G": DiffOp({((0, 1), (1, 0)): ONE}),
    "P": DiffOp({((0, 0), (1, 0)): ONE}),
    "Q": DiffOp({((0, 0), (0, 1)): ONE}),
}

#: Each complex generator as a combination of the real generators F, H, G
#: (upper triangular, diagonal, lower triangular) and P, Q (translations):
#: ``Z = -i (F - G)``, ``X+/- = (H +/- i (F + G)) / 2``,
#: ``Y+/- = (P +/- i Q) / 2``.
_REAL_FORMS: dict[str, tuple[tuple[str, GaussianRational], ...]] = {
    "Z": (("F", -I), ("G", I)),
    "Xp": (("H", HALF), ("F", HALF * I), ("G", HALF * I)),
    "Xm": (("H", HALF), ("F", -HALF * I), ("G", -HALF * I)),
    "Yp": (("P", HALF), ("Q", HALF * I)),
    "Ym": (("P", HALF), ("Q", -HALF * I)),
}


def _real_words(element: Element) -> dict[tuple[str, ...], GaussianRational]:
    """Expand ``element`` exactly into words of the real generators.

    Every letter is replaced by its ``_REAL_FORMS`` combination; equal real
    words are collected, and words whose coefficients cancel are dropped.
    """
    out: dict[tuple[str, ...], GaussianRational] = {}
    for word, coeff in element.terms.items():
        forms = [_REAL_FORMS[GENERATORS[i]] for i in word]
        for combo in itertools.product(*forms):
            c = coeff
            for _, factor in combo:
                c = c * factor
            _accumulate(out, tuple(name for name, _ in combo), c)
    return out


def euclidean_rep(element: Element) -> DiffOp:
    """Represent an enveloping-algebra element as a differential operator.

    Each real word of ``_real_words(element)`` maps to the composition of the
    real-generator operators in word order.  The generator assignment
    intertwines brackets with operator commutators (verified exactly in the
    tests), so the extension to the enveloping algebra is well defined.
    """
    out: dict = {}
    for word, coeff in _real_words(element).items():
        acc = DiffOp.identity()
        for name in word:
            acc = acc * _REAL_OPS[name]
        _add_scaled(out, acc.terms, coeff)
    return DiffOp(out)


def euclidean_fol_identity_op() -> DiffOp:
    """The operator ``D1^2 + D2^2 + 2 D1 D2 + 2 D1 + 2 D2`` with ``Di = wi d/dwi``.

    This is the closed-form Euler-operator expression that the represented
    degree-two Casimir must match: ``euclidean_rep(8 * casimir_sl2())`` equals
    this operator exactly.
    """
    d1 = DiffOp({((1, 0), (1, 0)): ONE})
    d2 = DiffOp({((0, 1), (0, 1)): ONE})
    return (
        d1 * d1 + d2 * d2 + (d1 * d2).scale(2) + d1.scale(2) + d2.scale(2)
    )

"""Differential tests of the Groebner engine's elimination against sympy.

`intersect` and `eliminate` share one elimination; sympy's lex bases
give the same ideals independently.  Two generator lists are compared
as ideals: each side's generators reduce to zero modulo the other's
basis.  Hypothesis draws small ideals of F_p[t, x, y], p in {2, 3, 5},
derandomized so that every run tries the same examples.
"""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from frobgrow.fpoly import MultiPoly, PrimeModulus, RingSpec  # noqa: E402
from frobgrow.groebner import IdealHandle, eliminate, intersect  # noqa: E402

NAMES = ("t", "x", "y")
SYMBOLS = sympy.symbols(NAMES)
W = sympy.Symbol("w")
EXAMPLES = hypothesis.settings(max_examples=30, deadline=None, derandomize=True)


def ring(p):
    return RingSpec(PrimeModulus(p), (("t", 0), ("x", 1), ("y", 1)))


def polys(p):
    """Lists of one or two polynomials, each of one or two terms, as
    {exponents: coefficient}: sympy's lex bases of larger ones can take
    seconds."""
    monomial = st.tuples(*[st.integers(0, 2)] * 3)
    poly = st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=2)
    return st.lists(poly, min_size=1, max_size=2)


def expr(terms):
    return sum(c * sympy.prod(v**e for v, e in zip(SYMBOLS, m)) for m, c in terms.items())


def from_sympy(R, e):
    poly = sympy.Poly(e, *SYMBOLS, modulus=R.p.p)
    # sympy gives symmetric residues, so take them mod p
    return MultiPoly(R, {m: int(c) % R.p.p for m, c in poly.terms()})


def sympy_eliminate(exprs, front, p):
    """The elements free of `front` of sympy's lex basis, with `front`
    first and then x, y, t."""
    rest = [SYMBOLS[i] for i in (1, 2, 0) if SYMBOLS[i] not in front]
    gb = sympy.groebner(exprs, *front, *rest, modulus=p, order="lex")
    return [g for g in gb.exprs if not g.free_symbols & set(front)]


def assert_same_ideal(R, ours, theirs):
    """`ours` (MultiPolys) and `theirs` (sympy expressions in t, x, y)
    generate the same ideal of R."""
    p = R.p.p
    ours = [g for g in ours if not g.is_zero]
    if not theirs:
        assert not ours
        return
    basis = sympy.groebner(theirs, *SYMBOLS, modulus=p, order="grevlex")
    for g in ours:
        assert basis.contains(expr(g.term_dict()))
    mine = IdealHandle(R, ours)
    for g in theirs:
        assert mine.contains(from_sympy(R, g))


@st.composite
def two_ideals(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    return p, draw(polys(p)), draw(polys(p))


@st.composite
def ideal_and_front(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    front = draw(st.sampled_from((("x",), ("y",), ("t",), ("x", "y"))))
    return p, draw(polys(p)), front


class TestElimination:
    @EXAMPLES
    @hypothesis.given(two_ideals())
    def test_intersect_agrees_with_sympy(self, case):
        p, gens_i, gens_j = case
        R = ring(p)
        I = IdealHandle(R, [MultiPoly(R, g) for g in gens_i])
        J = IdealHandle(R, [MultiPoly(R, g) for g in gens_j])
        lifted = [W * expr(g) for g in gens_i] + [(1 - W) * expr(g) for g in gens_j]
        theirs = sympy_eliminate(lifted, (W,), p)
        assert_same_ideal(R, intersect(I, J).generators, theirs)

    @EXAMPLES
    @hypothesis.given(ideal_and_front())
    def test_eliminate_agrees_with_sympy(self, case):
        p, gens, front = case
        R = ring(p)
        I = IdealHandle(R, [MultiPoly(R, g) for g in gens])
        front_symbols = tuple(SYMBOLS[NAMES.index(v)] for v in front)
        theirs = sympy_eliminate([expr(g) for g in gens], front_symbols, p)
        assert_same_ideal(R, eliminate(I, front).generators, theirs)

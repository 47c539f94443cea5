"""Tests for rational functions over Q and the residue-field cache.

``RatFunc`` arithmetic is checked against ``sympy.cancel``, and every
result against the canonical form equality relies on: coprime numerator
and denominator, monic denominator, zero as 0/1.
"""

from fractions import Fraction

import sympy
from hypothesis import given
from hypothesis import strategies as st

from enriq.funcfield import QQ, Place, Poly, RatFunc

T = sympy.Symbol("T")

coefficients = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3])
)
polys = st.lists(coefficients, max_size=4).map(lambda cs: Poly(QQ, cs))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
nonzero_ratfuncs = ratfuncs.filter(lambda f: not f.is_zero())


def _sym(p: Poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * T**i
               for i, c in enumerate(p.coeffs))


def to_sympy(f: RatFunc):
    return _sym(f.num) / _sym(f.den)


def _coeff_list(p: sympy.Poly) -> list:
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def cancelled(expr) -> tuple[list, list]:
    """Coefficients of sympy.cancel's numerator and denominator, both
    divided by the denominator's leading coefficient."""
    num, den = (sympy.Poly(e, T, domain="QQ") for e in sympy.fraction(sympy.cancel(expr)))
    lead = den.LC()
    return _coeff_list(num.quo_ground(lead)), _coeff_list(den.quo_ground(lead))


def assert_canonical(f: RatFunc):
    if f.is_zero():
        assert f.den.coeffs == [1]
        return
    assert f.den.leading == 1
    assert f.num.gcd(f.den).degree == 0


def assert_matches(got: RatFunc, expr):
    assert_canonical(got)
    num, den = cancelled(expr)
    assert got.num.coeffs == num and got.den.coeffs == den
    # canonical forms are unique, so structural equality must see it too
    other = RatFunc(Poly(QQ, num), Poly(QQ, den))
    assert got == other and hash(got) == hash(other)


@given(ratfuncs, ratfuncs)
def test_sum_difference_product_match_sympy(f, g):
    a, b = to_sympy(f), to_sympy(g)
    assert_matches(f + g, a + b)
    assert_matches(f - g, a - b)
    assert_matches(f * g, a * b)
    assert_matches(-f, -a)


@given(ratfuncs, nonzero_ratfuncs)
def test_quotient_and_inverse_match_sympy(f, g):
    a, b = to_sympy(f), to_sympy(g)
    assert_matches(f / g, a / b)
    assert_matches(g.inv(), 1 / b)


@given(nonzero_ratfuncs, st.integers(-3, 3))
def test_powers_match_sympy(f, n):
    assert_matches(f ** n, to_sympy(f) ** n)


@given(polys, nonzero_polys, st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
def test_constructor_is_canonical(num, den, c):
    f = RatFunc(num, den)
    assert_canonical(f)
    # scaling both sides, or multiplying them by a common factor, changes
    # nothing
    common = Poly(QQ, [c, 1])
    assert RatFunc(num.scale(c), den.scale(c)) == f
    assert RatFunc(num * common, den * common) == f


def test_zero_is_zero_over_one():
    t = RatFunc.variable(QQ)
    zero = t - t
    assert zero.num.is_zero() and zero.den.coeffs == [1]
    assert RatFunc(Poly(QQ, []), Poly(QQ, [0, 3, 1])) == zero
    assert -zero == zero and zero * t == zero


def test_equal_places_share_one_residue_field():
    place = Place.finite(Poly(QQ, [-2, 0, 1]))
    again = Place.finite(Poly(QQ, [Fraction(-4, 2), 0, 1]))
    assert place is not again and place == again
    rf = place.residue_field()
    assert again.residue_field() is rf
    assert again.residue_field().tower is rf.tower


def test_residue_field_cache_is_bounded():
    bound = Place.residue_field.cache_info().maxsize
    assert bound is not None
    for c in range(bound + 50):
        Place.finite(Poly(QQ, [-c, 1])).residue_field()
    assert Place.residue_field.cache_info().currsize <= bound

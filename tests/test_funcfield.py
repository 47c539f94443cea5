"""Tests for rational functions over Q, factoring, and the residue-field cache.

``RatFunc`` arithmetic is checked against ``sympy.cancel``, and every
result against the canonical form equality relies on: coprime numerator
and denominator, monic denominator, zero as 0/1.  ``factor_poly`` over Q
is checked against ``sympy.Poly.factor_list``.  The kernels under the
residue calculus (polynomial products and division, orders at a place,
the shortcuts of ``RatFunc`` sums and products, and unit parts) are
checked against sympy over Q and over Q(t).
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from enriq import arith, funcfield
from enriq.funcfield import (
    QQ,
    Place,
    Poly,
    RatFunc,
    RationalFunctions,
    TowerCoefficients,
    factor_poly,
    valuation,
)
from enriq.residues import _unit_part
from enriq.towers import Tower

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


@pytest.mark.parametrize("place_coeffs", [[-2, 0, 1], [1, 1, 1]])
@pytest.mark.parametrize("over_sqrt5", [False, True])
def test_residue_coordinates_invert_a_plus_b_beta(over_sqrt5, place_coeffs):
    # t^2 - 2 and t^2 + t + 1 are quadratic places over Q and over Q(sqrt 5)
    if over_sqrt5:
        K = TowerCoefficients(Tower().extend("r5", Fraction(5), depth=12, label="sqrt5"))
        r5 = K.tower.gen("r5")
        scalars = [K.zero(), K.one(), r5, r5 * Fraction(-3, 2) + 2]
    else:
        K = QQ
        scalars = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7)]
    rf = Place.finite(Poly(K, place_coeffs)).residue_field()
    field = rf.class_field
    for a, b in itertools.product(scalars, repeat=2):
        value = field.coerce(a) + rf.beta * field.coerce(b)
        assert rf.coordinates(value) == (a, b)


def test_residue_field_cache_is_bounded():
    bound = Place.residue_field.cache_info().maxsize
    assert bound is not None
    for c in range(bound + 50):
        Place.finite(Poly(QQ, [-c, 1])).residue_field()
    assert Place.residue_field.cache_info().currsize <= bound


# -- factoring over Q ------------------------------------------------------

small_rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5])
)
nonzero_scalars = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)
)
#: linear and quadratic factors (possibly reducible) with multiplicities
low_factors = st.tuples(
    st.lists(small_rationals, min_size=1, max_size=2).map(lambda cs: Poly(QQ, cs + [1])),
    st.integers(1, 3),
)


@st.composite
def eisenstein_factors(draw):
    """t^n + 2(...) with constant term 2 mod 4, irreducible by Eisenstein's
    criterion at 2, shifted by t -> t + s."""
    n = draw(st.integers(3, 5))
    lower = [2 * draw(st.integers(-3, 3)) for _ in range(n - 1)]
    p = Poly(QQ, [2 * draw(st.integers(-3, 3).map(lambda k: 2 * k + 1))] + lower + [1])
    shifted = Poly(QQ, [draw(st.integers(-2, 2)), 1])
    out = Poly(QQ, [0])
    for c in reversed(p.coeffs):
        out = out * shifted + Poly(QQ, [c])
    return out


@st.composite
def factorable_polys(draw):
    p = Poly(QQ, [draw(nonzero_scalars)])
    degree = 0
    for factor, mult in draw(st.lists(low_factors, min_size=1, max_size=5)):
        if degree + factor.degree * mult <= 8:
            p = p * factor**mult
            degree += factor.degree * mult
    if draw(st.booleans()):
        p = p * draw(eisenstein_factors())
    return p


def _sympy_factor_multiset(p: Poly) -> Counter:
    _, factors = sympy.Poly(_sym(p), T).factor_list()
    return Counter((tuple(_coeff_list(fac.monic())), mult) for fac, mult in factors)


@given(factorable_polys())
def test_factor_poly_matches_sympy_factor_list(p):
    got = factor_poly(p)
    assert Counter((tuple(f.coeffs), m) for f, m in got) == _sympy_factor_multiset(p)
    product = Poly(QQ, [p.leading])
    for f, m in got:
        assert f.leading == 1
        product = product * f**m
    assert product == p


def test_cubic_places_are_certified_over_q():
    assert Place.finite(Poly(QQ, [-2, 0, 0, 1])).degree == 3  # t^3 - 2
    for reducible in ([-1, 0, 0, 1], [6, -7, 0, 1]):  # t^3 - 1, t^3 - 7t + 6
        with pytest.raises(ValueError):
            Place.finite(Poly(QQ, reducible))


def test_two_irreducible_cubics_are_out_of_scope():
    product = Poly(QQ, [-2, 0, 0, 1]) * Poly(QQ, [-3, 0, 0, 1])
    with pytest.raises(NotImplementedError):
        factor_poly(product)


def test_incomplete_coefficient_factorization_raises(monkeypatch):
    # a factorization that leaves part of a coefficient unfactored could
    # hide a divisor, and with it a rational root: refuse, never guess
    real = arith.factorize
    monkeypatch.setattr(
        funcfield.arith, "factorize",
        lambda n: real(n) if n <= 100 else arith.Factorization(n, cofactor=n),
    )
    p = Poly(QQ, [-101, 1]) * Poly(QQ, [-2, 0, 0, 1])  # constant term 202
    with pytest.raises(ArithmeticError):
        factor_poly(p)
    assert factor_poly(Poly(QQ, [-1, 1]) * Poly(QQ, [-2, 0, 0, 1])) == [
        (Poly(QQ, [-1, 1]), 1), (Poly(QQ, [-2, 0, 0, 1]), 1)]


def test_factoring_over_a_tower_base():
    # over Q(sqrt 5): a linear or irreducible quadratic p comes back as
    # [(monic p, 1)]; splitting a quadratic, or anything of degree 3 and
    # up, is out of scope
    K = TowerCoefficients(Tower().extend("r5", Fraction(5), depth=12, label="sqrt5"))
    assert factor_poly(Poly(K, [3, 2])) == [(Poly(K, [Fraction(3, 2), 1]), 1)]
    assert factor_poly(Poly(K, [-6, 0, 3])) == [(Poly(K, [-2, 0, 1]), 1)]
    with pytest.raises(NotImplementedError):
        factor_poly(Poly(K, [-5, 0, 1]))  # (t - sqrt 5)(t + sqrt 5)
    with pytest.raises(NotImplementedError):
        factor_poly(Poly(K, [-2, 0, 0, 1]))


# -- the kernels under the residue calculus --------------------------------

X = sympy.Symbol("X")
QT = RationalFunctions("t", QQ)


def _sympy_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly(_sym(p), T, domain="QQ")


@given(polys, polys, nonzero_polys)
def test_poly_product_and_divmod_match_sympy(p, q, d):
    assert (p * q).coeffs == _coeff_list(_sympy_poly(p) * _sympy_poly(q))
    quot, rem = p.divmod(d)
    sympy_quot, sympy_rem = _sympy_poly(p).div(_sympy_poly(d))
    assert quot.coeffs == _coeff_list(sympy_quot)
    assert rem.coeffs == _coeff_list(sympy_rem)


linear_places = small_rationals.map(lambda r: Poly(QQ, [-r, 1]))
quadratic_places = st.tuples(small_rationals, small_rationals).map(
    lambda uv: Poly(QQ, [uv[1], uv[0], 1])
).filter(lambda q: not arith.rational_is_square(q.coeff(1) ** 2 - 4 * q.coeff(0)))


def _sympy_order(p: Poly, q: Poly) -> int:
    rest, divisor, order = _sympy_poly(p), _sympy_poly(q), 0
    while True:
        quot, rem = rest.div(divisor)
        if not rem.is_zero:
            return order
        rest, order = quot, order + 1


@given(st.one_of(linear_places, quadratic_places), nonzero_polys, nonzero_polys,
       st.integers(0, 3), st.integers(0, 2))
# t^3 = 2t mod t^2 - 2: a remainder whose constant slot alone is zero
@example(Poly(QQ, [-2, 0, 1]), Poly(QQ, [0, 0, 0, 1]), Poly(QQ, [1]), 0, 1)
def test_orders_at_linear_and_quadratic_places_match_sympy(q, a, b, k, m):
    num, den = a * q**k, b * q**m
    assert funcfield._poly_order(num, q) == _sympy_order(num, q)
    place = Place.finite(q)
    expected = _sympy_order(num, q) - _sympy_order(den, q)
    assert valuation(RatFunc(num, den), place) == expected
    # the unit part divides the place polynomial out exactly, with no gcd,
    # and agrees with the product by the uniformizer's power
    f = RatFunc(num, den)
    unit = _unit_part(f, place, expected)
    assert_canonical(unit)
    assert valuation(unit, place) == 0
    assert unit == f * RatFunc.from_poly(q) ** -expected


@st.composite
def operand_pairs(draw, elements, constants):
    """(f, g) with g, on purpose, zero, a constant, over f's denominator,
    or drawn alone; in either order."""
    f = draw(elements)
    kind = draw(st.sampled_from(["any", "zero", "constant", "same-den"]))
    if kind == "any":
        g = draw(elements)
    elif kind == "zero":
        g = f - f
    elif kind == "constant":
        g = RatFunc.constant(f.field, draw(constants))
    else:
        g = f + RatFunc.from_poly(draw(elements).num)
        assert g.den == f.den
    return (f, g) if draw(st.booleans()) else (g, f)


def _generic_results(f: RatFunc, g: RatFunc) -> tuple:
    """f + g, f - g and f * g through the gcd of the generic constructor."""
    return (
        RatFunc(f.num * g.den + g.num * f.den, f.den * g.den),
        RatFunc(f.num * g.den - g.num * f.den, f.den * g.den),
        RatFunc(f.num * g.num, f.den * g.den),
    )


def _assert_canonical_over(field, f: RatFunc):
    one = field.one()
    if f.is_zero():
        assert f.den.coeffs == [one]
        return
    assert f.den.leading == one
    assert f.num.gcd(f.den).degree == 0


@given(operand_pairs(ratfuncs, small_rationals))
def test_sum_difference_product_shortcuts_over_q(pair):
    f, g = pair
    a, b = to_sympy(f), to_sympy(g)
    for got, generic, expr in zip((f + g, f - g, f * g), _generic_results(f, g),
                                  (a + b, a - b, a * b)):
        assert_matches(got, expr)
        assert got == generic


short_polys = st.lists(coefficients, max_size=2).map(lambda cs: Poly(QQ, cs))
short_ratfuncs = st.builds(
    RatFunc, short_polys, short_polys.filter(lambda p: not p.is_zero())
)
#: rational functions in x over Q(t), of degree <= 1 in x and in t
qt_ratfuncs = st.builds(
    RatFunc,
    st.lists(short_ratfuncs, max_size=2).map(lambda cs: Poly(QT, cs)),
    st.lists(short_ratfuncs, min_size=1, max_size=2)
    .map(lambda cs: Poly(QT, cs))
    .filter(lambda p: not p.is_zero()),
)


def _sym_qt(f: RatFunc):
    def poly(p: Poly):
        return sum(to_sympy(c) * X**i for i, c in enumerate(p.coeffs))
    return poly(f.num) / poly(f.den)


@given(operand_pairs(qt_ratfuncs, short_ratfuncs))
def test_sum_difference_product_shortcuts_over_q_of_t(pair):
    f, g = pair
    a, b = _sym_qt(f), _sym_qt(g)
    for got, generic, expr in zip((f + g, f - g, f * g), _generic_results(f, g),
                                  (a + b, a - b, a * b)):
        _assert_canonical_over(QT, got)
        assert got == generic
        assert sympy.expand(sympy.numer(sympy.together(_sym_qt(got) - expr))) == 0


def test_tests_against_one_read_both_sides_of_a_q_of_t_coefficient():
    """1/(t+1) has the constant numerator 1 and is not 1: the monic
    normalisation, ``Poly.is_one`` and the monic check of places must see
    its denominator."""
    t = RatFunc.variable(QQ)
    inv = (t + 1).inv()
    assert Poly(QT, [RatFunc.constant(QQ, 1)]).is_one()
    assert not Poly(QT, [inv]).is_one() and not Poly(QT, [t + 1]).is_one()
    f = RatFunc(Poly(QT, [1, 1]), Poly(QT, [0, inv]))  # (1 + x) / (x / (t+1))
    _assert_canonical_over(QT, f)
    assert f.den == Poly(QT, [0, 1]) and f.num == Poly(QT, [t + 1, t + 1])
    with pytest.raises(ValueError, match="monic"):
        Place.finite(Poly(QT, [1, inv]))
    assert Place.finite(Poly(QT, [inv, 1])).degree == 1


# -- the square test against Yun's square-free parts -----------------------


def _square_free_verdict(f: RatFunc) -> bool:
    """f is a square iff its square-free part is constant and the constant
    is a square in the base field (the Yun route)."""
    sf, const = funcfield.ratfunc_square_free(f)
    return sf.degree == 0 and f.field.is_square(const)


@st.composite
def near_squares(draw, elements, constants):
    """c * g^2 / h^2, as it is or times or over a drawn element: squares,
    and non-squares of even degree on either side, come up often."""
    g, h = draw(elements), draw(elements)
    f = RatFunc.constant(g.field, draw(constants)) * (g / h) ** 2
    how = draw(st.sampled_from(["as is", "times", "over"]))
    if how == "as is":
        return f
    return f * draw(elements) if how == "times" else f / draw(elements)


square_constants = st.sampled_from([Fraction(1), Fraction(4), Fraction(9, 4),
                                    Fraction(-1), Fraction(2), Fraction(3, 5)])


@given(st.one_of(nonzero_ratfuncs, near_squares(nonzero_ratfuncs, square_constants)))
@example(RatFunc(Poly(QQ, [4]), Poly(QQ, [1, 0, 1])))  # a square over a non-square
def test_square_test_matches_square_free_path_over_q(f):
    assert funcfield.ratfunc_is_square(f) == _square_free_verdict(f)


qt_polys = st.lists(short_ratfuncs, min_size=1, max_size=2).map(
    lambda cs: Poly(QT, cs)).filter(lambda p: not p.is_zero())


@given(qt_polys, qt_polys, st.one_of(st.just(Poly(QT, [1])), qt_polys),
       st.sampled_from([1, 4, -1, 2]).map(lambda c: RatFunc.constant(QQ, c)))
def test_square_test_matches_square_free_path_over_q_of_t(g, h, extra, c):
    """c * g^2 * extra / h^2 over Q(t), with g, h and extra of degree <= 1
    in x and in t (products of drawn elements grow too fast for Euclid's
    gcd over Q(t))."""
    f = RatFunc((g * g * extra).scale(c), h * h)
    assert funcfield.ratfunc_is_square(f) == _square_free_verdict(f)


class _UndecidedRationals(funcfield.RationalField):
    """Q with a square test that never decides, like an exhausted tower."""

    def is_square(self, c):
        raise ArithmeticError("undecided")


UNDECIDED = _UndecidedRationals()


@given(st.one_of(nonzero_ratfuncs, near_squares(nonzero_ratfuncs, square_constants)))
def test_square_test_asks_the_base_field_only_where_the_yun_route_does(f):
    """The base field's square test comes last: over a field whose test
    raises, the answer is False exactly where the square-free part is not
    constant, and it raises everywhere else."""
    f = RatFunc(Poly(UNDECIDED, f.num.coeffs), Poly(UNDECIDED, f.den.coeffs))
    if funcfield.ratfunc_square_free(f)[0].degree > 0:
        assert funcfield.ratfunc_is_square(f) is False
    else:
        with pytest.raises(ArithmeticError, match="undecided"):
            funcfield.ratfunc_is_square(f)

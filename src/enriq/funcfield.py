"""Rational function fields in one variable over exchangeable base fields.

The residue calculus needs k(t) for three different k: the rationals, a
quadratic tower, and -- for the two-variable symbols on the ruled surface
-- another rational function field.  Everything here is generic over a
small ``CoefficientField`` adapter so the same polynomial code serves all
three.  Places of the projective line are monic irreducible polynomials
plus a distinguished infinite place; residue fields are realised exactly:
degree-1 places evaluate into the base field, degree-2 places over the
rationals or over a tower build the corresponding quadratic extension
through the tower engine.  Higher-degree residue fields are out of scope
and raise.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import arith
from .towers import Tower, TowerAuto, TowerElem, parse_element

__all__ = [
    "CoefficientField",
    "QQ",
    "RationalField",
    "TowerCoefficients",
    "RationalFunctions",
    "Poly",
    "RatFunc",
    "Place",
    "ResidueField",
    "valuation",
    "support_places",
    "factor_poly",
    "square_free_decomposition",
    "poly_square_free",
    "rational_square_free",
    "ratfunc_square_free",
    "ratfunc_is_square",
    "parse_ratfunc",
]


# --------------------------------------------------------------------------
# coefficient field adapters
# --------------------------------------------------------------------------

class CoefficientField:
    """What Poly/RatFunc need to know about their coefficients.

    Each field provides coerce, is_zero, invert and is_square (True or
    False, or raise if undecidable).
    """

    name = "?"
    #: variable name used when printing polynomials over this field
    poly_var = "t"

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def __repr__(self):
        return f"<{self.name}>"


class RationalField(CoefficientField):
    """Q, with ``arith``'s canonical rationals: ``coerce`` is
    ``arith.rational``, an int for an integral value and a Fraction
    otherwise, and TypeError for anything but an int or a Fraction.  Ring
    operations may leave an integral Fraction in a coefficient, which
    compares, hashes and prints as the int it equals; a division goes
    through Fraction, never ``/`` on two ints."""

    name = "Q"

    coerce = staticmethod(arith.rational)

    def is_zero(self, c) -> bool:
        return c == 0

    def invert(self, c):
        return arith.rational(Fraction(1, self.coerce(c)))

    def is_square(self, c) -> bool:
        return arith.rational_is_square(c)


#: The rationals, shared by everyone.
QQ = RationalField()


class TowerCoefficients(CoefficientField):
    """Coefficients in an iterated quadratic extension."""

    def __init__(self, tower: Tower):
        self.tower = tower
        self.name = f"tower:{tower.label}"

    def coerce(self, x):
        if isinstance(x, TowerElem):
            if x.tower is self.tower:
                return x
            return self.tower.lift(x)
        return self.tower.rational(x)

    def is_zero(self, c) -> bool:
        return self.coerce(c).is_zero()

    def invert(self, c):
        return self.coerce(c).inv()

    def is_square(self, c) -> bool:
        verdict = self.tower.is_square(self.coerce(c))
        if verdict.verdict is None:
            raise ArithmeticError(
                f"square test inconclusive in {self.name}: {c}"
            )
        return verdict.verdict


class RationalFunctions(CoefficientField):
    """Coefficient field k(var): elements are RatFunc over ``base``.

    Polynomials over this adapter live one variable up (printed as
    ``poly_var``); this is how two-variable symbols are represented.
    """

    poly_var = "x"

    def __init__(self, var: str, base: CoefficientField):
        self.var = var
        self.base = base
        self.name = f"{base.name}({var})"

    def coerce(self, x):
        if isinstance(x, RatFunc):
            if x.field is self.base:
                return x
            raise TypeError(f"rational function over {x.field!r}, not {self.base!r}")
        if isinstance(x, Poly) and x.field is self.base:
            return RatFunc.from_poly(x)
        return RatFunc.constant(self.base, x)

    def is_zero(self, c) -> bool:
        return self.coerce(c).is_zero()

    def invert(self, c):
        return self.coerce(c).inv()

    def is_square(self, c) -> bool:
        return ratfunc_is_square(self.coerce(c))


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

def _is_one(c) -> bool:
    """Whether a coefficient is 1, without coercing 1 into its field.

    A Q(t) coefficient is canonical with a monic denominator, so it is 1
    iff both sides are constant and the numerator's constant is 1.
    """
    if isinstance(c, RatFunc):
        return c.num.degree == 0 and c.den.degree == 0 and _is_one(c.num.coeffs[0])
    return c == 1


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies the i-th power."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CoefficientField, coeffs: Sequence, *, inner: bool = False):
        if not inner:
            coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = list(coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, field: CoefficientField, c, *, inner: bool = False) -> "Poly":
        return cls(field, [c], inner=inner)

    @classmethod
    def variable(cls, field: CoefficientField) -> "Poly":
        return cls(field, [0, 1])

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def is_one(self) -> bool:
        return self.degree == 0 and _is_one(self.coeffs[0])

    def __eq__(self, other) -> bool:
        # coefficients are canonical (stripped, coerced into the field), so
        # equal polynomials have equal coefficient lists
        if not isinstance(other, Poly) or other.field is not self.field:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), tuple(self.coeffs)))

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out, inner=True)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs], inner=True)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        field, xs, ys = self.field, self.coeffs, other.coeffs
        if len(xs) < 2 or len(ys) < 2:  # zero, or a scale by one term
            return Poly(field, [x * y for x in xs for y in ys], inner=True)
        # a slot starts from its first product: over Q(t), a sum with zero
        # would cost three polynomial products
        out = [None] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if not field.is_zero(x):
                for k, y in enumerate(ys, i):
                    out[k] = x * y if out[k] is None else out[k] + x * y
        return Poly(field, [field.zero() if c is None else c for c in out], inner=True)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly(self.field, [a * c for a in self.coeffs], inner=True)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        inv_lead = field.invert(other.leading)
        rem, low = list(self.coeffs), other.coeffs[:-1]
        deg_o = other.degree
        if self.degree < deg_o:
            return Poly(field, [], inner=True), self
        quot = [None] * (self.degree - deg_o + 1)
        # step i cancels slot i + deg_o, so it is left as is and dropped
        for i in range(self.degree - deg_o, -1, -1):
            c = rem[i + deg_o] * inv_lead
            quot[i] = c
            if not field.is_zero(c):
                for j, b in enumerate(low):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(field, quot, inner=True), Poly(field, rem[:deg_o], inner=True)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        quot, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("polynomial division is not exact")
        return quot

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.invert(self.leading))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        out = [c * i for i, c in enumerate(self.coeffs)][1:]
        return Poly(self.field, out, inner=True)

    def evaluate(self, value):
        """Horner evaluation; ``value`` may live in an extension field."""
        if self.is_zero():
            return value * 0
        acc = value * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        var = self.field.poly_var
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if self.field.is_zero(c):
                continue
            cs = f"{c}"
            if i == 0:
                parts.append(cs)
                continue
            mono = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if any(op in cs[1:] for op in ("+", "-", " ")) and not cs.startswith("("):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self})"


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition: monic pairwise-coprime A_i with p ~ prod A_i^i."""
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    f = p.monic()
    if f.degree == 0:
        return []
    g = f.gcd(f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    b = f // g
    c = f.derivative() // g
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a.monic(), i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def poly_square_free(p: Poly) -> Poly:
    """The monic representative of p's square class: odd-multiplicity part."""
    out = Poly.constant(p.field, 1)
    for factor, mult in square_free_decomposition(p):
        if mult % 2:
            out = out * factor
    return out


# --------------------------------------------------------------------------
# rational functions
# --------------------------------------------------------------------------

class RatFunc:
    """Quotient of two polynomials, reduced, with monic denominator.

    The form is canonical: numerator and denominator are coprime, the
    denominator is monic and zero is 0/1, so equality compares the two
    polynomials coefficient by coefficient.  The Euclidean gcd runs only
    when both sides have positive degree; a constant side is coprime to
    anything.  Negation, inversion and powers start from an already
    coprime pair and skip it, and so do a zero operand and a product with
    a nonzero constant c, since (c*n, d) stays coprime with d monic.  A
    sum over one denominator d adds the numerators over d, so the gcd runs
    only when d is not constant.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.constant(den.field, 1)
        elif num.degree > 0 and den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        self._set_monic(num, den)

    def _set_monic(self, num: Poly, den: Poly) -> None:
        lead = den.leading
        if not _is_one(lead):
            lead_inv = den.field.invert(lead)
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.field = num.field
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den for a pair known to be coprime: no gcd is taken."""
        out = cls.__new__(cls)
        out._set_monic(num, den)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.constant(p.field, 1))

    @classmethod
    def constant(cls, field: CoefficientField, c) -> "RatFunc":
        return cls(Poly.constant(field, c), Poly.constant(field, 1))

    @classmethod
    def variable(cls, field: CoefficientField) -> "RatFunc":
        return cls.from_poly(Poly.variable(field))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __eq__(self, other) -> bool:
        pair = self._level_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is self.field:
                return other
            if isinstance(self.field, RationalFunctions) and other.field is self.field.base:
                return RatFunc.constant(self.field, other)  # constant coefficient
            return NotImplemented
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        try:
            return RatFunc.constant(self.field, other)
        except TypeError:
            return NotImplemented

    def _level_pair(self, other):
        """Bring both operands to a common level, lifting constants up."""
        b = self._coerce(other)
        if b is not NotImplemented:
            return self, b
        if isinstance(other, RatFunc):
            a = other._coerce(self)
            if a is not NotImplemented:
                return a, other
        return None

    # -- field operations -----------------------------------------------

    def __add__(self, other):
        pair = self._level_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero() or b.is_zero():
            return b if a.is_zero() else a
        if a.den == b.den:
            return RatFunc(a.num + b.num, a.den)
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._coprime(-self.num, self.den)

    def __sub__(self, other):
        pair = self._level_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __mul__(self, other):
        pair = self._level_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero() or b.is_zero():
            return a if a.is_zero() else b
        if a.is_constant():
            return RatFunc._coprime(a.num * b.num, b.den)
        if b.is_constant():
            return RatFunc._coprime(a.num * b.num, a.den)
        return RatFunc(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero function")
        return RatFunc._coprime(self.den, self.num)

    def __truediv__(self, other):
        pair = self._level_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc._coprime(self.num ** n, self.den ** n)

    def evaluate(self, value):
        den = self.den.evaluate(value)
        return self.num.evaluate(value) * _generic_invert(den)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _generic_invert(x):
    if isinstance(x, (int, Fraction)):
        return QQ.invert(x)
    if isinstance(x, TowerElem):
        return x.inv()
    if isinstance(x, RatFunc):
        return x.inv()
    raise TypeError(f"cannot invert {x!r}")


# --------------------------------------------------------------------------
# places of the projective line
# --------------------------------------------------------------------------

class Place:
    """A closed point of P^1 over the base: monic irreducible, or infinity.

    Irreducibility is verified exactly through degree 2 over any base,
    and below degree 6 over Q, where the factorizer of ``factor_poly`` is
    complete; square-freeness is always enforced.  The desk computations
    never go beyond quadratic places.
    """

    __slots__ = ("poly", "field")

    def __init__(self, poly: Optional[Poly], field: CoefficientField):
        self.poly = poly
        self.field = field
        if poly is not None:
            self._validate(poly)

    @classmethod
    def infinite(cls, field: CoefficientField) -> "Place":
        return cls(None, field)

    @classmethod
    def finite(cls, poly: Poly) -> "Place":
        return cls(poly, poly.field)

    @staticmethod
    def _validate(poly: Poly) -> None:
        if poly.degree < 1:
            raise ValueError("a finite place needs a non-constant polynomial")
        field = poly.field
        if not _is_one(poly.leading):
            raise ValueError("finite places must be monic")
        if poly.degree == 1:
            return
        if poly.gcd(poly.derivative()).degree > 0:
            raise ValueError(f"{poly} is not square-free")
        if poly.degree == 2:
            # t^2 + u t + v is reducible iff u^2 - 4v is a square
            u, v = poly.coeff(1), poly.coeff(0)
            disc = u * u - v * 4
            if field.is_square(disc):
                raise ValueError(f"{poly} splits over the base field")
            return
        if poly.degree < 6 and isinstance(field, RationalField):
            if len(_split_square_free(poly)) > 1:
                raise ValueError(f"{poly} is reducible over Q")
            return
        raise ValueError(
            f"cannot certify irreducibility in degree {poly.degree}"
        )

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        if self.field is not other.field:
            return False
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        return self.poly == other.poly

    def __hash__(self):
        return hash((id(self.field), None if self.poly is None else hash(self.poly)))

    def __str__(self):
        return "infinity" if self.is_infinite else str(self.poly)

    def __repr__(self):
        return f"Place({self})"

    @functools.lru_cache(maxsize=1024)
    def residue_field(self) -> "ResidueField":
        """The residue field, shared by equal places so that they reduce
        into one residue tower instance.  The bound keeps a long-running
        process from holding every place it ever met; a working set larger
        than it would rebuild (and so re-tower) evicted places."""
        return ResidueField.of(self)


def valuation(f: Union[RatFunc, Poly], place: Place) -> int:
    """Order of vanishing of ``f`` at the place; poles are negative."""
    if isinstance(f, Poly):
        f = RatFunc.from_poly(f)
    if f.is_zero():
        raise ZeroDivisionError("the zero function has no valuation")
    if place.is_infinite:
        return f.den.degree - f.num.degree
    # num and den are coprime, so at most one of them vanishes at the place
    return _poly_order(f.num, place.poly) or -_poly_order(f.den, place.poly)


def _poly_order(p: Poly, q: Poly) -> int:
    """The multiplicity in p of q, which is monic (``Place._validate``): a
    division step subtracts c*q for the top slot c, with no inverse, and
    leaves c in place as the quotient coefficient instead of cancelling it;
    the remainder is the low ``deg q`` slots."""
    if p.is_zero():
        raise ZeroDivisionError("zero polynomial")
    field, d = p.field, q.degree
    low = [(j, b) for j, b in enumerate(q.coeffs[:d]) if not field.is_zero(b)]
    coeffs, order = p.coeffs, 0
    while len(coeffs) > d:
        rem = list(coeffs)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d]
            if not field.is_zero(c):
                for j, b in low:
                    rem[i + j] = rem[i + j] - c * b
        if not all(field.is_zero(r) for r in rem[:d]):
            break
        coeffs, order = rem[d:], order + 1
    return order


# --------------------------------------------------------------------------
# residue fields and reduction
# --------------------------------------------------------------------------

class ResidueField:
    """The residue field at a place, with an exact reduction map.

    ``kind`` is one of ``"base"`` (degree-1 or infinite places: reduction
    lands in the base coefficient field) and ``"quadratic"`` (degree-2
    places over Q or over a tower: reduction lands in a tower extension
    holding a root ``beta`` of the place polynomial).  ``class_field`` is
    the coefficient field residue values live in -- the place's own field,
    or the residue tower -- and its ``coerce`` is the one way a scalar
    enters the residue field.  ``fibre_field`` is k(res)(x), the field of
    the brute-force vertical residues on the ruled surface: rational
    functions over a copy of ``class_field`` that prints its polynomials
    in x.
    """

    def __init__(self, place: Place, kind: str, *, tower=None, beta=None, root=None):
        self.place = place
        self.kind = kind
        self.tower = tower
        self.beta = beta
        self.root = root
        self.class_field = place.field if tower is None else TowerCoefficients(tower)
        coeff = object.__new__(type(self.class_field))
        coeff.__dict__.update(vars(self.class_field), poly_var="x")
        self.fibre_field = RationalFunctions("res", coeff)

    @classmethod
    def of(cls, place: Place) -> "ResidueField":
        field = place.field
        if place.is_infinite:
            return cls(place, "base")
        if place.degree == 1:
            root = -place.poly.coeff(0)
            return cls(place, "base", root=root)
        if place.degree == 2:
            u, v = place.poly.coeff(1), place.poly.coeff(0)
            disc = u * u - v * 4
            if isinstance(field, RationalField):
                tower = Tower(f"Q[T]/({place.poly})")
                sqrt_disc = tower.add_step("sqrt_disc", disc, on_degenerate="error")
                beta = (sqrt_disc - tower.rational(u)) * Fraction(1, 2)
            elif isinstance(field, TowerCoefficients):
                tower = field.tower.extend(
                    "res_sqrt_disc", disc, label=f"{field.tower.label}[T]/({place.poly})"
                )
                beta = (tower.gen("res_sqrt_disc") - tower.lift(u)) * Fraction(1, 2)
            else:
                raise NotImplementedError(
                    "quadratic residue fields are only realised over Q or a tower"
                )
            return cls(place, "quadratic", tower=tower, beta=beta)
        raise NotImplementedError(
            f"residue fields of degree {place.degree} are out of scope"
        )

    # -- the reduction map ----------------------------------------------

    def reduce(self, f: RatFunc):
        """Image of a unit ``f`` in the residue field."""
        place = self.place
        if valuation(f, place) != 0:
            raise ValueError(f"{f} is not a unit at {place}")
        if place.is_infinite:
            return f.num.leading * _generic_invert(f.den.leading)
        if self.kind == "base":
            return f.evaluate(self.root)
        num = self._eval_at_beta(f.num)
        return num * _generic_invert(self._eval_at_beta(f.den))

    def _eval_at_beta(self, p: Poly):
        acc = self.tower.zero()
        for c in reversed(p.coeffs):
            acc = acc * self.beta + self.class_field.coerce(c)
        return acc

    def coordinates(self, value) -> tuple:
        """(A, B) over the base with ``value = A + B*beta``, at a quadratic
        place: the inverse of ``coerce(A) + beta * coerce(B)``."""
        even, odd = self.class_field.coerce(value).split(len(self.tower.steps) - 1)
        x_part, y_part = self._descend(even), self._descend(odd)
        # beta = (sqrt_disc - u)/2  =>  sqrt_disc = 2*beta + u
        return x_part + y_part * self.place.poly.coeff(1), 2 * y_part

    def norm_to_base(self, element):
        """Norm down to the base field of the place; at degree-1 and
        infinite places the element already lies there."""
        if self.kind == "base":
            return element
        # the residue tower's top step is the adjoined sqrt(disc): conjugation
        # (beta -> -u - beta) negates it and fixes everything below
        top = len(self.tower.steps) - 1
        conj = TowerAuto(self.tower, {self.tower.steps[top].name: -self.tower.root(top)})
        return self._descend(element * conj(element))

    def _descend(self, element):
        top = len(self.tower.steps) - 1
        for mono in element.coeffs:
            if top in mono:
                raise ArithmeticError("norm did not land in the base field")
        if isinstance(self.place.field, RationalField):
            if not element.is_rational():
                raise ArithmeticError("norm over Q is not rational")
            return element.as_rational()
        base_tower = self.place.field.tower
        return TowerElem(base_tower, element.coeffs)


# --------------------------------------------------------------------------
# support and factorization
# --------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    """Positive divisors of a nonzero integer; raises when its factorization
    is incomplete, since a missed divisor could hide a factor."""
    fz = arith.factorize(abs(n))
    if not fz.complete:
        raise ArithmeticError(f"cannot list the divisors of {n}: {fz}")
    out = [1]
    for prime, exp in fz.factors.items():
        out = [d * prime**k for d in out for k in range(exp + 1)]
    return out


def _signed_divisors(n: int) -> list[int]:
    positive = _divisors(n)
    return positive + [-d for d in positive]


def _integer_coeffs(p: Poly) -> list[int]:
    """The primitive integer multiple of p with positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def _int_value(ints: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _rational_root(p: Poly) -> Optional[Fraction]:
    """A rational root r/s of p, or None: in lowest terms, r divides the
    constant and s the leading coefficient of p's integer form."""
    ints = _integer_coeffs(p)
    if ints[0] == 0:
        return Fraction(0)
    for s, r in itertools.product(_divisors(ints[-1]), _signed_divisors(ints[0])):
        if math.gcd(r, s) == 1 and p.evaluate(Fraction(r, s)) == 0:
            return Fraction(r, s)
    return None


def _quadratic_factor(p: Poly) -> Optional[Poly]:
    """A monic quadratic factor of p, or None; p must have no rational root.

    Kronecker's method at t = 0, 1, -1: an integer factor q = a t^2 + b t
    + c of p's integer form f has a | lc(f), c | f(0) and q(1) | f(1); then
    b = q(1) - a - c, and q(-1), q(2) and q(-2) must divide f(-1), f(2) and
    f(-2) before any polynomial division is tried.  None of these values of
    f is zero, because p has no rational root."""
    ints = _integer_coeffs(p)
    at = {x: _int_value(ints, x) for x in (1, -1, 2, -2)}
    for a, c, v in itertools.product(
        _divisors(ints[-1]), _signed_divisors(ints[0]), _signed_divisors(at[1])
    ):
        b = v - a - c
        if all(_divides(a * x * x + b * x + c, at[x]) for x in (-1, 2, -2)):
            quad = Poly(QQ, [Fraction(c, a), Fraction(b, a), 1])
            if p.divmod(quad)[1].is_zero():
                return quad
    return None


def _divides(d: int, n: int) -> bool:
    return d != 0 and n % d == 0


def _split_square_free(p: Poly) -> list[Poly]:
    """The monic irreducible factors over Q of a monic square-free p.

    Complete below degree 6, and at any degree once every factor has
    degree <= 2; a leftover of degree >= 6 with no such factor raises
    NotImplementedError."""
    if p.degree == 1:
        return [p]
    if p.degree == 2:
        u, v = p.coeff(1), p.coeff(0)
        disc = u * u - v * 4
        if not arith.rational_is_square(disc):
            return [p]
        r = arith.rational_sqrt(disc)
        return [Poly(QQ, [Fraction(u - r, 2), 1]), Poly(QQ, [Fraction(u + r, 2), 1])]
    root = _rational_root(p)
    if root is not None:
        factor = Poly(QQ, [-root, 1])
        return [factor] + _split_square_free(p // factor)
    if p.degree == 3:
        return [p]
    factor = _quadratic_factor(p)
    if factor is not None:
        return [factor] + _split_square_free(p // factor)
    if p.degree >= 6:
        raise NotImplementedError(
            f"{p} has no factor of degree <= 2 over Q, and factoring degree "
            f"{p.degree} beyond that is out of scope"
        )
    return [p]


def _factor_rational_poly(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities over Q.

    They come in the order of ``sympy.Poly.factor_list``: by degree, then
    multiplicity, then the coefficients (highest first) of the factor's
    primitive integer form."""
    out = [
        (factor, mult)
        for part, mult in square_free_decomposition(p)
        for factor in _split_square_free(part)
    ]
    out.sort(key=lambda fm: (fm[0].degree, fm[1], _integer_coeffs(fm[0])[::-1]))
    return out


def _factor_tower_poly(p: Poly) -> list[tuple[Poly, int]]:
    """[(monic p, 1)] over a tower when p is linear or an irreducible
    quadratic; raises NotImplementedError for a split quadratic and for
    degree 3 and up."""
    monic = p.monic()
    if monic.degree > 2:
        raise NotImplementedError(
            f"factorization over {p.field.name} beyond degree 2 is out of scope"
        )
    if monic.degree == 2:
        u, v = monic.coeff(1), monic.coeff(0)
        if p.field.is_square(u * u - v * 4):
            raise NotImplementedError(
                "splitting a reducible quadratic over a tower is not supported"
            )
    return [(monic, 1)]


def factor_poly(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of p with multiplicities.

    Over Q this is exact and needs no guess: complete below degree 6, and
    at any degree whenever every factor has degree <= 2.  Otherwise it
    raises NotImplementedError, and ArithmeticError when a coefficient it
    needs the divisors of cannot be factored completely.  Over a tower
    only degree <= 2 with no splitting is supported.
    """
    if p.is_zero():
        raise ZeroDivisionError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    if isinstance(p.field, RationalField):
        return _factor_rational_poly(p)
    return _factor_tower_poly(p)


def support_places(f: RatFunc, *, include_infinity: bool = True) -> dict[Place, int]:
    """All places where ``f`` has a zero or pole, with multiplicities."""
    if f.is_zero():
        raise ZeroDivisionError("the zero function has no divisor")
    out: dict[Place, int] = {}
    for poly, mult in factor_poly(f.num):
        place = Place.finite(poly)
        out[place] = out.get(place, 0) + mult
    for poly, mult in factor_poly(f.den):
        place = Place.finite(poly)
        out[place] = out.get(place, 0) - mult
    out = {place: m for place, m in out.items() if m}
    if include_infinity:
        v_inf = f.den.degree - f.num.degree
        if v_inf:
            out[Place.infinite(f.field)] = v_inf
    return out


# --------------------------------------------------------------------------
# square classes of field elements
# --------------------------------------------------------------------------

def rational_square_free(x: Union[int, Fraction]) -> int:
    """The canonical square-free representative of x modulo squares."""
    x = QQ.coerce(x)
    if x == 0:
        raise ZeroDivisionError("0 has no square class")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    fact = arith.factorize(abs(n))
    if not fact.complete:
        raise ArithmeticError(f"cannot certify the square-free part of {x}")
    out = sign
    for prime, exp in fact.factors.items():
        if exp % 2:
            out *= prime
    return out


def ratfunc_square_free(f: RatFunc) -> tuple[Poly, object]:
    """Split a nonzero f into (monic square-free polynomial part, constant)
    modulo squares of the function field."""
    if f.is_zero():
        raise ZeroDivisionError("0 has no square class")
    combined = f.num * f.den  # same class as f modulo squares
    # combined = lead * prod q_i^{e_i}; dividing by lead * (odd part) leaves
    # every exponent even, i.e. a perfect square of a monic polynomial.
    return poly_square_free(combined), combined.leading


def _is_monic_square(g: Poly) -> bool:
    """Whether the monic g of even degree 2m > 0 is r*r for a monic r.

    r's coefficients come from the top half of g, from the top down: the
    t^(2m-k) coefficient of r^2 is 2*r_(m-k) plus products of the r_i
    already known."""
    field, m = g.field, g.degree // 2
    half = field.invert(field.coerce(2))
    r = [None] * m + [field.one()]
    for k in range(1, m + 1):
        acc = g.coeffs[2 * m - k]
        for i in range(1, k):
            acc = acc - r[m - i] * r[m - k + i]
        r[m - k] = acc * half
    root = Poly(field, r, inner=True)
    return root * root == g


def ratfunc_is_square(f: RatFunc) -> bool:
    """Whether the nonzero f is a square in k(t).

    num and den are coprime and den is monic, so f = num * den / den^2 is
    a square iff num = lead * r^2 and den = s^2 with r, s monic and lead a
    square in k (the same answer as ratfunc_square_free, without Yun's
    gcds).  The degrees are tested first, then the two monic roots, and the
    base field's square test last, so a base field that can raise (an
    inconclusive tower) is asked only about a lead that decides it."""
    if f.is_zero():
        raise ZeroDivisionError("0 is not classified")
    num, den = f.num, f.den
    if num.degree % 2 or den.degree % 2:
        return False
    for g in (num, den):
        if g.degree and not _is_monic_square(g.monic()):
            return False
    return f.field.is_square(num.leading)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def parse_ratfunc(
    text: str,
    var: str,
    field: CoefficientField,
    env: Optional[dict] = None,
) -> RatFunc:
    """Parse an arithmetic expression into a rational function in ``var``."""
    env = env or {}

    def lookup(name: str) -> RatFunc:
        if name == var:
            return RatFunc.variable(field)
        if name in env:
            value = env[name]
            return value if isinstance(value, RatFunc) else RatFunc.constant(field, value)
        raise ValueError(f"unknown name {name!r} in rational function")

    return parse_element(text, lookup, lambda x: RatFunc.constant(field, x))

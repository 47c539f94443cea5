"""Quaternion symbols over function fields and their residue calculus.

The heart of the package's unramified-class computations.  Three layers:

* symbols ``(f, g)`` over k(t) -- or over k(t)(x) for the ruled surface --
  with the tame-residue closed formula at every place, and full residue
  profiles with the product-formula consistency that entails;

* corestricted classes on split double covers: a declared section
  function expands into a formal sum of slot symbols, and its ramification
  is computed twice -- once structurally (component places carry the
  declared function, the section at infinity carries its norm, vertical
  fibers are cleared slot by slot against powers of the fiber polynomial)
  and once by brute force through Gauss valuations.  The two routes are
  independently coded: the brute-force route and the symbol residues
  share one tame-residue kernel (:func:`_tame`), while the structured
  route writes its one fiber closed form in :func:`_cleared`;

* Faddeev reconstruction: given target residue classes at places of the
  t-line (degree <= 2 or infinity), either build an explicit symbol sum
  realising them exactly, or certify the corestriction-sum obstruction
  that makes the profile unrealisable.

Every check -- route A against route B, the component residues against
the declared sections, the Faddeev round trip against its spec --
decides place by place through one predicate (:func:`_agree`); the two
desk checks print their rows through :func:`_compare`.

Everything is exact: coefficients are rationals or quadratic-tower
elements, and residue-field arithmetic goes through the tower engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import f2
from .funcfield import (
    CoefficientField,
    Place,
    Poly,
    QQ,
    RatFunc,
    RationalField,
    RationalFunctions,
    TowerCoefficients,
    parse_ratfunc,
    rational_square_free,
    ratfunc_square_free,
    support_places,
    valuation,
)
from .towers import TowerElem

__all__ = [
    "XCOEFF",
    "t_function",
    "x_variable",
    "FunctionFieldSymbol",
    "SymbolSum",
    "SquareClass",
    "residue_symbol",
    "symbol_profile",
    "gauss_valuation",
    "gauss_reduce",
    "SurfacePlace",
    "SurfaceProfile",
    "SplitCover",
    "KummerCover",
    "DeclaredFunction",
    "DivisorDeclarationError",
    "ResidueParityError",
    "expand_corestriction",
    "ramification_profile",
    "expanded_symbol_profile",
    "compare_routes",
    "check_component_residues",
    "divisor_parity_membership",
    "parity_generators",
    "standard_desks",
    "DeskCover",
    "ResidueSpec",
    "faddeev_obstruction",
    "faddeev_reconstruct",
    "repair_spec",
    "FaddeevRepairError",
]


#: coefficient field of polynomials in x: rational functions of t
XCOEFF = RationalFunctions("t", QQ)


def t_function(text: str) -> RatFunc:
    """Parse an element of Q(t)."""
    return parse_ratfunc(text, "t", QQ)


def x_variable() -> RatFunc:
    """The coordinate x of the ruled surface, as an element of Q(t)(x)."""
    return RatFunc.variable(XCOEFF)


def _tvar() -> RatFunc:
    return RatFunc.variable(QQ)


# ==========================================================================
# square classes
# ==========================================================================

def _fields_compatible(f1: CoefficientField, f2: CoefficientField) -> bool:
    if f1 is f2:
        return True
    if isinstance(f1, RationalField) and isinstance(f2, RationalField):
        return True
    if isinstance(f1, TowerCoefficients) and isinstance(f2, TowerCoefficients):
        return f1.tower is f2.tower
    if isinstance(f1, RationalFunctions) and isinstance(f2, RationalFunctions):
        return _fields_compatible(f1.base, f2.base)
    return False


class SquareClass:
    """An element of k*/k*^2 for one of the exact fields in play."""

    __slots__ = ("field", "value")

    def __init__(self, field: CoefficientField, value):
        value = field.coerce(value)
        if field.is_zero(value):
            raise ZeroDivisionError("0 has no square class")
        self.field = field
        self.value = value

    @classmethod
    def trivial(cls, field: CoefficientField) -> "SquareClass":
        return cls(field, 1)

    def is_trivial(self) -> bool:
        return self.field.is_square(self.value)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if not _fields_compatible(self.field, other.field):
            raise TypeError("square classes live in incompatible fields")
        return SquareClass(self.field, self.value * other.value)

    def same_class(self, other: "SquareClass") -> bool:
        if not _fields_compatible(self.field, other.field):
            # a constant class embeds into the rational-function level
            if isinstance(self.field, RationalFunctions) and _fields_compatible(
                self.field.base, other.field
            ):
                return self.same_class(SquareClass(self.field, other.value))
            if isinstance(other.field, RationalFunctions):
                return other.same_class(self)
            raise TypeError(
                f"cannot compare classes over {self.field!r} and {other.field!r}"
            )
        return (self * other).is_trivial()

    def canonical(self):
        """A reduced representative (display / serialization)."""
        v = self.value
        if isinstance(v, Fraction):
            return rational_square_free(v)
        if isinstance(v, RatFunc) and isinstance(v.field, RationalField):
            sf, lead = ratfunc_square_free(v)
            try:
                lead = rational_square_free(lead)
            except ArithmeticError:  # pragma: no cover - giant leading parts
                pass
            return RatFunc.from_poly(sf) * lead
        return v

    def __str__(self):
        return str(self.canonical())

    def __repr__(self):
        return f"SquareClass({self})"


# ==========================================================================
# symbols and residues
# ==========================================================================

class FunctionFieldSymbol:
    """The quaternion symbol ``(f, g)`` with f, g nonzero field elements."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        if isinstance(f, RatFunc) and not isinstance(g, RatFunc):
            g = f._coerce(g)
        elif isinstance(g, RatFunc) and not isinstance(f, RatFunc):
            f = g._coerce(f)
        pair = f._level_pair(g)
        if pair is None:
            raise TypeError(f"incompatible symbol slots {f!r}, {g!r}")
        f, g = pair
        if f.is_zero() or g.is_zero():
            raise ZeroDivisionError("symbol slots must be nonzero")
        self.f = f
        self.g = g

    @property
    def field(self) -> CoefficientField:
        return self.f.field

    def __str__(self):
        return f"({self.f}, {self.g})"

    def __repr__(self):
        return f"FunctionFieldSymbol{str(self)}"


class SymbolSum:
    """A formal sum of symbols; residues multiply across the terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[FunctionFieldSymbol] = ()):
        self.terms = list(terms)
        for term in self.terms:
            if not isinstance(term, FunctionFieldSymbol):
                raise TypeError(f"not a symbol: {term!r}")

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"

    def __repr__(self):
        return f"SymbolSum[{self}]"


def _unit_part(fn: RatFunc, place: Place, v: int) -> RatFunc:
    """``fn`` divided by the ``v``-th power of a uniformizer at the place.

    At a finite place of fn's own field, v is fn's valuation there: the
    place polynomial to the |v| divides the numerator (v > 0) or the
    denominator (v < 0) exactly, and the quotient pair stays coprime with
    a monic denominator, so no gcd is taken.  At infinity, and at a
    t-place under a symbol over k(t)(x), whose v is a Gauss valuation, the
    product with the uniformizer's power is reduced as usual.
    """
    if v == 0:
        return fn
    if place.is_infinite:
        pi = RatFunc.variable(place.field).inv()
    elif place.field is not fn.field:
        pi = RatFunc.from_poly(place.poly)
    elif v > 0:
        return RatFunc._coprime(fn.num // place.poly ** v, fn.den)
    else:
        return RatFunc._coprime(fn.num, fn.den // place.poly ** -v)
    return fn * pi ** (-v)


def _tame(sym: FunctionFieldSymbol, a: int, b: int, unit, value):
    """``value`` times the tame residue ``(-1)^{ab} f^b g^{-a}`` of
    ``(f, g)``, where a and b are the valuations of f and g at the place
    and ``unit(h, v)`` reduces the unit part of h, of valuation v, into
    the residue field.

    The unit parts are reduced *before* exponentiation: writing
    u = f pi^{-a} and w = g pi^{-b}, the reduction of the full expression
    is u-bar^b w-bar^{-a}, and only the exponent parities matter for the
    square class.  So u is reduced when b is odd, w when a is odd, and the
    sign applies when both are.  This keeps the arithmetic in the residue
    field instead of building huge function-field powers.
    """
    if b % 2:
        value = value * unit(sym.f, a)
    if a % 2:
        value = value * unit(sym.g, b)
    if (a * b) % 2:
        value = -value
    return value


def residue_symbol(sym: FunctionFieldSymbol, place: Place) -> SquareClass:
    """Tame residue of ``(f, g)`` at a place of the projective line: the
    class of ``(-1)^{v(f)v(g)} f^{v(g)} g^{-v(f)}`` reduced at the place
    (:func:`_tame`)."""
    rf = place.residue_field()

    def unit(fn: RatFunc, v: int):
        return rf.reduce(_unit_part(fn, place, v))

    value = _tame(sym, valuation(sym.f, place), valuation(sym.g, place),
                  unit, rf.class_field.one())
    return SquareClass(rf.class_field, value)


def _as_symbol_list(syms) -> list[FunctionFieldSymbol]:
    if isinstance(syms, FunctionFieldSymbol):
        return [syms]
    return list(syms)


def _verify_support(fn: RatFunc, places: Sequence[Place]) -> None:
    """Check that the finite places listed exhaust fn's zeros and poles."""
    rest = fn
    for place in places:
        if place.is_infinite:
            continue
        v = valuation(fn, place)
        if v:
            rest = rest * RatFunc.from_poly(place.poly) ** (-v)
    if not rest.is_constant():
        raise ValueError(
            f"support of {fn} is not exhausted by the given places"
        )


def symbol_profile(
    syms,
    *,
    places: Optional[Sequence[Place]] = None,
    keep_trivial: bool = False,
) -> dict[Place, SquareClass]:
    """Residues of a symbol sum at every place where they can be nonzero.

    With ``places=None`` the support is discovered by factoring numerators
    and denominators (rational base field); otherwise the given places
    are used after checking that they exhaust the support.
    """
    syms = _as_symbol_list(syms)
    if not syms:
        return {}
    base_field = syms[0].field
    if places is None:
        seen: dict[Place, None] = {}
        for sym in syms:
            for fn in (sym.f, sym.g):
                for place in support_places(fn, include_infinity=False):
                    seen.setdefault(place, None)
        place_list = list(seen) + [Place.infinite(base_field)]
    else:
        place_list = list(places)
        if not any(p.is_infinite for p in place_list):
            place_list.append(Place.infinite(base_field))
        for sym in syms:
            for fn in (sym.f, sym.g):
                _verify_support(fn, place_list)
    place_list.sort(key=_place_sort_key)
    out: dict[Place, SquareClass] = {}
    for place in place_list:
        total: Optional[SquareClass] = None
        for sym in syms:
            cls = residue_symbol(sym, place)
            total = cls if total is None else total * cls
        if total is None:  # pragma: no cover - syms nonempty
            continue
        if keep_trivial or not total.is_trivial():
            out[place] = total
    return out


def _place_sort_key(place: Place):
    if place.is_infinite:
        return (1, 0, "")
    return (0, place.degree, str(place.poly))


# ==========================================================================
# Gauss valuations: vertical behaviour of two-variable symbols
# ==========================================================================

def _poly_gauss(p: Poly, tplace: Place) -> int:
    if p.is_zero():
        raise ZeroDivisionError("gauss valuation of 0")
    return min(
        valuation(c, tplace)
        for c in p.coeffs
        if not p.field.is_zero(c)
    )


def gauss_valuation(F: RatFunc, tplace: Place) -> int:
    """The Gauss extension of ``v_t`` to k(t)(x): min over coefficients."""
    return _poly_gauss(F.num, tplace) - _poly_gauss(F.den, tplace)


def _uniformizer(tplace: Place) -> RatFunc:
    if tplace.is_infinite:
        return RatFunc.constant(tplace.field, 1) / RatFunc.variable(tplace.field)
    return RatFunc.from_poly(tplace.poly)


def _reduce_coefficient(c: RatFunc, tplace: Place, rf, coeff_field):
    if c.is_zero():
        return coeff_field.zero()
    v = valuation(c, tplace)
    if v > 0:
        return coeff_field.zero()
    if v < 0:
        raise ValueError(f"coefficient {c} is not integral at {tplace}")
    return coeff_field.coerce(rf.reduce(c))


def gauss_reduce(F: RatFunc, tplace: Place) -> RatFunc:
    """Reduce a Gauss-unit of k(t)(x) into k(residue)(x)."""
    rf = tplace.residue_field()
    coeff_field = rf.fibre_field.base
    mn = _poly_gauss(F.num, tplace)
    md = _poly_gauss(F.den, tplace)
    if mn != md:
        raise ValueError(f"{F} is not a Gauss unit at {tplace}")
    pi = _uniformizer(tplace)
    num = Poly(coeff_field, [
        _reduce_coefficient(XCOEFF.coerce(c) * pi ** (-mn), tplace, rf, coeff_field)
        for c in F.num.coeffs
    ])
    den = Poly(coeff_field, [
        _reduce_coefficient(XCOEFF.coerce(c) * pi ** (-md), tplace, rf, coeff_field)
        for c in F.den.coeffs
    ])
    return RatFunc(num, den)


def vertical_residue(syms, tplace: Place) -> SquareClass:
    """Brute-force vertical residue of a symbol sum at a fiber of the t-line.

    Returns a square class of k(residue)(x), the residue field's
    ``fibre_field``; the class of a corestricted sum is expected to be
    constant (i.e. come from k(residue)), and the profile machinery flags
    it when it is not.

    Each symbol ``(f, g)`` contributes the tame residue of :func:`_tame`,
    with a and b the Gauss valuations of f and g and the unit parts,
    Gauss units, reduced by :func:`gauss_reduce`.  Nothing here uses the
    structure of the corestriction.
    """
    field = tplace.residue_field().fibre_field

    def unit(fn: RatFunc, v: int) -> RatFunc:
        return gauss_reduce(_unit_part(fn, tplace, v), tplace)

    total = field.one()
    for sym in _as_symbol_list(syms):
        total = _tame(sym, gauss_valuation(sym.f, tplace),
                      gauss_valuation(sym.g, tplace), unit, total)
    return SquareClass(field, total)


# ==========================================================================
# places and profiles on the ruled surface
# ==========================================================================

class SurfacePlace:
    """A codimension-1 locus of the ruled surface over the t-line.

    ``axis='x'``: horizontal curves (finite: an irreducible polynomial in
    x over k(t); infinite: the section x = infinity).  ``axis='t'``:
    vertical fibers over places of the t-line.  Immutable and hashable,
    equal when axis and place are equal.
    """

    __slots__ = ("axis", "place")

    def __init__(self, axis: str, place: Place):
        if axis not in ("x", "t"):
            raise ValueError(f"unknown axis {axis!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "place", place)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.axis, self.place) == (other.axis, other.place)

    def __hash__(self):
        return hash((self.axis, self.place))

    def __str__(self):
        if self.axis == "x":
            if self.place.is_infinite:
                return "section x = infinity"
            return f"curve {self.place.poly} = 0"
        if self.place.is_infinite:
            return "fiber t = infinity"
        return f"fiber {self.place.poly} = 0"

    def sort_key(self):
        return (0 if self.axis == "x" else 1,) + _place_sort_key(self.place)


class SurfaceProfile:
    """Residue classes of a corestricted sum along surface places."""

    def __init__(
        self,
        entries: dict[SurfacePlace, SquareClass],
        support: Sequence[SurfacePlace],
    ):
        self.entries = dict(entries)
        self.support = sorted(support, key=SurfacePlace.sort_key)

    def entry(self, place: SurfacePlace) -> Optional[SquareClass]:
        return self.entries.get(place)

    def nontrivial(self) -> dict[SurfacePlace, SquareClass]:
        return {p: c for p, c in self.entries.items() if not c.is_trivial()}

    def to_pairs(self) -> list[tuple[str, str]]:
        out = []
        for place in self.support:
            cls = self.entries.get(place)
            out.append((str(place), "1" if cls is None else str(cls)))
        return out

    def __repr__(self):
        return f"SurfaceProfile({self.to_pairs()})"


# ==========================================================================
# covers of the t-line and declared section functions
# ==========================================================================

class DivisorDeclarationError(ValueError):
    """A declared divisor disagrees with computed valuations."""


class ResidueParityError(ArithmeticError):
    """A vertical residue fails to be constant: the section function does
    not satisfy the divisor-parity condition at that fiber."""


class SplitCover:
    """A hyperelliptic-style double cover y^2 = c'(t) h(x) with h split.

    ``h`` is the monic product of ``x - a_i`` over the declared roots
    a_i in k(t); the branch curve B = {h = 0} is the disjoint union of
    the component sections x = a_i.  The factor c'(t) does not enter the
    residues of the corestricted classes computed here, so it is not
    stored.
    """

    def __init__(self, roots: Sequence[RatFunc]):
        roots = tuple(QQ_ratfunc(r) for r in roots)
        if len(roots) < 2 or len(roots) % 2:
            raise ValueError("need an even number (>= 2) of roots: deg h = 2g + 2")
        for i, j in itertools.combinations(range(len(roots)), 2):
            if roots[i] == roots[j]:
                raise ValueError(f"h is not square-free: roots {i} and {j} coincide")
        self.roots = roots
        self._places = tuple(Place.finite(Poly(XCOEFF, [-r, 1])) for r in roots)

    @property
    def genus(self) -> int:
        return len(self.roots) // 2 - 1

    def h_poly(self) -> Poly:
        x = x_variable()
        h = RatFunc.constant(XCOEFF, 1)
        for a in self.roots:
            h = h * (x - a)
        return h.num

    def component_place(self, i: int) -> Place:
        return self._places[i]

    def horizontal_places(self) -> list[Place]:
        return list(self._places)

    def __repr__(self):
        return f"SplitCover(roots=[{', '.join(map(str, self.roots))}])"


class KummerCover:
    """A double cover y^2 = c'(t) (x^2 - m(t)) whose branch curve is
    rational: reduction at the branch place is realised by an explicit
    parametrisation (x(s), t(s)) with x(s)^2 = m(t(s)).  As for
    :class:`SplitCover`, the factor c'(t) is not stored."""

    def __init__(self, m: RatFunc, *, x_of_s: RatFunc, t_of_s: RatFunc):
        self.m = QQ_ratfunc(m)
        self.x_of_s = QQ_ratfunc(x_of_s)
        self.t_of_s = QQ_ratfunc(t_of_s)
        if not (self.x_of_s * self.x_of_s == self.m.evaluate(self.t_of_s)):
            raise ValueError("parametrisation does not satisfy x^2 = m(t)")
        #: classes on the branch curve live in Q(s)
        self.s_field = RationalFunctions("s", QQ)

    @property
    def genus(self) -> int:
        return 0

    def h_poly(self) -> Poly:
        mm = XCOEFF.coerce(self.m)
        return Poly(XCOEFF, [-mm, XCOEFF.coerce(0), XCOEFF.coerce(1)])

    def branch_place(self) -> Place:
        return Place.finite(self.h_poly())

    def horizontal_places(self) -> list[Place]:
        return [self.branch_place()]

    def branch_reduce(self, fn: RatFunc) -> RatFunc:
        """Image of a t-level function in k(B) = k(s)."""
        return fn.evaluate(self.t_of_s)

    def __repr__(self):
        return f"KummerCover(x^2 - ({self.m}))"


def QQ_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        if value.field is not QQ:
            raise TypeError("expected a rational function over Q")
        return value
    if isinstance(value, str):
        return t_function(value)
    return RatFunc.constant(QQ, value)


class DeclaredFunction:
    """A section function together with its declared divisor.

    Either one component function per root of a split cover, or a single
    base-field function (an element of k(t), giving the collapsed symbol
    ``(l, h(x))``).  The divisor is *declared* as (component, t-place,
    multiplicity) triples -- component ``None`` for the base form -- and
    is fully verified against computed valuations by :meth:`validate`.
    """

    def __init__(
        self,
        *,
        components: Optional[Sequence] = None,
        base: Optional[Union[RatFunc, int, str]] = None,
        divisor: Sequence[tuple] = (),
        label: str = "",
    ):
        if (components is None) == (base is None):
            raise ValueError("give either components or a base function")
        self.components = (
            None if components is None else tuple(QQ_ratfunc(c) for c in components)
        )
        self.base = None if base is None else QQ_ratfunc(base)
        if self.components is not None and any(c.is_zero() for c in self.components):
            raise ValueError("component functions must be nonzero")
        if self.base is not None and self.base.is_zero():
            raise ValueError("the base function must be nonzero")
        self.divisor = tuple(
            (comp, place, int(mult)) for comp, place, mult in divisor
        )
        self.label = label

    @property
    def is_base_form(self) -> bool:
        return self.base is not None

    def slot_functions(self, cover) -> tuple[RatFunc, ...]:
        if self.is_base_form:
            return tuple(self.base for _ in cover.roots)
        return self.components

    def _declared(self) -> dict:
        """The declared multiplicities summed per (component, place)."""
        out: dict = {}
        for comp, place, mult in self.divisor:
            out[comp, place] = out.get((comp, place), 0) + mult
        return out

    def validate(self, cover) -> None:
        degree = sum(mult * place.degree for _, place, mult in self.divisor)
        if degree != 0:
            raise DivisorDeclarationError(
                f"declared divisor of {self.label or 'function'} has degree {degree}"
            )
        if self.is_base_form:
            fns = {None: self.base}
        else:
            if not isinstance(cover, SplitCover):
                raise TypeError("component functions need a split cover")
            if len(self.components) != len(cover.roots):
                raise DivisorDeclarationError(
                    f"{len(self.components)} component functions for "
                    f"{len(cover.roots)} components"
                )
            fns = dict(enumerate(self.components))
        declared = self._declared()
        for comp, _ in declared:
            if comp not in fns:
                raise DivisorDeclarationError(f"unknown component {comp!r}")
        for comp, fn in fns.items():
            computed = support_places(fn)
            mine = {
                place: mult for (c, place), mult in declared.items()
                if c == comp and mult
            }
            if computed != mine:
                raise DivisorDeclarationError(
                    f"declared divisor of component {comp!r} is "
                    f"{_fmt_divisor(mine)}, computed {_fmt_divisor(computed)}"
                )


def _fmt_divisor(div: dict) -> str:
    if not div:
        return "0"
    return " + ".join(
        f"{mult}*({place})" for place, mult in sorted(div.items(), key=lambda kv: _place_sort_key(kv[0]))
    )


# ==========================================================================
# corestriction expansion and the two residue routes
# ==========================================================================

def expand_corestriction(cover, func: DeclaredFunction) -> SymbolSum:
    """The corestricted class as an explicit symbol sum over k(t)(x).

    Split cover, component form: one slot symbol ``(l_i, x - a_i)`` per
    component.  Base-field form (either cover): the projection formula
    collapses the sum to the single symbol ``(l, h(x))``.
    """
    func.validate(cover)
    if func.is_base_form:
        h = RatFunc.from_poly(cover.h_poly())
        lifted = RatFunc.constant(XCOEFF, func.base)
        return SymbolSum([FunctionFieldSymbol(lifted, h)])
    x = x_variable()
    terms = []
    for ell, a in zip(func.components, cover.roots):
        lifted = RatFunc.constant(XCOEFF, ell)
        terms.append(FunctionFieldSymbol(lifted, x - a))
    return SymbolSum(terms)


def _vertical_support(cover, func: DeclaredFunction) -> list[Place]:
    """The fibers where a residue can sit: t = infinity and the finite
    zeros and poles of the section functions, plus the poles of a split
    cover's roots or the zeros and poles of a Kummer cover's m.  ``func``
    has been validated, so its declared divisor names its own fibers."""
    places = dict.fromkeys(
        place for (_, place), mult in func._declared().items()
        if mult and not place.is_infinite
    )
    if isinstance(cover, KummerCover):
        places.update(dict.fromkeys(support_places(cover.m, include_infinity=False)))
    for a in cover.roots if isinstance(cover, SplitCover) else ():
        for place, mult in support_places(a, include_infinity=False).items():
            if mult < 0:
                places.setdefault(place, None)
    out = list(places)
    out.append(Place.infinite(QQ))
    out.sort(key=_place_sort_key)
    return out


def _profile(classes: list) -> SurfaceProfile:
    """The profile of (surface place, class or None) pairs: every place is
    in the support, and the nontrivial classes are its entries."""
    entries = {spot: cls for spot, cls in classes
               if cls is not None and not cls.is_trivial()}
    return SurfaceProfile(entries, [spot for spot, _ in classes])


def expanded_symbol_profile(cover, func: DeclaredFunction) -> SurfaceProfile:
    """Route B: residues of the expanded sum, computed by brute force.

    Horizontal places via the univariate residue formula over the
    coefficient field k(t) (:func:`_horizontal_residues`, which
    :func:`check_component_residues` also reads on its own); vertical
    fibers via Gauss valuations (:func:`vertical_residue`).  No appeal to
    the structure of the corestriction.
    """
    return _bruteforce(cover, expand_corestriction(cover, func),
                       _vertical_support(cover, func))


def _bruteforce(cover, syms: SymbolSum, fibers: Sequence[Place]) -> SurfaceProfile:
    """Route B on an expansion that has been validated, at the horizontal
    curves, the section at infinity and the given fibers."""
    places = cover.horizontal_places() + [Place.infinite(XCOEFF)]
    return _profile(_horizontal_residues(cover, syms, places)
                    + [(SurfacePlace("t", tplace), vertical_residue(syms, tplace))
                       for tplace in fibers])


def _horizontal_residues(cover, syms: SymbolSum, places: Sequence[Place]):
    """Route B at the given places of k(t)(x): (surface place, class)
    pairs, with no fiber computed."""
    out = []
    for place in places:
        if isinstance(cover, KummerCover) and not place.is_infinite:
            cls = _kummer_branch_residue(cover, syms, place)
        else:
            cls = None
            for sym in syms:
                c = residue_symbol(sym, place)
                cls = c if cls is None else cls * c
        out.append((SurfacePlace("x", place), cls))
    return out


def _kummer_branch_residue(cover: KummerCover, syms, place: Place) -> SquareClass:
    """Residue at the irreducible branch place of a Kummer cover: the tame
    residue of :func:`_tame`, with the unit parts reduced through the
    rational parametrisation of the branch curve."""

    def unit(fn: RatFunc, v: int) -> RatFunc:
        return _kummer_reduce(cover, _unit_part(fn, place, v))

    value = cover.s_field.one()
    for sym in syms:
        value = _tame(sym, valuation(sym.f, place), valuation(sym.g, place),
                      unit, value)
    return SquareClass(cover.s_field, value)


def _kummer_reduce(cover: KummerCover, u: RatFunc) -> RatFunc:
    """Evaluate a unit of k(t)(x) at the branch place in k(s): at
    x = x(s), t = t(s)."""

    def eval_poly(p: Poly) -> RatFunc:
        acc = RatFunc.constant(QQ, 0)
        for c in reversed(p.coeffs):
            c_s = XCOEFF.coerce(c).evaluate(cover.t_of_s)
            acc = acc * cover.x_of_s + c_s
        return acc

    num = eval_poly(u.num)
    den = eval_poly(u.den)
    if den.is_zero() or num.is_zero():
        raise ZeroDivisionError(
            "parametrised reduction hit a zero; clear the symbol first"
        )
    return num / den


def ramification_profile(cover, func: DeclaredFunction) -> SurfaceProfile:
    """Route A: the structured residue profile of the corestricted class.

    Horizontal: component places carry the class of the matching section
    function, all other horizontal curves are unramified, and the section
    at infinity carries the norm (the product over the slots) on a split
    cover and nothing on a Kummer cover, where v(h) = -deg h is even.
    Vertical: on a split cover each fiber is handled slot by slot --
    slots whose root stays finite must cancel in pairs through the
    identified points (else :class:`ResidueParityError`), and slots whose
    root has a pole are cleared against the matching power of the fiber
    polynomial, i.e. ``(l_i, x - a_i) = (l_i, p^mu (x - a_i)) - (l_i,
    p^mu)``, with the identity Moebius map as the coordinate change on the
    fiber.  On a Kummer cover the collapsed symbol ``(l, x^2 - m)`` has
    a closed-form fiber residue read off v(l) and v(m)
    (:func:`_kummer_vertical`).
    """
    func.validate(cover)
    return _structured(cover, func, _vertical_support(cover, func))


def _structured(cover, func: DeclaredFunction,
                fibers: Sequence[Place]) -> SurfaceProfile:
    """Route A on a validated function, at the horizontal curves, the
    section at infinity and the given fibers."""
    classes = _component_classes(cover, func)
    at_infinity = None
    if isinstance(cover, SplitCover):
        norm = RatFunc.constant(QQ, 1)
        for _, cls in classes:
            norm = norm * cls.value
        at_infinity = SquareClass(XCOEFF, norm)
    classes.append((SurfacePlace("x", Place.infinite(XCOEFF)), at_infinity))
    for tplace in fibers:
        classes.append((SurfacePlace("t", tplace),
                        _structured_vertical(cover, func, tplace)))
    return _profile(classes)


def _structured_vertical(cover, func: DeclaredFunction,
                         tplace: Place) -> Optional[SquareClass]:
    """One fiber of route A: the constant class there, a class of the
    residue field, or None when no slot leaves one."""
    if isinstance(cover, KummerCover):
        return _kummer_vertical(cover, func.base, tplace)
    rf = tplace.residue_field()
    finite_groups: dict = {}
    total = None

    for ell, a in zip(func.slot_functions(cover), cover.roots):
        m = valuation(ell, tplace)
        va = None if a.is_zero() else valuation(a, tplace)
        if va is not None and va < 0:
            # slot over the section at infinity: clear the pole against p^mu
            cls = _cleared(ell, m, a, va, tplace)
            total = cls if total is None else total * cls
        elif m:
            abar = rf.class_field.zero() if va is None or va > 0 else rf.reduce(a)
            finite_groups.setdefault(_residue_key(abar), [abar, 0])[1] += m

    odd = [abar for abar, mult in finite_groups.values() if mult % 2]
    if odd:
        points = ", ".join(f"x = {abar}" for abar in odd)
        raise ResidueParityError(
            f"vertical residue on the {SurfacePlace('t', tplace)} is not "
            f"constant: odd total multiplicity at {points}; the function "
            f"violates the divisor-parity condition on this fiber"
        )
    return total


def _kummer_vertical(cover: KummerCover, ell: RatFunc,
                     tplace: Place) -> Optional[SquareClass]:
    """Route A on a Kummer fiber, for the collapsed symbol (l, x^2 - m):
    its Gauss valuations are a = v(l) and b = min(0, v(m)).  With b = 0
    the residue is the class of (x^2 - m-bar)^a, a square unless a is odd
    and m-bar is nonzero, when it is not constant.  With b < 0 the pole of
    m dominates and :func:`_cleared` gives the class with h = m."""
    a = valuation(ell, tplace)
    vm = valuation(cover.m, tplace)
    if vm >= 0:
        if a % 2 and vm == 0:
            raise ResidueParityError(
                f"vertical residue at {tplace} is not constant"
            )
        return None
    return _cleared(ell, a, cover.m, vm, tplace)


def _cleared(ell: RatFunc, a: int, h: RatFunc, b: int,
             tplace: Place) -> SquareClass:
    """Route A's one fiber closed form, for a slot (l, x - h) or
    (l, x^2 - h) whose h has a pole of order -b at the fiber: clearing
    it leaves (-1)^(ab) u-bar^b w-bar^(-a), where a = v(l) and u and w are
    the unit parts of l and -h.  Only the exponent parities matter."""
    rf = tplace.residue_field()
    value = rf.class_field.one()
    if b % 2:
        value = value * rf.reduce(_unit_part(ell, tplace, a))
    if a % 2:
        value = value * rf.reduce(-_unit_part(h, tplace, b))
    if (a * b) % 2:
        value = -value
    return SquareClass(rf.class_field, value)


def _residue_key(value):
    if isinstance(value, Fraction):
        return ("q", value)
    if isinstance(value, TowerElem):
        return ("t", tuple(sorted(
            (tuple(sorted(mono)), coeff) for mono, coeff in value.coeffs.items()
        )))
    raise TypeError(f"unhashable residue value {value!r}")  # pragma: no cover


def compare_routes(cover, func: DeclaredFunction) -> dict:
    """Place-by-place comparison of the structured and brute-force routes,
    both run on one validated expansion and one list of fibers."""
    syms = expand_corestriction(cover, func)
    fibers = _vertical_support(cover, func)
    structured = _structured(cover, func, fibers)
    oracle = _bruteforce(cover, syms, fibers)
    spots = sorted(dict.fromkeys(structured.support + oracle.support),
                   key=SurfacePlace.sort_key)
    return _compare([(spot, structured.entry(spot), oracle.entry(spot))
                     for spot in spots], "structured", "bruteforce")


def check_component_residues(cover, func: DeclaredFunction) -> dict:
    """Verify that the brute-force residue on each branch component equals
    the class of the declared section function itself.  Only the
    component places of route B are computed: no fiber is visited, nor
    the section at infinity."""
    syms = expand_corestriction(cover, func)
    expected = _component_classes(cover, func)
    horizontal = _profile(
        _horizontal_residues(cover, syms, [spot.place for spot, _ in expected]))
    return _compare([(spot, want, horizontal.entry(spot)) for spot, want in expected],
                    "expected", "got")


def _component_classes(cover, func: DeclaredFunction) -> list[tuple[SurfacePlace, SquareClass]]:
    """The class route A puts on each branch component: a split cover's
    component i carries the section function of slot i, and the branch
    curve of a Kummer cover carries the base function pushed to it."""
    if isinstance(cover, KummerCover):
        return [(SurfacePlace("x", cover.branch_place()),
                 SquareClass(cover.s_field, cover.branch_reduce(func.base)))]
    return [(SurfacePlace("x", cover.component_place(i)), SquareClass(XCOEFF, ell))
            for i, ell in enumerate(func.slot_functions(cover))]


def _agree(x: Optional[SquareClass], y: Optional[SquareClass]) -> bool:
    """Whether two residue entries agree, None standing for the trivial class."""
    if x is None:
        return y is None or y.is_trivial()
    if y is None:
        return x.is_trivial()
    return x.same_class(y)


def _compare(triples, left: str, right: str) -> dict:
    """The printed rows of the two desk checks: a row per (place, x, y)
    triple, holding the place, the two classes under the keys ``left`` and
    ``right`` (None prints as "1") and whether they agree (:func:`_agree`),
    plus ``ok`` when every row does."""
    rows = [{"place": str(spot), left: "1" if x is None else str(x),
             right: "1" if y is None else str(y), "agree": _agree(x, y)}
            for spot, x, y in triples]
    return {"rows": rows, "ok": all(row["agree"] for row in rows)}


# ==========================================================================
# divisor parity membership
# ==========================================================================

def _point_signature(a: RatFunc, tplace: Place):
    """Which point of the (nodal) image curve a component hits over tplace."""
    rf = tplace.residue_field()
    v = None if a.is_zero() else valuation(a, tplace)
    if v is not None and v < 0:
        return ("S", _place_key(tplace))
    if v is None or v > 0:
        value = rf.class_field.zero()
    else:
        value = rf.reduce(a)
    return ("pt", _place_key(tplace), _residue_key(value))


def _place_key(place: Place):
    return "inf" if place.is_infinite else str(place.poly)


def divisor_parity_membership(
    cover: SplitCover,
    func: DeclaredFunction,
    generators: Optional[Sequence[dict]] = None,
) -> dict:
    """Does the declared divisor, pushed to the nodal image curve and read
    modulo 2, lie in the span of the allowed divisors?

    The allowed divisors default to the intersection cycles with the
    section at infinity and with the infinite fiber, both mod 2.  The
    pushforward identifies component points lying over the same
    (fiber, x-value) pair -- that is where the pairing cancellation
    happens.  Returns the parity vector data and the verdict.
    """
    if func.is_base_form:
        raise TypeError("membership applies to component-form functions")
    func.validate(cover)

    pushed: dict = {}
    for comp, tplace, mult in func.divisor:
        sig = _point_signature(cover.roots[comp], tplace)
        pushed[sig] = pushed.get(sig, 0) ^ (mult & 1)
    pushed = {sig: 1 for sig, bit in pushed.items() if bit}

    if generators is None:
        generators = parity_generators(cover)

    keys: dict = {}
    for sig in pushed:
        keys.setdefault(sig, len(keys))
    for gen in generators:
        for sig in gen:
            keys.setdefault(sig, len(keys))

    def vec(d: dict) -> int:
        out = 0
        for sig, bit in d.items():
            if bit:
                out |= 1 << keys[sig]
        return out

    gen_vecs = [vec(g) for g in generators]
    member = f2.in_span(gen_vecs, vec(pushed))
    return {
        "member": member,
        "pushforward": sorted(str(sig) for sig in pushed),
        "generators": [sorted(str(sig) for sig in g if g[sig]) for g in generators],
    }


def parity_generators(cover: SplitCover) -> list[dict]:
    """The mod-2 cycles cut on the branch image by the section at infinity
    and by the infinite fiber."""
    poles: dict[Place, int] = {}
    for a in cover.roots:
        for place, mult in support_places(a).items():
            if mult < 0:
                poles[place] = poles.get(place, 0) + 1
    section = {("S", _place_key(place)): 1 for place, count in poles.items() if count % 2}

    fiber: dict = {}
    inf = Place.infinite(QQ)
    for a in cover.roots:
        sig = _point_signature(a, inf)
        fiber[sig] = fiber.get(sig, 0) ^ 1
    fiber = {sig: 1 for sig, bit in fiber.items() if bit}
    return [section, fiber]


# ==========================================================================
# desk covers
# ==========================================================================

class DeskCover:
    """A small worked cover with hand-checked expectations (see tests)."""

    __slots__ = ("name", "cover", "functions", "notes")

    def __init__(self, name: str, cover: object,
                 functions: dict[str, DeclaredFunction], notes: str = ""):
        self.name = name
        self.cover = cover
        self.functions = functions
        self.notes = notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.cover, self.functions, self.notes)
                == (other.name, other.cover, other.functions, other.notes))


def standard_desks() -> dict[str, DeskCover]:
    """The desk inventory used by the verification suite and the tests."""
    t = _tvar()
    one = RatFunc.constant(QQ, 1)
    P_T = Place.finite(Poly(QQ, [0, 1]))
    P_Q2 = Place.finite(Poly(QQ, [-2, 0, 1]))
    INF = Place.infinite(QQ)
    s = RatFunc.variable(QQ)

    desks: dict[str, DeskCover] = {}

    kummer = KummerCover(t, x_of_s=s, t_of_s=s * s)
    desks["kummer-line"] = DeskCover(
        name="kummer-line",
        cover=kummer,
        functions={
            "t": DeclaredFunction(
                base=t,
                divisor=((None, P_T, 1), (None, INF, -1)),
                label="t",
            ),
        },
        notes=(
            "x^2 - t with the base function t: the collapsed symbol "
            "(t, x^2 - t); the branch curve is parametrised by s with "
            "t = s^2, so the branch residue [t] = [s^2] is trivial."
        ),
    )

    split_const = SplitCover([one, -one, 2 * one, -2 * one])
    desks["constant-split"] = DeskCover(
        name="constant-split",
        cover=split_const,
        functions={
            "d-base": DeclaredFunction(base=5, divisor=(), label="d-base"),
            "d-slots": DeclaredFunction(
                components=(5, 5, 5, 5), divisor=(), label="d-slots",
            ),
        },
        notes=(
            "constant roots, constant function 5 in both the collapsed "
            "and the slot form: the two expansions must agree everywhere."
        ),
    )

    split_node = SplitCover([t, -t, t + 1, -(t + 1)])
    desks["node-paired"] = DeskCover(
        name="node-paired",
        cover=split_node,
        functions={
            "paired": DeclaredFunction(
                components=(t, t, 1, 1),
                divisor=((0, P_T, 1), (0, INF, -1), (1, P_T, 1), (1, INF, -1)),
                label="paired",
            ),
            "unpaired": DeclaredFunction(
                components=(t, 1, 1, 1),
                divisor=((0, P_T, 1), (0, INF, -1)),
                label="unpaired",
            ),
        },
        notes=(
            "components 1 and 2 cross at (t, x) = (0, 0): the paired "
            "function is odd on both branches there and the parities "
            "cancel through the node; the unpaired one is odd on a "
            "single branch and is rejected."
        ),
    )

    split_poles = SplitCover([t, -t, 1 / t, -1 / t])
    desks["section-poles"] = DeskCover(
        name="section-poles",
        cover=split_poles,
        functions={
            "balanced": DeclaredFunction(
                components=(1, 1, t, t),
                divisor=((2, P_T, 1), (2, INF, -1), (3, P_T, 1), (3, INF, -1)),
                label="balanced",
            ),
            "half": DeclaredFunction(
                components=(1, 1, t, 1),
                divisor=((2, P_T, 1), (2, INF, -1)),
                label="half",
            ),
        },
        notes=(
            "roots 1/t and -1/t hit the section at infinity over t = 0: "
            "the balanced function is cleared slot by slot there and "
            "leaves the nontrivial constant class [-1] on that fiber.  "
            "The half function clears fine at t = 0 but its odd slot "
            "lands at the finite point x = 0 of the infinite fiber with "
            "no partner: the parity failure sits over t = infinity."
        ),
    )

    r_loop = (t * t + 1) / t
    desks["loop-poles"] = DeskCover(
        name="loop-poles",
        cover=SplitCover([r_loop, -r_loop, t, -t]),
        functions={
            "s-only": DeclaredFunction(
                components=(t, 1, 1, 1),
                divisor=((0, P_T, 1), (0, INF, -1)),
                label="s-only",
            ),
        },
        notes=(
            "the first root (t^2+1)/t has poles at both t = 0 and "
            "t = infinity, so the odd divisor of the function t on that "
            "component sits entirely over the section at infinity: every "
            "residue of the corestricted class is constant (pole "
            "clearing applies at both fibers), yet the pushed divisor is "
            "not in the allowed span.  Residue constancy does not imply "
            "divisor parity membership."
        ),
    )


    split_quad = SplitCover([t, 2 / t, -t, -2 / t])
    desks["quadratic-fiber"] = DeskCover(
        name="quadratic-fiber",
        cover=split_quad,
        functions={
            "quad": DeclaredFunction(
                components=("t**2 - 2", "t**2 - 2", 1, 1),
                divisor=((0, P_Q2, 1), (0, INF, -2), (1, P_Q2, 1), (1, INF, -2)),
                label="quad",
            ),
        },
        notes=(
            "components 1 and 2 meet over the degree-2 place t^2 - 2 "
            "(where t-bar = 2/t-bar): the cancellation happens inside "
            "the quadratic residue field Q(sqrt 2)."
        ),
    )
    return desks


# ==========================================================================
# Faddeev data: obstruction and reconstruction on the t-line
# ==========================================================================

class FaddeevRepairError(ArithmeticError):
    """No small element of the requested norm class exists at this place."""


class ResidueSpec:
    """Target residue classes at places of the t-line (degree <= 2 or
    infinity).  Degree-2 values may be given as ``(A, B)`` meaning
    ``A + B*beta`` for the stored root ``beta`` of the place polynomial.

    Without an entry at infinity, the infinite residue is left free and
    the reconstruction reports what it comes out to; with one, the full
    projective profile is fixed and the corestriction-sum condition
    becomes an actual obstruction.
    """

    def __init__(self, base: CoefficientField = QQ):
        self.base = base
        self.entries: dict[Place, object] = {}

    def add(self, place: Place, value) -> "ResidueSpec":
        if place.field is not self.base:
            raise TypeError("place is over a different base field")
        if place.degree > 2:
            raise NotImplementedError("places of degree > 2 are out of scope")
        rf = place.residue_field()
        field = rf.class_field
        if place.degree == 2 and isinstance(value, tuple):
            a_part, b_part = (field.coerce(self.base.coerce(v)) for v in value)
            value = a_part + rf.beta * b_part
        value = field.coerce(value)
        if field.is_zero(value):
            raise ZeroDivisionError("residue classes are nonzero")
        if place in self.entries:
            raise ValueError(f"duplicate entry at {place}")
        self.entries[place] = value
        return self

    def places(self) -> list[Place]:
        return sorted(self.entries, key=_place_sort_key)

    def infinity_value(self):
        for place, value in self.entries.items():
            if place.is_infinite:
                return value
        return None

    def copy(self) -> "ResidueSpec":
        out = ResidueSpec(self.base)
        out.entries = dict(self.entries)
        return out

    def to_pairs(self) -> list[tuple[str, str]]:
        return [(str(p), str(self.entries[p])) for p in self.places()]


def faddeev_obstruction(spec: ResidueSpec) -> SquareClass:
    """The corestriction-sum class: the product of the norms of all
    entries, as a square class of the base field.  The profile extends to
    an actual symbol sum on the projective line iff this is trivial."""
    total = spec.base.one()
    for place, value in spec.entries.items():
        total = total * spec.base.coerce(place.residue_field().norm_to_base(value))
    return SquareClass(spec.base, total)


def faddeev_reconstruct(spec: ResidueSpec) -> dict:
    """Build a symbol sum over the base's rational function field whose
    residue profile matches the spec exactly, or report the obstruction.

    Degree-2 entries are realised by ``(B t + A, p)`` -- whose reduction
    at p is exactly A + B beta -- plus a degree-1 correction at the zero
    of the linear slot; degree-1 targets and corrections are realised by
    constant symbols ``(d, t - t0)``.  No constant (everywhere-unramified)
    symbols are ever added: the constant part of the reconstruction is
    normalised to zero, which fixes the class at infinity.
    """
    base = spec.base
    tvar = RatFunc.variable(base)
    inf_place = Place.infinite(base)

    declared_inf = spec.infinity_value()
    if declared_inf is not None:
        obstruction = faddeev_obstruction(spec)
        if not obstruction.is_trivial():
            return {
                "status": "obstructed",
                "witness": obstruction,
                "message": (
                    "the product of the norms of the residues is not a "
                    "square; no symbol sum has this projective profile"
                ),
            }

    symbols: list[FunctionFieldSymbol] = []
    # residues acquired at degree-1 places as side effects
    targets: dict[Place, object] = {}
    for place, value in spec.entries.items():
        if place.is_infinite:
            continue
        if place.degree == 1:
            targets.setdefault(place, base.one())
            targets[place] = targets[place] * base.coerce(value)
            continue
        a_part, b_part = place.residue_field().coordinates(value)
        if base.is_zero(b_part):
            symbols.append(FunctionFieldSymbol(
                RatFunc.constant(base, a_part), RatFunc.from_poly(place.poly),
            ))
            continue
        linear = tvar * b_part + a_part
        symbols.append(
            FunctionFieldSymbol(linear, RatFunc.from_poly(place.poly))
        )
        # the linear slot vanishes at t0 = -A/B and deposits [p(t0)] there
        t0 = -a_part * base.invert(b_part)
        zero_place = Place.finite(Poly(base, [-t0, 1]))
        targets.setdefault(zero_place, base.one())

    # degree-1 corrections: push the current residue to the target
    for place in sorted(targets, key=_place_sort_key):
        target = targets[place]
        current = base.one()
        for sym in symbols:
            cls = residue_symbol(sym, place)
            current = current * base.coerce(cls.value)
        delta = base.coerce(target) * base.invert(current)
        if not SquareClass(base, delta).is_trivial():
            root = -place.poly.coeff(0)
            symbols.append(FunctionFieldSymbol(
                RatFunc.constant(base, delta), tvar - root,
            ))

    # honest roundtrip: recompute the full profile of what we built and
    # compare it with the spec at every known place, and at infinity when
    # the spec declares it; an unspecified place must come out trivial
    known_places = list(targets) + [place for place in spec.places()
                                    if not place.is_infinite and place not in targets]
    profile = symbol_profile(
        symbols, places=known_places + [inf_place], keep_trivial=True,
    ) if symbols else {}
    checked = known_places + ([inf_place] if declared_inf is not None else [])
    problems = [str(place) for place in checked
                if not _agree(profile.get(place),
                              SquareClass(place.residue_field().class_field, spec.entries[place])
                              if place in spec.entries else None)]
    inf_class = profile.get(inf_place) or SquareClass.trivial(base)

    return {
        "status": "reconstructed",
        "symbols": SymbolSum(symbols),
        "infinity_class": inf_class,
        "roundtrip_ok": not problems,
        "problems": problems,
    }


def repair_spec(spec: ResidueSpec, place: Place, *, search_bound: int = 25) -> ResidueSpec:
    """Fix a full projective profile by changing the single entry at
    ``place`` so that the corestriction sum vanishes.

    At degree-1 places and infinity the entry is multiplied by the
    obstruction class itself.  At a degree-2 place an element of the
    right norm class is searched among small ``A + B*beta``; not every
    class is a norm from a quadratic extension, so this can honestly
    fail (:class:`FaddeevRepairError`)."""
    obstruction = faddeev_obstruction(spec)
    if obstruction.is_trivial():
        return spec.copy()
    if place not in spec.entries:
        raise KeyError(f"no entry at {place}")
    out = spec.copy()
    value = out.entries[place]
    if place.degree == 1 or place.is_infinite:
        out.entries[place] = spec.base.coerce(value) * obstruction.value
        return out
    rf = place.residue_field()
    target = obstruction.value
    for size in range(1, search_bound + 1):
        for a_part in range(-size, size + 1):
            for b_part in range(-size, size + 1):
                if abs(a_part) != size and abs(b_part) != size:
                    continue
                elem = rf.class_field.coerce(a_part) + rf.beta * b_part
                ratio = spec.base.coerce(rf.norm_to_base(elem)) * target
                if SquareClass(spec.base, ratio).is_trivial():
                    out.entries[place] = value * elem
                    return out
    raise FaddeevRepairError(
        f"no element of norm class {obstruction} of size <= {search_bound} "
        f"at {place}; the class may simply not be a norm there"
    )

"""Tests for symbol residues over k(t) and corestricted classes on covers.

Every desk cover in ``standard_desks`` comes with hand-checked
expectations (recorded below as frozen strings); beyond those spot
values, the structured route and the brute-force expansion serve as
each other's oracle place by place.
"""

import collections
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enriq import residues
from enriq.funcfield import QQ, Place, Poly, RatFunc, parse_ratfunc, support_places, valuation
from enriq.residues import (
    XCOEFF,
    DeclaredFunction,
    DivisorDeclarationError,
    FunctionFieldSymbol,
    KummerCover,
    ResidueParityError,
    SplitCover,
    SquareClass,
    SurfacePlace,
    check_component_residues,
    compare_routes,
    divisor_parity_membership,
    expand_corestriction,
    expanded_symbol_profile,
    gauss_reduce,
    gauss_valuation,
    ramification_profile,
    residue_symbol,
    standard_desks,
    symbol_profile,
    vertical_residue,
    x_variable,
)

T0 = Place.finite(Poly(QQ, [0, 1]))       # t = 0
T1 = Place.finite(Poly(QQ, [1, 1]))       # t = -1
TQ2 = Place.finite(Poly(QQ, [-2, 0, 1]))  # t^2 - 2
INF = Place.infinite(QQ)


def _t() -> RatFunc:
    return RatFunc.variable(QQ)


@pytest.fixture(scope="module")
def desks():
    return standard_desks()


# --------------------------------------------------------------------------
# univariate residues on the t-line
# --------------------------------------------------------------------------

def test_valuations():
    t = _t()
    assert valuation(t * t, T0) == 2
    assert valuation(1 / (t - 1), Place.finite(Poly(QQ, [-1, 1]))) == -1
    assert valuation((t * t + 1) / (t ** 3), INF) == 1


def test_residue_of_tame_symbol():
    t = _t()
    sym = FunctionFieldSymbol(t, t + 1)
    # at t = 0 the partner t+1 is a unit with square value 1
    assert residue_symbol(sym, T0).is_trivial()
    # at t = -1 the residue is the value of t, namely -1
    assert str(residue_symbol(sym, T1)) == "-1"
    # at infinity: v(t) = v(t+1) = -1, sign (-1)^{v v} survives
    assert str(residue_symbol(sym, INF)) == "-1"


def test_residue_with_self_pairing():
    t = _t()
    sym = FunctionFieldSymbol(t, t)
    # (t, t) ~ (t, -1): the residue at t = 0 is [-1]
    assert str(residue_symbol(sym, T0)) == "-1"
    assert str(residue_symbol(sym, INF)) == "-1"
    assert residue_symbol(sym, T1).is_trivial()


def test_profile_discovers_support():
    t = _t()
    prof = symbol_profile([FunctionFieldSymbol(t, t + 1)], keep_trivial=True)
    shown = {place: str(cls) for place, cls in prof.items()}
    assert shown == {T0: "1", T1: "-1", INF: "-1"}


def test_profile_rejects_incomplete_support():
    t = _t()
    with pytest.raises(ValueError):
        symbol_profile([FunctionFieldSymbol(t, t + 1)], places=[T0, INF])


LINEAR_POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
QUAD_SHIFTS = [1, 2]  # t^2 + 1 and t^2 + 2, irreducible over Q


def _random_function(rng):
    """A nonzero function supported on fixed linear and quadratic places.

    Degree-3+ irreducible factors are excluded on purpose: their residue
    fields are outside the supported range (see funcfield.ResidueField).
    """
    t = _t()
    f = RatFunc.constant(QQ, rng.choice([1, -1, 2, -2, 3, 5, -6]))
    for c in LINEAR_POINTS:
        e = rng.randint(-2, 2)
        if e:
            f = f * (t - c) ** e
    for c in QUAD_SHIFTS:
        e = rng.randint(-1, 1)
        if e:
            f = f * (t * t + c) ** e
    return f


def _support_grid():
    places = [Place.finite(Poly(QQ, [-c, 1])) for c in LINEAR_POINTS]
    places += [Place.finite(Poly(QQ, [c, 0, 1])) for c in QUAD_SHIFTS]
    places.append(INF)
    return places


def test_residue_is_bimultiplicative():
    rng = random.Random(1723)
    places = _support_grid()
    for _ in range(25):
        f1, f2, g = (_random_function(rng) for _ in range(3))
        for p in places:
            left = residue_symbol(FunctionFieldSymbol(f1 * f2, g), p)
            right = residue_symbol(FunctionFieldSymbol(f1, g), p) * residue_symbol(
                FunctionFieldSymbol(f2, g), p
            )
            assert left.same_class(right)
            left = residue_symbol(FunctionFieldSymbol(g, f1 * f2), p)
            right = residue_symbol(FunctionFieldSymbol(g, f1), p) * residue_symbol(
                FunctionFieldSymbol(g, f2), p
            )
            assert left.same_class(right)


def test_square_slot_has_no_residues():
    rng = random.Random(97)
    for _ in range(10):
        f, g = _random_function(rng), _random_function(rng)
        for p in _support_grid():
            assert residue_symbol(FunctionFieldSymbol(f * f, g), p).is_trivial()


# --------------------------------------------------------------------------
# vertical (fiber) residues of bivariate sums
# --------------------------------------------------------------------------

def test_gauss_reduce_specializes_coefficients():
    x, t = x_variable(), _t()
    F = (x - t) / (x + t)
    at_one = Place.finite(Poly(QQ, [-1, 1]))
    assert str(gauss_reduce(F, at_one)) == "(x - 1)/(x + 1)"


def test_vertical_residue_detects_odd_crossing():
    x, t = x_variable(), _t()
    cls = vertical_residue([FunctionFieldSymbol(t, x - t)], T0)
    assert str(cls) == "x"
    assert not cls.value.is_constant()


def test_vertical_residue_of_even_pair_is_constant():
    x, t = x_variable(), _t()
    syms = [FunctionFieldSymbol(t, x - t), FunctionFieldSymbol(t, x + t)]
    cls = vertical_residue(syms, T0)
    # (x - t)(x + t) -> x^2 at the fiber: an even crossing, class [1]
    assert cls.is_trivial()


def _vertical_residue_by_powers(syms, tplace):
    """The exponentiate-then-reduce form of the vertical residue: build
    (-1)^{ab} f^b g^{-a} in k(t)(x), then reduce it at the fiber."""
    x_field = tplace.residue_field().fibre_field
    total = RatFunc.constant(x_field.base, 1)
    for sym in syms:
        a = gauss_valuation(sym.f, tplace)
        b = gauss_valuation(sym.g, tplace)
        if a == 0 and b == 0:
            continue
        u = sym.f ** b * sym.g ** (-a)
        if (a * b) % 2:
            u = -u
        total = total * gauss_reduce(u, tplace)
    return SquareClass(x_field, total)


#: building blocks of random functions on the ruled surface, in t alone and
#: in x over Q(t); their Gauss valuations at the fibers below vary in sign
#: and parity
T_FACTORS = ["t", "t + 1", "t**2 - 2", "t - 3"]
X_FACTORS = ["x - t", "x + 1", "x**2 - t", "t*x + 1", "x - 1/t", "t*x**2 - 2"]
FIBERS = [T0, T1, TQ2, INF]


def _surface_function(text):
    return parse_ratfunc(text, "x", XCOEFF, {"t": _t()})


@st.composite
def surface_functions(draw):
    """A constant times a power of a t-factor (a Gauss valuation of either
    parity at its fiber) times one or two x-factors or their inverses.
    Exponents stay small: the oracle raises f and g to each other's Gauss
    valuations, which at infinity grow with every factor."""
    f = RatFunc.constant(XCOEFF, draw(st.sampled_from([1, -1, 2, 3, -6])))
    f = f * _surface_function(draw(st.sampled_from(T_FACTORS))) ** draw(
        st.sampled_from([1, -1, 2, 3]))
    for text in draw(st.lists(st.sampled_from(X_FACTORS), min_size=1, max_size=2)):
        f = f * _surface_function(text) ** draw(st.sampled_from([1, -1]))
    return f


symbol_sums = st.lists(
    st.builds(FunctionFieldSymbol, surface_functions(), surface_functions()),
    min_size=1, max_size=2,
)


@given(symbol_sums, st.sampled_from(FIBERS))
def test_vertical_residue_matches_exponentiate_then_reduce(syms, tplace):
    got = vertical_residue(syms, tplace)
    assert got.same_class(_vertical_residue_by_powers(syms, tplace))


# --------------------------------------------------------------------------
# desk covers: the two routes agree and match the hand-checked entries
# --------------------------------------------------------------------------

CONFORMING = [
    ("kummer-line", "t"),
    ("constant-split", "d-base"),
    ("constant-split", "d-slots"),
    ("node-paired", "paired"),
    ("section-poles", "balanced"),
    ("loop-poles", "s-only"),
    ("quadratic-fiber", "quad"),
]


@pytest.mark.parametrize("desk_name,func_name", CONFORMING)
def test_routes_agree(desks, desk_name, func_name):
    desk = desks[desk_name]
    report = compare_routes(desk.cover, desk.functions[func_name])
    assert report["ok"], report["rows"]


@pytest.mark.parametrize("desk_name,func_name", CONFORMING)
def test_component_residues_match_declared_sections(desks, desk_name, func_name):
    desk = desks[desk_name]
    report = check_component_residues(desk.cover, desk.functions[func_name])
    assert report["ok"], report["rows"]


#: sha256 of the JSON (sorted keys) of each desk function's compare_routes
#: and check_component_residues report, or of {"error": message} where the
#: call raises ResidueParityError, as computed when route B still
#: exponentiated before reducing and the component check ran the fibers.
DESK_OUTPUT_SHA256 = {
    ("kummer-line", "t", "compare_routes"): "c92e0646cc72151d990fae40a7bfd4921f642eac02fef1c7f89746a42525bf24",
    ("kummer-line", "t", "check_component_residues"): "b8c878f00cb8588eeb24295f68607354fbca93da2bd51cd215f579ca44fb38f0",
    ("constant-split", "d-base", "compare_routes"): "82ad2c4d3aaffa69e615bff24c8ea8d469299728ec035575a6c3529a5d053c86",
    ("constant-split", "d-base", "check_component_residues"): "f467d6e26f4a2acec071c47f5256663902dfae9b8462d46cd083da37bfd41cf1",
    ("constant-split", "d-slots", "compare_routes"): "82ad2c4d3aaffa69e615bff24c8ea8d469299728ec035575a6c3529a5d053c86",
    ("constant-split", "d-slots", "check_component_residues"): "f467d6e26f4a2acec071c47f5256663902dfae9b8462d46cd083da37bfd41cf1",
    ("node-paired", "paired", "compare_routes"): "83bd80a644936afa14910ca2d3c7dbb7c424a377c8e7bf2fac9e4548c5f2b3df",
    ("node-paired", "paired", "check_component_residues"): "be47f3c826be26fe898dab564ad19d61a2c0e0c3a9a6ea90e04cef2b4555bf8f",
    ("node-paired", "unpaired", "compare_routes"): "db0664e0d76000d4f74732093568e7d3a891931093a09089d17d4a65fc2569a9",
    ("node-paired", "unpaired", "check_component_residues"): "1cbab4e6f507e8068067c209cc085bc9948bfbc23ea67b49379ca28f162c38f2",
    ("section-poles", "balanced", "compare_routes"): "e3ee36b3d5dcd429aa3bb907fdc0a40b78d9d3d5a3d13a65a19776fde35831db",
    ("section-poles", "balanced", "check_component_residues"): "a52568ee8d0f7dbd9f9b1a1bc737d0cd041480f48480a264f2df5c998558dec7",
    ("section-poles", "half", "compare_routes"): "efd150b161d316e05a8d5ead0c50048fcc5af46027640f535b189a3e78e76b9b",
    ("section-poles", "half", "check_component_residues"): "a06c36decde9a02ade463d71a64e815d4a0e728af62ce3e8a83bf5958c6a293f",
    ("loop-poles", "s-only", "compare_routes"): "4696bf96ea0ba94fc165b710abbdf224d17db32801e3907740b33542ad33b2ba",
    ("loop-poles", "s-only", "check_component_residues"): "a6c1ccbbe27985fa463c0b4a1cc1bf4712da3e55b7f43147f5bbd89b6805f5ca",
    ("quadratic-fiber", "quad", "compare_routes"): "d8861704c97422d23abb05f44ab6ab98ef8193089060ec78b20d8a599e96888c",
    ("quadratic-fiber", "quad", "check_component_residues"): "2efda0ad3bef935bb197a777802a39b5278bfd7a883dd731786c47a58d66b92e",
}


def test_every_desk_output_is_pinned(desks):
    pinned = {(d, f) for d, f, _ in DESK_OUTPUT_SHA256}
    assert pinned == {(d, f) for d in desks for f in desks[d].functions}


@pytest.mark.parametrize("desk_name,func_name,routine", sorted(DESK_OUTPUT_SHA256))
def test_desk_output_is_pinned(desks, desk_name, func_name, routine):
    desk = desks[desk_name]
    try:
        out = getattr(residues, routine)(desk.cover, desk.functions[func_name])
    except ResidueParityError as exc:
        out = {"error": str(exc)}
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == DESK_OUTPUT_SHA256[desk_name, func_name, routine]


def test_component_check_never_reaches_the_fibers(desks, monkeypatch):
    def no_fibers(syms, tplace):
        raise AssertionError(f"fiber {tplace} visited")

    monkeypatch.setattr(residues, "vertical_residue", no_fibers)
    for desk in desks.values():
        for func in desk.functions.values():
            check_component_residues(desk.cover, func)
    # the patch is live: the full brute-force profile does visit fibers
    desk = desks["node-paired"]
    with pytest.raises(AssertionError, match="fiber"):
        expanded_symbol_profile(desk.cover, desk.functions["paired"])


def test_component_check_skips_the_section_at_infinity(desks, monkeypatch):
    symbol = residues.residue_symbol

    def finite_only(sym, place):
        if place.is_infinite:
            raise AssertionError(f"residue asked at {place}")
        return symbol(sym, place)

    monkeypatch.setattr(residues, "residue_symbol", finite_only)
    for desk in desks.values():
        for func in desk.functions.values():
            check_component_residues(desk.cover, func)
    # the patch is live: the full brute-force profile does ask at infinity
    desk = desks["constant-split"]
    with pytest.raises(AssertionError, match="residue asked"):
        expanded_symbol_profile(desk.cover, desk.functions["d-base"])


def test_compare_routes_runs_on_one_expansion(desks, monkeypatch):
    calls = collections.Counter()
    validate = DeclaredFunction.validate
    fibers = residues._vertical_support

    def counted_validate(func, cover):
        calls["validate"] += 1
        return validate(func, cover)

    def counted_fibers(cover, func):
        calls["fibers"] += 1
        return fibers(cover, func)

    monkeypatch.setattr(DeclaredFunction, "validate", counted_validate)
    monkeypatch.setattr(residues, "_vertical_support", counted_fibers)
    for desk in desks.values():
        for func in desk.functions.values():
            calls.clear()
            try:
                compare_routes(desk.cover, func)
            except ResidueParityError:
                pass
            assert calls == {"validate": 1, "fibers": 1}, (desk.name, func.label)


def test_vertical_support_reads_the_validated_declaration():
    """Fibers come from the declared divisor summed per (component,
    place): a pair that cancels adds no fiber, and infinity comes once."""
    t = _t()
    cover = SplitCover([t, -t, t + 1, -(t + 1)])
    func = DeclaredFunction(
        components=(t, t, 1, 1),
        divisor=((0, T0, 1), (0, INF, -1), (1, T0, 1), (1, INF, -1),
                 (2, T1, 1), (2, T1, -1)),
    )
    func.validate(cover)
    assert residues._vertical_support(cover, func) == [T0, INF]


def _shown(profile):
    return {str(p): str(c) for p, c in profile.nontrivial().items()}


def test_kummer_desk_is_everywhere_unramified(desks):
    desk = desks["kummer-line"]
    prof = ramification_profile(desk.cover, desk.functions["t"])
    # the branch curve is rational with t = s^2: the pushed class dies
    assert _shown(prof) == {}
    assert any(str(p) == "curve x^2 - t = 0" for p in prof.support)


def test_kummer_rules_where_they_matter():
    """The constant 3 on two Kummer covers: the pushed class is not a
    square, yet the section at infinity stays unramified (v(h) = -2), and
    the pole of m = 1/t carries a fiber class."""
    t = s = _t()
    three = DeclaredFunction(base=3, divisor=())
    for cover, shown in [
        (KummerCover(t, x_of_s=s, t_of_s=s * s),
         {"curve x^2 - t = 0": "3", "fiber t = infinity": "3"}),
        (KummerCover(1 / t, x_of_s=1 / s, t_of_s=s * s),
         {"curve x^2 + (-1)/(t) = 0": "3", "fiber t = 0": "3"}),
    ]:
        assert compare_routes(cover, three)["ok"]
        assert check_component_residues(cover, three)["ok"]
        assert _shown(ramification_profile(cover, three)) == shown


def test_kummer_fiber_residue_must_be_constant():
    t = s = _t()
    cover = KummerCover(t, x_of_s=s, t_of_s=s * s)
    func = DeclaredFunction(base=t + 1, divisor=((None, T1, 1), (None, INF, -1)))
    with pytest.raises(ResidueParityError, match="at t \\+ 1 is not constant"):
        ramification_profile(cover, func)
    oracle = expanded_symbol_profile(cover, func)
    assert str(oracle.entry(SurfacePlace("t", T1))) == "x^2 + 1"


def test_kummer_route_a_never_calls_route_b(desks, monkeypatch):
    def route_b(syms, tplace):
        raise AssertionError(f"route B asked at {tplace}")

    monkeypatch.setattr(residues, "vertical_residue", route_b)
    desk = desks["kummer-line"]
    ramification_profile(desk.cover, desk.functions["t"])


def test_route_a_never_reaches_the_tame_kernel(desks, monkeypatch):
    """Route A keeps its own closed forms on every desk function, so
    compare_routes compares two independently coded routes: it runs with
    the tame kernel and every route-B residue patched to raise."""
    def route_b(*args):
        raise AssertionError("route B reached")

    for name in ("_tame", "residue_symbol", "vertical_residue", "_kummer_branch_residue"):
        monkeypatch.setattr(residues, name, route_b)
    for desk in desks.values():
        for func in desk.functions.values():
            try:
                ramification_profile(desk.cover, func)
            except ResidueParityError:
                pass
    # the patch is live: route B does reach it
    desk = desks["kummer-line"]
    with pytest.raises(AssertionError, match="route B reached"):
        expanded_symbol_profile(desk.cover, desk.functions["t"])


KUMMER_COVERS = [
    ("t", "s", "s**2"),
    ("2*t", "2*s", "2*s**2"),
    ("-1/t", "s", "-1/s**2"),
    ("t**2 + t", "s/(s**2 - 1)", "1/(s**2 - 1)"),
]
KUMMER_SECTIONS = ["3", "t", "-2/t", "3*t**3", "t**2 + t", "(t + 1)/t**2"]


def _kummer_cover(m, x_of_s, t_of_s):
    return KummerCover(parse_ratfunc(m, "t", QQ), x_of_s=parse_ratfunc(x_of_s, "s", QQ),
                       t_of_s=parse_ratfunc(t_of_s, "s", QQ))


@pytest.mark.parametrize("m,x_of_s,t_of_s", KUMMER_COVERS)
@pytest.mark.parametrize("ell", KUMMER_SECTIONS)
def test_kummer_fibers_agree_with_route_b(m, x_of_s, t_of_s, ell):
    """Route A's closed form on Kummer fibers against route B's Gauss
    valuations: equal classes, or a parity failure where route B leaves a
    class that is not constant."""
    cover = _kummer_cover(m, x_of_s, t_of_s)
    ell = parse_ratfunc(ell, "t", QQ)
    func = DeclaredFunction(
        base=ell, divisor=[(None, p, k) for p, k in support_places(ell).items()])
    try:
        assert compare_routes(cover, func)["ok"]
    except ResidueParityError as exc:
        # only l's odd zero or pole at t = -1, where m is a unit, fails
        assert "at t + 1 is not constant" in str(exc)
        fiber = expanded_symbol_profile(cover, func).entry(SurfacePlace("t", T1))
        assert str(fiber).startswith("x^2 ")


def _kummer_branch_by_powers(cover, syms, place):
    """The exponentiate-then-reduce form of the branch residue: build
    (-1)^{ab} f^b g^{-a} in k(t)(x), then evaluate it at x = x(s),
    t = t(s)."""
    def at_branch(p):
        acc = RatFunc.constant(QQ, 0)
        for c in reversed(p.coeffs):
            acc = acc * cover.x_of_s + cover.branch_reduce(c)
        return acc

    out = SquareClass.trivial(cover.s_field)
    for sym in syms:
        a = valuation(sym.f, place)
        b = valuation(sym.g, place)
        if a == 0 and b == 0:
            continue
        u = sym.f ** b * sym.g ** (-a)
        if (a * b) % 2:
            u = -u
        out = out * SquareClass(cover.s_field, at_branch(u.num) / at_branch(u.den))
    return out


@st.composite
def kummer_branch_symbols(draw):
    """A Kummer cover and one or two symbols whose slots are a section
    function times a power of h = x^2 - m, sometimes times a unit at the
    branch curve, so both valuations there take either parity."""
    cover = _kummer_cover(*draw(st.sampled_from(KUMMER_COVERS)))
    h = RatFunc.from_poly(cover.h_poly())

    def slot():
        ell = RatFunc.constant(XCOEFF, parse_ratfunc(draw(st.sampled_from(KUMMER_SECTIONS)), "t", QQ))
        fn = ell * h ** draw(st.integers(-1, 2))
        unit = draw(st.sampled_from([None, "x + 1", "t*x + 1", "x - t"]))
        return fn if unit is None else fn * _surface_function(unit) ** draw(st.sampled_from([1, -1]))

    syms = [FunctionFieldSymbol(slot(), slot()) for _ in range(draw(st.integers(1, 2)))]
    return cover, syms


@given(kummer_branch_symbols())
def test_kummer_branch_residue_matches_exponentiate_then_reduce(case):
    cover, syms = case
    place = cover.branch_place()
    got = residues._kummer_branch_residue(cover, syms, place)
    assert got.same_class(_kummer_branch_by_powers(cover, syms, place))


def test_constant_desk_profile(desks):
    desk = desks["constant-split"]
    for name in ("d-base", "d-slots"):
        prof = ramification_profile(desk.cover, desk.functions[name])
        shown = _shown(prof)
        assert shown == {
            "curve x - 1 = 0": "5",
            "curve x + 1 = 0": "5",
            "curve x - 2 = 0": "5",
            "curve x + 2 = 0": "5",
        }


def test_node_desk_profile(desks):
    desk = desks["node-paired"]
    prof = ramification_profile(desk.cover, desk.functions["paired"])
    assert _shown(prof) == {
        "curve x - t = 0": "t",
        "curve x + t = 0": "t",
        "fiber t = infinity": "-1",
    }


def test_section_pole_desk_profile(desks):
    desk = desks["section-poles"]
    prof = ramification_profile(desk.cover, desk.functions["balanced"])
    # pole clearing at t = 0 leaves the constant class [-1] on that fiber
    assert _shown(prof) == {
        "curve x + (1)/(t) = 0": "t",
        "curve x + (-1)/(t) = 0": "t",
        "fiber t = 0": "-1",
    }


def test_loop_desk_profile(desks):
    desk = desks["loop-poles"]
    prof = ramification_profile(desk.cover, desk.functions["s-only"])
    assert _shown(prof) == {
        "curve x + (-t^2 - 1)/(t) = 0": "t",
        "section x = infinity": "t",
    }


def test_quadratic_fiber_desk_profile(desks):
    desk = desks["quadratic-fiber"]
    prof = ramification_profile(desk.cover, desk.functions["quad"])
    shown = _shown(prof)
    assert shown == {
        "curve x - t = 0": "t^2 - 2",
        "curve x + (-2)/(t) = 0": "t^2 - 2",
        "fiber t = 0": "-2",
    }
    # the crossing at t^2 - 2 = 0 cancels inside Q(sqrt 2): the fiber is
    # in the support but carries no class
    quad_fiber = SurfacePlace("t", TQ2)
    assert quad_fiber in prof.support
    assert prof.entry(quad_fiber) is None


# --------------------------------------------------------------------------
# parity violators
# --------------------------------------------------------------------------

def test_unpaired_function_is_rejected(desks):
    desk = desks["node-paired"]
    with pytest.raises(ResidueParityError, match="fiber t = 0"):
        ramification_profile(desk.cover, desk.functions["unpaired"])
    # the brute-force route exposes the non-constant residue directly
    oracle = expanded_symbol_profile(desk.cover, desk.functions["unpaired"])
    cls = oracle.entry(SurfacePlace("t", T0))
    assert cls is not None and not cls.value.is_constant()
    assert str(cls) == "x"


def test_half_cleared_function_is_rejected_at_infinity(desks):
    desk = desks["section-poles"]
    with pytest.raises(ResidueParityError, match="fiber t = infinity"):
        ramification_profile(desk.cover, desk.functions["half"])
    oracle = expanded_symbol_profile(desk.cover, desk.functions["half"])
    cls = oracle.entry(SurfacePlace("t", INF))
    assert cls is not None and str(cls) == "x"


# --------------------------------------------------------------------------
# corestriction expansion forms
# --------------------------------------------------------------------------

def test_base_form_collapses_to_one_symbol(desks):
    desk = desks["constant-split"]
    assert len(expand_corestriction(desk.cover, desk.functions["d-base"]).terms) == 1
    assert len(expand_corestriction(desk.cover, desk.functions["d-slots"]).terms) == 4


def test_collapsed_symbol_uses_branch_polynomial(desks):
    desk = desks["constant-split"]
    [sym] = expand_corestriction(desk.cover, desk.functions["d-base"]).terms
    assert str(sym) == "(5, x^4 - 5*x^2 + 4)"


# --------------------------------------------------------------------------
# divisor parity membership
# --------------------------------------------------------------------------

VERDICTS = [
    ("node-paired", "paired", True),
    ("node-paired", "unpaired", False),
    ("section-poles", "balanced", True),
    ("section-poles", "half", False),
    ("loop-poles", "s-only", False),
    ("quadratic-fiber", "quad", True),
]


@pytest.mark.parametrize("desk_name,func_name,expected", VERDICTS)
def test_membership_verdicts(desks, desk_name, func_name, expected):
    desk = desks[desk_name]
    report = divisor_parity_membership(desk.cover, desk.functions[func_name])
    assert report["member"] is expected, report


def test_member_pushforwards_cancel_entirely(desks):
    for desk_name, func_name in [
        ("node-paired", "paired"),
        ("section-poles", "balanced"),
        ("quadratic-fiber", "quad"),
    ]:
        desk = desks[desk_name]
        report = divisor_parity_membership(desk.cover, desk.functions[func_name])
        assert report["pushforward"] == []


def test_constant_residues_do_not_imply_membership(desks):
    """The loop desk separates the two notions: every residue of the
    corestricted class is constant, yet the pushed divisor sits over the
    section at infinity on both fibers and is not in the allowed span."""
    desk = desks["loop-poles"]
    func = desk.functions["s-only"]
    prof = ramification_profile(desk.cover, func)  # no parity error raised
    for spot, cls in prof.nontrivial().items():
        if spot.axis == "t":
            assert cls.value.is_constant()
    report = divisor_parity_membership(desk.cover, func)
    assert report["member"] is False
    assert all(sig.startswith("('S'") for sig in report["pushforward"])


# --------------------------------------------------------------------------
# declaration checking
# --------------------------------------------------------------------------

def test_declared_divisor_must_have_degree_zero(desks):
    t = _t()
    cover = desks["node-paired"].cover
    func = DeclaredFunction(components=(t, 1, 1, 1), divisor=((0, T0, 1),))
    with pytest.raises(DivisorDeclarationError, match="degree"):
        func.validate(cover)


def test_declared_divisor_must_match_actual_support(desks):
    t = _t()
    cover = desks["node-paired"].cover
    func = DeclaredFunction(
        components=(t, 1, 1, 1), divisor=((0, T1, 1), (0, INF, -1))
    )
    with pytest.raises(DivisorDeclarationError):
        func.validate(cover)


def test_declared_divisor_must_match_multiplicities(desks):
    t = _t()
    cover = desks["node-paired"].cover
    func = DeclaredFunction(
        components=(t * t, 1, 1, 1), divisor=((0, T0, 1), (0, INF, -1))
    )
    with pytest.raises(DivisorDeclarationError):
        func.validate(cover)


def test_component_count_is_checked(desks):
    cover = desks["node-paired"].cover
    func = DeclaredFunction(components=(1, 1), divisor=())
    with pytest.raises(DivisorDeclarationError):
        func.validate(cover)


def test_membership_needs_component_form(desks):
    desk = desks["constant-split"]
    with pytest.raises(TypeError):
        divisor_parity_membership(desk.cover, desk.functions["d-base"])


# --------------------------------------------------------------------------
# cover construction guards
# --------------------------------------------------------------------------

def test_split_cover_needs_even_count_of_distinct_roots():
    t = _t()
    with pytest.raises(ValueError):
        SplitCover([t, -t, t + 1])
    with pytest.raises(ValueError):
        SplitCover([t, t, t + 1, -(t + 1)])


def test_split_cover_genus():
    t = _t()
    assert SplitCover([t, -t, t + 1, -(t + 1)]).genus == 1
    one = RatFunc.constant(QQ, 1)
    assert SplitCover([one, -one]).genus == 0


def test_split_cover_component_places_are_the_sections():
    t = _t()
    roots = [t, -t, t + 1, -(t + 1)]
    cover = SplitCover(roots)
    places = cover.horizontal_places()
    assert places == [Place.finite(Poly(XCOEFF, [-r, 1])) for r in roots]
    assert [cover.component_place(i) for i in range(4)] == places
    places.pop()  # the caller's list is its own
    assert len(cover.horizontal_places()) == 4

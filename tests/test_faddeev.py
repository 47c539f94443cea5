"""Tests for residue-profile reconstruction on the projective t-line.

The reconstruction is verified the honest way throughout: recompute the
residue profile of the produced symbol sum and compare entry by entry
(that is what ``roundtrip_ok`` reports).
"""

import itertools
import random
from fractions import Fraction

import pytest

from enriq import residues
from enriq.funcfield import QQ, Place, Poly, RatFunc, TowerCoefficients
from enriq.residues import (
    FaddeevRepairError,
    FunctionFieldSymbol,
    ResidueSpec,
    SquareClass,
    faddeev_obstruction,
    faddeev_reconstruct,
    repair_spec,
    symbol_profile,
)
from enriq.towers import Tower

T0 = Place.finite(Poly(QQ, [0, 1]))       # t = 0
T1 = Place.finite(Poly(QQ, [1, 1]))       # t = -1
T2 = Place.finite(Poly(QQ, [-2, 1]))      # t = 2
TQ2 = Place.finite(Poly(QQ, [-2, 0, 1]))  # t^2 - 2
TQ1 = Place.finite(Poly(QQ, [1, 0, 1]))   # t^2 + 1
INF = Place.infinite(QQ)


# --------------------------------------------------------------------------
# the corestriction-sum obstruction
# --------------------------------------------------------------------------

def test_obstruction_of_consistent_profile_is_trivial():
    spec = ResidueSpec().add(T0, -1).add(INF, -1)
    assert faddeev_obstruction(spec).is_trivial()


def test_obstruction_multiplies_norms():
    # norm(beta) = -2 at t^2 - 2, times 3/2 at infinity: class [-3]
    spec = ResidueSpec().add(TQ2, (0, 1)).add(INF, Fraction(3, 2))
    assert str(faddeev_obstruction(spec)) == "-3"


def test_profiles_of_actual_symbols_obey_the_sum_condition():
    """Residues of genuine symbols always multiply (normwise) to a
    square; random symbols over the standard support grid check it."""
    rng = random.Random(40961)
    t = RatFunc.variable(QQ)
    shifts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]

    def rand_fn():
        f = RatFunc.constant(QQ, rng.choice([1, -1, 2, -2, 3, -6]))
        for c in shifts:
            e = rng.randint(-1, 1)
            if e:
                f = f * (t - c) ** e
        if rng.random() < 0.5:
            f = f * (t * t - 2)
        return f

    for _ in range(20):
        prof = symbol_profile([FunctionFieldSymbol(rand_fn(), rand_fn())])
        spec = ResidueSpec()
        for place, cls in prof.items():
            spec.add(place, cls.value)
        assert faddeev_obstruction(spec).is_trivial()


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def test_single_residue_at_the_origin():
    res = faddeev_reconstruct(ResidueSpec().add(T0, -1))
    assert res["status"] == "reconstructed"
    assert str(res["symbols"]) == "(-1, t)"
    assert str(res["infinity_class"]) == "-1"
    assert res["roundtrip_ok"], res["problems"]


def test_degree_two_entry_uses_linear_slot():
    res = faddeev_reconstruct(ResidueSpec().add(TQ2, (1, 1)))
    assert res["status"] == "reconstructed"
    assert str(res["symbols"]) == "(t + 1, t^2 - 2) + (-1, t + 1)"
    # norm(1 + beta) = -1 lands at infinity
    assert str(res["infinity_class"]) == "-1"
    assert res["roundtrip_ok"], res["problems"]


def test_purely_rational_value_at_degree_two_place():
    res = faddeev_reconstruct(ResidueSpec().add(TQ2, (3, 0)).add(T0, 3))
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"], res["problems"]


def test_declared_infinity_must_balance():
    spec = ResidueSpec().add(T0, -1).add(INF, 1)
    res = faddeev_reconstruct(spec)
    assert res["status"] == "obstructed"
    assert str(res["witness"]) == "-1"


def test_declared_infinity_accepted_when_consistent():
    spec = ResidueSpec().add(T0, -1).add(T1, 2).add(INF, -2)
    res = faddeev_reconstruct(spec)
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"], res["problems"]


def test_sweep_of_small_profiles():
    """Exhaustive-ish sweep: every spec with entries from a fixed value
    set reconstructs and roundtrips, and is rejected exactly when the
    declared profile violates the corestriction-sum condition."""
    finite = [T0, T1, T2, TQ2]
    values = {T0: [-1, 2], T1: [-1, 3], T2: [2, -6], TQ2: [(0, 1), (1, 1)]}
    count = reject = 0
    for r in range(1, 4):
        for combo in itertools.combinations(finite, r):
            for choice in itertools.product(*(values[p] for p in combo)):
                for inf_value in (None, 1, -1, 2):
                    spec = ResidueSpec()
                    for p, v in zip(combo, choice):
                        spec.add(p, v)
                    if inf_value is not None:
                        spec.add(INF, inf_value)
                    blocked = (
                        inf_value is not None
                        and not faddeev_obstruction(spec).is_trivial()
                    )
                    res = faddeev_reconstruct(spec)
                    count += 1
                    if blocked:
                        reject += 1
                        assert res["status"] == "obstructed"
                    else:
                        assert res["status"] == "reconstructed"
                        assert res["roundtrip_ok"], (spec.to_pairs(), res["problems"])
    assert count == 256 and reject > 0


@pytest.mark.parametrize("spec,place", [
    (ResidueSpec().add(T0, -1), T0),                  # a spec entry
    (ResidueSpec().add(T0, -1).add(INF, -1), INF),    # a declared infinity
    (ResidueSpec().add(TQ2, (1, 1)), T1),             # the correction place t + 1
], ids=["entry", "infinity", "unspecified"])
def test_roundtrip_names_the_place_it_misses(monkeypatch, spec, place):
    """The round trip compares what it recomputes: a profile with one class
    multiplied by the nonsquare 3 fails exactly at that place."""
    profile = residues.symbol_profile

    def perturbed(*args, **kwargs):
        out = profile(*args, **kwargs)
        out[place] = out[place] * SquareClass(out[place].field, 3)
        return out

    assert faddeev_reconstruct(spec)["roundtrip_ok"]
    monkeypatch.setattr(residues, "symbol_profile", perturbed)
    res = faddeev_reconstruct(spec)
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"] is False
    assert res["problems"] == [str(place)]


def test_roundtrip_needs_no_factorisation():
    """The round trip decides square classes without printing them: a
    value whose square-free part cannot be certified (a product of two
    30-digit primes) still reconstructs and passes."""
    p, q = 10**29 + 319, 3 * 10**29 + 7
    res = faddeev_reconstruct(ResidueSpec().add(T0, p * q).add(T1, p))
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"] is True
    assert res["problems"] == []


def test_duplicate_entries_are_rejected():
    spec = ResidueSpec().add(T0, -1)
    with pytest.raises(ValueError):
        spec.add(T0, 2)


def test_degree_three_places_are_out_of_scope():
    cubic = Place.finite(Poly(QQ, [-2, 0, 0, 1]))  # t^3 - 2
    with pytest.raises(NotImplementedError):
        ResidueSpec().add(cubic, -1)


def test_zero_is_not_a_residue_class():
    with pytest.raises(ZeroDivisionError):
        ResidueSpec().add(T0, 0)


# --------------------------------------------------------------------------
# repair
# --------------------------------------------------------------------------

def test_repair_at_a_linear_place():
    spec = ResidueSpec().add(T0, -1).add(INF, 1)
    fixed = repair_spec(spec, T0)
    assert faddeev_obstruction(fixed).is_trivial()
    res = faddeev_reconstruct(fixed)
    assert res["status"] == "reconstructed" and res["roundtrip_ok"]


def test_repair_at_infinity():
    spec = ResidueSpec().add(T0, -1).add(INF, 1)
    fixed = repair_spec(spec, INF)
    assert str(fixed.entries[INF]) == "-1"
    assert faddeev_reconstruct(fixed)["status"] == "reconstructed"


def test_repair_at_degree_two_place_when_the_class_is_a_norm():
    # obstruction [-2]; beta itself has norm -2 at t^2 - 2
    spec = ResidueSpec().add(TQ2, (0, 1)).add(INF, 1)
    fixed = repair_spec(spec, TQ2)
    assert faddeev_obstruction(fixed).is_trivial()
    res = faddeev_reconstruct(fixed)
    assert res["status"] == "reconstructed" and res["roundtrip_ok"]


def test_repair_picks_an_element_of_the_norm_by_hand():
    """At t^2 + t - 1 (u = 1, v = -1) the obstruction is [5]; the first
    small A + B*beta whose norm A^2 - A*B*u + B^2*v lies in [5] is
    -2 + beta, of norm 4 + 2 - 1 = 5."""
    place = Place.finite(Poly(QQ, [-1, 1, 1]))
    spec = ResidueSpec().add(place, (1, 0)).add(INF, 5)
    fixed = repair_spec(spec, place)
    rf = place.residue_field()
    chosen = fixed.entries[place]
    a_part, b_part = rf.coordinates(chosen)
    assert (a_part, b_part) == (-2, 1)
    u, v = place.poly.coeff(1), place.poly.coeff(0)
    assert rf.norm_to_base(chosen) == a_part**2 - a_part * b_part * u + b_part**2 * v == 5
    assert faddeev_obstruction(fixed).is_trivial()


def test_repair_fails_honestly_when_the_class_is_not_a_norm():
    # [-3] is not a norm from Q(sqrt 2): the local symbol (-3, 2) at 3
    # is -1. The repair search must come back empty-handed.
    spec = ResidueSpec().add(TQ2, (0, 1)).add(INF, Fraction(3, 2))
    with pytest.raises(FaddeevRepairError):
        repair_spec(spec, TQ2)


# --------------------------------------------------------------------------
# over a quadratic number field
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sqrt5_base():
    tower = Tower().extend("r5", Fraction(5), depth=12, label="sqrt5")
    return TowerCoefficients(tower), tower.gen("r5")


def test_reconstruction_over_quadratic_base(sqrt5_base):
    K, r5 = sqrt5_base
    place = Place.finite(Poly(K, [K.zero(), K.one()]))
    res = faddeev_reconstruct(ResidueSpec(K).add(place, r5))
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"], res["problems"]
    # the class at infinity is again [sqrt 5] (up to the square 1/5)
    inf_cls = res["infinity_class"]
    assert not inf_cls.is_trivial()
    assert inf_cls.same_class(type(inf_cls)(K, r5))


def test_degree_two_entry_over_quadratic_base(sqrt5_base):
    K, _ = sqrt5_base
    # t^2 - 2 stays irreducible over Q(sqrt 5)
    place = Place.finite(Poly(K, [K.coerce(-2), K.zero(), K.one()]))
    res = faddeev_reconstruct(ResidueSpec(K).add(place, (K.one(), K.one())))
    assert res["status"] == "reconstructed"
    assert res["roundtrip_ok"], res["problems"]
    assert str(res["infinity_class"]) == "-1"


def test_base_mismatch_is_rejected(sqrt5_base):
    K, _ = sqrt5_base
    with pytest.raises(TypeError):
        ResidueSpec(K).add(T0, -1)

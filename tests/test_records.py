"""The record types keep the behaviour their callers rely on: frozen
fields, value equality with matching hashes, the order of Weierstrass
classes, identity equality of projective points and a fresh container
per instance where a field defaults to one."""

import random
from functools import partial

import pytest

from enriq import lattice, presets, twotorsion
from enriq.actions import load_rows
from enriq.arith import Factorization
from enriq.conditions import PASS, ConditionReport
from enriq.funcfield import QQ, Place, Poly
from enriq.geometry import ProjPoint
from enriq.residues import SurfacePlace
from enriq.towers import SquareVerdict
from enriq.twotorsion import WeierstrassClass


def _t_fiber(*coeffs):
    return SurfacePlace("t", Place.finite(Poly(QQ, list(coeffs))))


def _point(tower):
    one, zero = tower.one(), tower.zero()
    return ProjPoint("P2", ((one, one + one, zero),))


#: For each frozen record: a builder and one field to assign.
FROZEN = {
    "SquareVerdict": (lambda: SquareVerdict(False), "verdict"),
    "GaloisRow": (lambda: load_rows()[0], "name"),
    "ProjPoint": (lambda: _point(presets.k0_tower()), "blocks"),
    "PullbackSublattice": (lattice.pullback_sublattice, "doubled"),
    "Subspace": (lambda: lattice.invariants_under([]), "basis_masks"),
    "SurfacePlace": (lambda: _t_fiber(-2, 0, 1), "axis"),
    "WeierstrassClass": (twotorsion.pullback_kernel, "mask"),
    "Submodule": (lambda: twotorsion.enumerate_invariant_submodules(
        twotorsion.pullback_image_module(), 2)[0], "index"),
}


def _assignment_raises(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def _equal_records_hash_equal():
    for x, y in [
        (WeierstrassClass.from_points(["P1", "Q1"]),
         WeierstrassClass.from_mask(0xFF ^ 0x11)),  # the complement
        (_t_fiber(-2, 0, 1), _t_fiber(-2, 0, 1)),
        (SurfacePlace("x", Place.infinite(QQ)), SurfacePlace("x", Place.infinite(QQ))),
    ]:
        assert x is not y and x == y and hash(x) == hash(y)
        assert {x: 1}[y] == 1
    assert _t_fiber(-2, 0, 1) != SurfacePlace("x", Place.finite(Poly(QQ, [-2, 0, 1])))
    assert WeierstrassClass(0) != twotorsion.pullback_kernel()


def _weierstrass_classes_sort_by_mask():
    group = list(twotorsion.jac2_group())
    shuffled = group[:]
    random.Random(16).shuffle(shuffled)
    assert sorted(shuffled) == group
    assert [c.mask for c in group] == sorted(c.mask for c in group)
    x, y = group[1], group[2]
    assert x < y and x <= y and y > x and y >= x and x <= x and not x < x


def _projective_points_compare_by_identity():
    k0 = presets.k0_tower()
    p, q = _point(k0), _point(k0)
    assert p.same_as(q) and p != q and p == p
    assert len({p, q}) == 2


def _default_containers_are_fresh():
    a, b = Factorization(6), Factorization(6)
    assert a == b
    a.factors[2] = 1
    assert b.factors == {} and a != b
    r, s = ConditionReport(1, PASS, ""), ConditionReport(1, PASS, "")
    assert r == s
    r.notes.append("note")
    r.data["value"] = 1
    assert s.notes == [] and s.data == {} and r != s


CHECKS = {
    **{f"frozen-{name}": partial(_assignment_raises, *case) for name, case in FROZEN.items()},
    "hash": _equal_records_hash_equal,
    "order": _weierstrass_classes_sort_by_mask,
    "identity": _projective_points_compare_by_identity,
    "fresh-defaults": _default_containers_are_fresh,
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_record_behaviour(check):
    check()

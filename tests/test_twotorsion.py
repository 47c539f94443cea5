"""Tests for the Weierstrass-class model of Jacobian 2-torsion.

Counts and bases here are frozen from exhaustive enumeration (64 classes,
374 subspaces of F2^5), which the module itself performs; independent
spot derivations for the fixed spaces and scan counts are in comments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriq import f2
from enriq.actions import POINT_NAMES, load_rows
from enriq.twotorsion import (
    IDENTITY,
    P_MASK,
    Q_MASK,
    WeierstrassClass,
    default_scan_rows,
    enumerate_invariant_submodules,
    fixed_odd_class_scan,
    induced_block_basis,
    jac2_group,
    point_orbits,
    pullback_image_module,
    pullback_kernel,
    scan_report,
    transitivity_check,
    verify_induced_blocks,
    verify_non_splitness,
)


def wc(*points):
    return WeierstrassClass.from_points(points)


def test_group_of_order_64():
    group = jac2_group()
    assert len(group) == 64
    assert all(cls + cls == IDENTITY for cls in group)
    assert wc("P1", "P2") + wc("P2", "P3") == wc("P1", "P3")
    # canonicalization identifies complements and is idempotent
    assert WeierstrassClass.from_mask(0x3C) == WeierstrassClass.from_mask(0x3C ^ 0xFF)
    assert wc() == IDENTITY
    assert wc("Q1", "Q2", "Q3", "Q4").points == ("P1", "P2", "P3", "P4")


def test_class_validation():
    with pytest.raises(ValueError):
        wc("P1")  # odd cardinality
    with pytest.raises(ValueError):
        WeierstrassClass(Q_MASK)  # non-canonical representative
    with pytest.raises(ValueError):
        WeierstrassClass(0xFF)
    with pytest.raises(KeyError):
        wc("P5", "P6")


def test_pullback_kernel():
    k = pullback_kernel()
    assert k == wc("P1", "P2", "P3", "P4") == wc("Q1", "Q2", "Q3", "Q4")
    assert k + k == IDENTITY
    assert not k.odd_p_part()


def test_image_module_shape():
    m = pullback_image_module()
    assert m.dimension == 5
    assert m.basis_classes == (
        wc("P1", "P3"), wc("P1", "P4"), wc("Q1", "Q3"), wc("Q1", "Q4"), wc("P1", "Q1"),
    )
    assert len(m.actions) == 17
    assert m.coordinates(pullback_kernel()) == 0
    assert m.element(0) == IDENTITY
    for coord in range(32):
        assert m.coordinates(m.element(coord)) == coord


def test_induced_block_structure():
    assert verify_induced_blocks()
    m = pullback_image_module()
    # the quarter-turn row is the only one swapping the first pair,
    # the theta0 row the only one swapping the second
    assert m.act("rt4ab", 0b00001) == 0b00010
    assert m.act("theta0", 0b00100) == 0b01000
    assert m.act("eta0", 0b00001) == 0b00001
    # eta0 sends {P1,Q1} to {P3,Q1} = {P1,Q1} + {P1,P3}: the extension twists
    assert m.act("eta0", 0b10000) == 0b10001


def test_non_splitness_and_fixed_space():
    assert verify_non_splitness()
    assert _class_walk({row.name for row in load_rows()}) == []
    m = pullback_image_module()
    fixed = m.fixed_subspace()
    # {P3,P4} = e1+e2 and {Q3,Q4} = e3+e4 survive everything (each only
    # ever moves by the kernel class); nothing with an extension component does
    assert set(fixed) == {0b00011, 0b01100}
    assert all(f2.in_span(induced_block_basis(), v) for v in fixed)
    assert m.element(0b00011) == wc("P3", "P4")
    assert m.element(0b01100) == wc("Q3", "Q4")


def test_invariant_submodule_enumeration():
    m = pullback_image_module()
    whole = enumerate_invariant_submodules(m, 1)
    assert len(whole) == 1 and whole[0].dimension == 5

    index2 = enumerate_invariant_submodules(m, 2)
    assert len(index2) == 1
    assert index2[0].basis == tuple(f2.echelon(induced_block_basis()))

    assert enumerate_invariant_submodules(m, 64) == []

    # every proper invariant submodule sits inside the induced-block part
    counts = {}
    for index in (2, 4, 8, 16, 32):
        subs = enumerate_invariant_submodules(m, index)
        counts[index] = len(subs)
        for sub in subs:
            assert sub.index == index
            assert all(f2.in_span(induced_block_basis(), b) for b in sub.basis)
    assert counts == {2: 1, 4: 3, 8: 5, 16: 3, 32: 1}

    with pytest.raises(ValueError):
        enumerate_invariant_submodules(m, 3)
    with pytest.raises(ValueError):
        enumerate_invariant_submodules(m, 0)


def test_scan_default_subgroup_selection():
    names = default_scan_rows()
    assert "theta0" not in names and "rt4ab" not in names
    assert len(names) == 15


def test_scan_is_empty_on_the_full_subgroup():
    assert fixed_odd_class_scan(default_scan_rows()) == []


def test_scan_sensitivity():
    # Both quartet actions independently kill every odd candidate: dropping
    # eta0 leaves sqrta's (P1 P2)(P3 P4) to clear the P side, so the scan
    # stays empty; it likewise stays empty from the Q side alone.
    no_eta0 = [name for name in default_scan_rows() if name != "eta0"]
    assert fixed_odd_class_scan(no_eta0) == []
    assert fixed_odd_class_scan(["sqrta"]) == []
    assert fixed_odd_class_scan(["gamma0", "theta1p"]) == []
    # a single 2-cycle is too weak: (Q3 Q4) leaves 16 classes fixed
    theta_only = fixed_odd_class_scan(["theta0"])
    assert len(theta_only) == 16
    assert wc("P1", "Q1") in theta_only
    # the trivial subgroup fixes all 32 odd-P candidates
    trivial = fixed_odd_class_scan([])
    assert len(trivial) == 32
    assert all(c.odd_p_part() for c in trivial)
    with pytest.raises(ValueError):
        fixed_odd_class_scan(["nope"])


def _class_walk(names):
    """The odd-P classes c with c + g(c) in {0, kernel} for every row g,
    by walking all 64 classes and permuting their points."""
    perms = [row.point_permutation() for row in load_rows() if row.name in names]
    return [c for c in jac2_group() if c.odd_p_part()
            and all(c + c.transformed(perm) in (IDENTITY, pullback_kernel())
                    for perm in perms)]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from([row.name for row in load_rows()])))
def test_scan_matches_the_class_walk(names):
    assert fixed_odd_class_scan(sorted(names)) == _class_walk(names)


def test_scan_report_audit_trail():
    report = scan_report()
    assert report["candidates"] == 32
    assert report["fixed_classes"] == []
    assert len(report["subgroup"]) == 17
    excluded = {e["row"]: e["reason"] for e in report["subgroup"] if not e["included"]}
    assert set(excluded) == {"theta0", "rt4ab"}
    assert "theta0" in excluded["theta0"]
    assert "sqrtab" in excluded["rt4ab"]
    assert all("point_pairs" in e for e in report["subgroup"])


def test_scan_respects_relabeling():
    # candidates are closed under every realized point permutation, so the
    # scan result cannot depend on which representative labelling is used
    trivial = set(fixed_odd_class_scan([]))
    for row in load_rows():
        perm = row.point_permutation()
        assert {c.transformed(perm) for c in trivial} == trivial


def test_point_orbits_are_the_two_quartets():
    assert point_orbits() == [("P1", "P2", "P3", "P4"), ("Q1", "Q2", "Q3", "Q4")]
    assert transitivity_check() is False
    # single rows are far from transitive
    assert transitivity_check(["eta0"]) is False
    assert point_orbits(["eta0"]) == [
        ("P1", "P3"), ("P2", "P4"), ("Q1",), ("Q2",), ("Q3",), ("Q4",),
    ]
    # all P-moving rows together still leave the Q quartet untouched
    assert transitivity_check(["eta0", "rt4ab", "sqrta"]) is False
    with pytest.raises(ValueError, match="unknown Galois row"):
        point_orbits(["nope"])


def _orbit_closure(names):
    """The point orbits, by closing each point under the rows' permutations."""
    perms = [row.point_permutation() for row in load_rows() if row.name in names]
    orbits = set()
    for start in POINT_NAMES:
        orbit, frontier = {start}, [start]
        while frontier:
            p = frontier.pop()
            for perm in perms:
                if perm[p] not in orbit:
                    orbit.add(perm[p])
                    frontier.append(perm[p])
        orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([row.name for row in load_rows()])))
def test_point_orbits_match_the_plain_closure(names):
    assert point_orbits(names) == _orbit_closure(names)

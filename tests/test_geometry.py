"""Geometry suite: branch points, projection equivariance, genus ledger.

The frozen expectations were derived once by independent hand expansion
(the P1-on-conic identity reduces to a*(eta0^2 - c^2 + 100ab) = 0) and by
the session oracles, then pinned here.
"""

import copy

import pytest

from enriq import geometry, presets
from enriq.geometry import ProjPoint
from enriq.towers import tower_expr

WITNESS = (12, 111, 13)

# Three further triplets passing the two congruence screens, nonsingular,
# with fully non-degenerate towers (probed once, then frozen).
EXTRA_TRIPLETS = ((89, 34, 13), (12, 188, 13), (166, 34, 13))


def _abc_env(tower, triplet):
    a, b, c = triplet
    return {"a": tower.rational(a), "b": tower.rational(b), "c": tower.rational(c)}


# -- branch points on the conic -----------------------------------------


def test_witness_weierstrass_report(k_tower_witness):
    report = geometry.weierstrass_report(*WITNESS, tower=k_tower_witness)
    assert report["ok"] is True
    assert [row["point"] for row in report["points"]] == [
        "P1", "P2", "P3", "P4", "Q1", "Q2", "Q3", "Q4",
    ]
    for row in report["points"]:
        assert row["lines_vanish_at_listed"] is True
        assert row["solved_matches_listed"] is True
        assert row["on_conic"] is True


def test_weierstrass_holds_in_the_small_tower(k1_tower_witness):
    # the degree-1024 field K1 already holds every coordinate
    assert geometry.weierstrass_report(*WITNESS, tower=k1_tower_witness)["ok"] is True


@pytest.mark.parametrize("triplet", EXTRA_TRIPLETS)
def test_weierstrass_on_further_triplets(triplet):
    report = geometry.weierstrass_report(*triplet, tower=presets.k1_tower(*triplet))
    assert report["ok"] is True


def test_conic_perturbation_control(k1_tower_witness):
    tw = k1_tower_witness
    env = _abc_env(tw, WITNESS)
    coords = [
        tower_expr(tw, text, env)
        for text in ("c - eta0", "10*a", "10*a*eta1p")
    ]
    assert geometry.conic_value(tw, *WITNESS, coords).is_zero()
    coords[2] = coords[2] + 1  # v2 perturbed off the point
    assert not geometry.conic_value(tw, *WITNESS, coords).is_zero()


def test_parallel_lines_are_rejected(k1_tower_witness):
    tw = k1_tower_witness
    lines = [
        geometry._poly_expr(tw, "v0 + v1", {}),
        geometry._poly_expr(tw, "2*v0 + 2*v1", {}),
    ]
    with pytest.raises(ValueError, match="single point"):
        geometry._solve_two_lines(lines, tw)


def test_degenerate_tower_is_refused():
    # for (1,1,1) the tower loses sqrtab, theta0 and eta1p
    with pytest.raises(ValueError, match="degenerate"):
        geometry.weierstrass_report(1, 1, 1, tower=presets.k1_tower(1, 1, 1))


# -- projective points --------------------------------------------------


def test_projpoint_validation(k0_tower):
    one = k0_tower.one()
    zero = k0_tower.zero()
    with pytest.raises(ValueError, match="all zero"):
        ProjPoint("P2", ((zero, zero, zero),))
    with pytest.raises(ValueError, match="unknown ambient"):
        ProjPoint("P3", ((one, one, one, one),))
    with pytest.raises(ValueError, match="blocks of sizes"):
        ProjPoint("P1xP1", ((one, one),))
    p2 = ProjPoint("P2", ((one, one + one, zero),))
    scaled = ProjPoint("P2", ((one + one, (one + one) * 2, zero),))
    assert p2.same_as(scaled)
    assert not p2.same_as(ProjPoint("P2", ((one, one, zero),)))


# -- equivariance of the projection -------------------------------------


def test_phi_equivariance_is_formal(k0_tower):
    assert geometry.phi_equivariance(k0_tower) is True
    assert geometry.phi_signature(k0_tower, flip_v=True, flip_w=False) == "minus-one"


def test_phi_double_flip_control(k0_tower):
    # negating both coordinate groups composes to the identity map
    assert geometry.phi_signature(k0_tower, flip_v=True, flip_w=True) == "identity"
    assert geometry.phi_signature(k0_tower, flip_v=False, flip_w=False) == "identity"
    # flipping only w realises [-1] as well: both coordinate numerators
    # are w-linear while the denominators are w-free
    assert geometry.phi_signature(k0_tower, flip_v=False, flip_w=True) == "minus-one"


# -- the blown-down points under [-1] -----------------------------------


def test_exceptional_pairing(k0_tower):
    pairing = geometry.exceptional_minus_one_pairing(k0_tower)
    assert pairing == {"E1": "E2", "E2": "E1", "E3": "E4", "E4": "E3"}


def test_minus_one_is_an_involution_on_points(k0_tower):
    for pt in geometry.exceptional_points(k0_tower).values():
        assert pt.minus_one().minus_one().same_as(pt)
        assert not pt.minus_one().same_as(pt)


# -- genus bookkeeping --------------------------------------------------


def test_genus_bookkeeping_default():
    report = geometry.genus_bookkeeping()
    assert report["ok"] is True
    assert report["tuple"] == (5, 3, 9, 5)
    assert all(check["ok"] for check in report["checks"])
    names = [check["check"] for check in report["checks"]]
    assert "Riemann-Hurwitz for B over Btilde" in names
    assert "Riemann-Hurwitz for Btilde over P1" in names
    assert "Riemann-Hurwitz for B over P1" in names
    assert "deg K = 2g - 2 on B" in names
    # the canonical degree of the three-quadric intersection
    deg = next(c for c in report["checks"] if c["check"].startswith("deg K"))
    assert deg["lhs"] == 8 and deg["rhs"] == 8


def test_genus_bookkeeping_rejects_inconsistent_input():
    bad = copy.deepcopy(geometry.DEFAULT_GENUS_LEDGER)
    bad["curves"]["B0"]["nodes"] = 3
    with pytest.raises(ValueError, match="inconsistent"):
        geometry.genus_bookkeeping(bad)
    bad = copy.deepcopy(geometry.DEFAULT_GENUS_LEDGER)
    bad["covers"][1]["ramification"] = 6
    with pytest.raises(ValueError, match="Riemann-Hurwitz"):
        geometry.genus_bookkeeping(bad)


# -- the twelve displayed generator formulas ----------------------------


def test_generator_relations_witness(k_tower_witness):
    report = geometry.generator_relations(*WITNESS, tower=k_tower_witness)
    assert [entry["label"] for entry in report] == [
        "sqrt_m2m2r2", "sqrt_mc_p10rab", "theta1m", "theta2m", "xi1m", "xi2m",
        "gamma1p_square", "eta1p_square", "gamma1m_square", "eta1m_square",
        "gamma1_product", "eta1_product",
    ]
    assert all(entry["holds"] for entry in report)
    # the first six formulas each pin a quotient and a square
    assert [len(entry["checks"]) for entry in report] == [2] * 6 + [1] * 6
    theta1m = next(e for e in report if e["label"] == "theta1m")
    assert "sign" in theta1m["note"]


def test_generator_relations_second_triplet():
    triplet = EXTRA_TRIPLETS[0]
    report = geometry.generator_relations(*triplet, tower=presets.k_tower(*triplet))
    assert all(entry["holds"] for entry in report)


def test_printed_sign_variant_fails(k_tower_witness):
    # the uncorrected radicand (theta0 term with a plus sign) is the
    # square of theta1p, not of theta1m
    tw = k_tower_witness
    env = _abc_env(tw, WITNESS)
    wrong = tower_expr(tw, "20*a**2 - 10*a*b - 2*b*c + (10*a + 2*c)*theta0", env)
    assert tower_expr(tw, "theta1m**2", env) != wrong
    assert tower_expr(tw, "theta1p**2", env) == wrong


def test_k1_definitions_agree_with_relation_suite(k1_tower_witness):
    # in the small tower the minus elements are defined through the
    # product formulas; their squares must still come out right
    tw = k1_tower_witness
    env = _abc_env(tw, WITNESS)
    checks = [
        ("eta1m**2", "(-c - eta0)/(50*a)"),
        ("gamma1m**2", "10*a**2 - 5*a*b - b*c - 2*a*gamma0"),
        ("eta1p*eta1m", "-sqrtab/(5*a)"),
        ("gamma1p*gamma1m", "(5*a + c)*theta0"),
    ]
    for lhs, rhs in checks:
        assert tower_expr(tw, lhs, env) == tower_expr(tw, rhs, env), lhs


# -- the field action on the points -------------------------------------


def test_point_permutations_match_table(k_tower_witness):
    verdict = geometry.verify_point_permutations(*WITNESS, tower=k_tower_witness)
    assert verdict["ok"] is True
    assert len(verdict["rows"]) == 17
    by_row = {row["row"]: row for row in verdict["rows"]}
    assert by_row["eta0"]["derived_pairs"] == [["P1", "P3"], ["P2", "P4"]]
    assert by_row["gamma0"]["derived_pairs"] == [["Q1", "Q3"], ["Q2", "Q4"]]
    # the two rows whose printed point cells needed completion
    assert by_row["sqrta"]["derived_pairs"] == [["P1", "P2"], ["P3", "P4"]]
    assert by_row["sqrt_mc_m10rab"]["derived_pairs"] == [["P1", "P2"], ["P3", "P4"]]
    assert by_row["sqrt2"]["derived_pairs"] == []


def test_induced_permutations_are_permutations(k_tower_witness):
    perms = geometry.induced_point_permutations(*WITNESS, tower=k_tower_witness)
    assert set(perms) == {
        "sqrt5", "i", "sqrt_m2p2r2", "sqrt2", "sqrtc", "gamma0", "eta0",
        "rt4ab", "sqrta", "sqrt_mc_m10rab", "xi0", "theta0", "xi0p",
        "theta1p", "xi1p", "theta2p", "xi2p",
    }
    for perm in perms.values():
        assert sorted(perm.values()) == sorted(perm.keys())
        # P points stay P points, Q points stay Q points
        for src, dst in perm.items():
            assert src[0] == dst[0]


def test_induced_permutations_reject_a_point_outside_the_list(k_tower_witness, monkeypatch):
    from enriq.actions import GaloisRow

    # eta0 -> 2*eta0 is no automorphism; it sends P1 = (c - eta0 : 10a : ...)
    # to a point that is not listed
    doctored = GaloisRow("doctored", {"eta0": "2*eta0"}, {}, ())
    monkeypatch.setattr(geometry, "load_rows", lambda: (doctored,))
    with pytest.raises(ValueError, match="outside the listed points"):
        geometry.induced_point_permutations(*WITNESS, tower=k_tower_witness)


# -- the whole suite ----------------------------------------------------


def test_verify_suite_witness(k_tower_witness):
    suite = geometry.verify_suite(*WITNESS, tower=k_tower_witness)
    assert suite["ok"] is True
    assert suite["triplet"] == [12, 111, 13]
    assert suite["phi_equivariance"] is True
    assert suite["phi_control_identity"] is True
    assert suite["genus"]["tuple"] == (5, 3, 9, 5)
    assert suite["minus_one_pairing"] == {
        "E1": "E2", "E2": "E1", "E3": "E4", "E4": "E3",
    }
    assert suite["weierstrass"]["ok"] and suite["point_permutations"]["ok"]
    assert all(entry["holds"] for entry in suite["generator_relations"])

"""Structural tests for the Galois action table.

Row-by-row substance (does the field column really square to the mapped
radicands, which rows fix which subfield) is exercised here on the witness
tower; compatibility of the class/point columns with the surface geometry
lives in the geometry tests.
"""

import pytest

from enriq import datafiles, lattice
from enriq.actions import (
    CLASS_NAMES,
    POINT_NAMES,
    load_rows,
    partner,
    rows_by_name,
    tower_automorphism,
)

ROW_NAMES = [
    "sqrt5", "i", "sqrt_m2p2r2", "sqrt2", "sqrtc", "gamma0", "eta0",
    "rt4ab", "sqrta", "sqrt_mc_m10rab", "xi0", "theta0", "xi0p",
    "theta1p", "xi1p", "theta2p", "xi2p",
]


def _perm_order(perm):
    n, acc = 1, dict(perm)
    while any(acc[k] != k for k in acc):
        acc = {k: perm[v] for k, v in acc.items()}
        n += 1
    return n


def test_seventeen_rows_in_table_order():
    assert [r.name for r in load_rows()] == ROW_NAMES


def test_partner():
    assert partner("F3") == "G3"
    assert partner("G12") == "F12"
    with pytest.raises(ValueError):
        partner("Z1")


def test_class_permutations_are_fibre_equivariant_bijections():
    for row in load_rows():
        perm = row.class_permutation()
        assert sorted(perm) == sorted(perm.values()) == sorted(CLASS_NAMES)
        for src, dst in perm.items():
            assert perm[partner(src)] == partner(dst)


def test_quarter_turn_row_is_a_four_cycle():
    perm = rows_by_name()["rt4ab"].class_permutation()
    assert (perm["F5"], perm["F6"], perm["G5"], perm["G6"]) == ("F6", "G5", "G6", "F5")
    assert _perm_order(perm) == 4
    # an order-2 row for contrast
    assert _perm_order(rows_by_name()["sqrt5"].class_permutation()) == 2


def test_point_permutations_never_mix_the_two_tails():
    for row in load_rows():
        perm = row.point_permutation()
        assert sorted(perm.values()) == sorted(POINT_NAMES)
        for p, q in perm.items():
            assert p[0] == q[0]  # P's map to P's, Q's to Q's
        flat = [p for pair in row.weier_pairs for p in pair]
        assert len(flat) == len(set(flat))  # disjoint 2-cycles


def test_all_field_columns_validate_on_witness_tower(k_tower_witness):
    for row in load_rows():
        tower_automorphism(k_tower_witness, row).validate()  # raises on mismatch


def test_moves_root_and_fixes_element(k_tower_witness):
    table = rows_by_name()
    assert table["sqrt5"].moves_root("sqrt5")
    assert not table["sqrt5"].moves_root("sqrt2")

    def fixes(row, name):
        elem = k_tower_witness.named[name]
        return tower_automorphism(k_tower_witness, table[row])(elem) == elem

    assert fixes("sqrtc", "sqrt2")
    assert not fixes("sqrt2", "sqrt2")
    # derived named elements participate: eta1p involves sqrta and u-type roots
    assert not fixes("sqrta", "eta1p")


def test_rows_fixing_subfield_generators(k_tower_witness, k1_tower_witness):
    fixing = lattice.subfield_fixing_rows(k_tower_witness, k1_tower_witness.step_names())
    assert fixing == [
        "sqrtc", "xi0", "xi0p", "xi1p", "theta2p", "xi2p",
    ]


def test_erratum_notes_travel_with_the_data():
    payload = datafiles.load("galois_actions.json", "galois-actions/1")
    notes = {row["name"]: row.get("note") for row in payload["rows"]}
    assert "F5 -> G6" in notes["rt4ab"]  # the corrected printed value is documented
    # the blank printed point cell cannot mean identity; the completed pairs
    # and their justification travel with the row
    assert "blank" in notes["sqrt_mc_m10rab"]
    assert rows_by_name()["sqrt_mc_m10rab"].weier_pairs == (("P1", "P2"), ("P3", "P4"))


def test_identity_outside_listed_moves():
    row = rows_by_name()["theta0"]
    perm = row.class_permutation()
    assert perm["F8"] == "F9" and perm["G8"] == "G9"
    untouched = set(CLASS_NAMES) - {"F8", "F9", "G8", "G9"}
    assert all(perm[c] == c for c in untouched)
    pts = row.point_permutation()
    assert pts == {"P1": "P1", "P2": "P2", "P3": "P3", "P4": "P4",
                   "Q1": "Q1", "Q2": "Q2", "Q3": "Q4", "Q4": "Q3"}

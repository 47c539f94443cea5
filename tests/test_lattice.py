"""Lattice-model tests.

The numeric expectations (pairings, determinants, dimensions) are frozen
from independent computations: the determinants were recomputed with sympy
over exact rationals, the pairing examples by hand from the two-generator
rule, and the invariant dimensions cross-checked against the published
counts.
"""

import functools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from enriq import actions, lattice
from enriq.actions import CLASS_NAMES as FIBRE_NAMES
from enriq.actions import GaloisRow
from enriq.lattice import (
    CORE_CLASSES,
    GENERATORS,
    LATTICE_BASIS,
    RANK,
    as_vector,
    class_vector,
    core_action_table,
    exceptional_pullback,
    galois_matrix,
    gram,
    gram_matrix,
    in_lattice,
    invariants_under,
    lattice_coords,
    pullback_sublattice,
    quotient_F2,
    subfield_fixing_rows,
    verify_decomposition,
    verify_exceptional_pullbacks,
    verify_galois_isometries,
    verify_suite,
)

ALL_ROWS = [
    "sqrt5", "i", "sqrt_m2p2r2", "sqrt2", "sqrtc", "gamma0", "eta0",
    "rt4ab", "sqrta", "sqrt_mc_m10rab", "xi0", "theta0", "xi0p",
    "theta1p", "xi1p", "theta2p", "xi2p",
]


def test_pairing_examples():
    assert gram("F1", "G1") == 4
    assert gram("F1", "F1") == 0
    assert gram("F3", "G7") == 2
    assert gram("F2", "F9") == 2
    assert gram("Z1", "Z1") == 10
    assert gram("Z2", "Z2") == 22
    assert gram("Z3", "Z3") == 10
    assert gram("Z4", "Z4") == 22
    assert gram("Z1", "F1") == 4
    assert isinstance(gram("Z1", "Z1"), int)


def test_companion_classes():
    # G7 = F1 + G1 - F7 in the ambient coordinates
    assert class_vector("G7") == as_vector({"F1": 1, "G1": 1, "F7": -1})
    for j in range(2, 15):
        assert gram(f"F{j}", f"G{j}") == 4
        assert gram(f"F{j}", f"F{j}") == 0


def test_gram_matrix_is_even_of_determinant_512():
    # ambient units are isotropic and pair by the two-generator rule ...
    m = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(gram_matrix()[i][j]))
    assert m == m.T
    assert all(m[i, i] == 0 for i in range(RANK))
    # ... while the pairing restricted to the lattice basis is even of det 512
    cols = [class_vector(n) for n in LATTICE_BASIS]
    b = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(cols[j][i]))
    gb = b.T * m * b
    assert [gb[i, i] for i in range(RANK)] == [10, 22, 10, 22] + [0] * 11
    assert all(gb[i, j] == int(gb[i, j]) for i in range(RANK) for j in range(RANK))
    assert all(gb[i, i] % 2 == 0 for i in range(RANK))
    assert gb.det() == 512


def test_basis_change_determinant():
    # index 16 over the span of the unit classes, orientation-reversing
    cols = [class_vector(n) for n in LATTICE_BASIS]
    b = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(cols[j][i]))
    assert b.det() == sympy.Rational(-1, 16)


def test_every_generator_is_integral():
    for name in GENERATORS:
        assert in_lattice(name)
    for j in range(1, 15):
        assert in_lattice(f"G{j}")
    assert all(c.denominator == 1 for c in lattice_coords("Z3"))


def test_half_sums_are_not_lattice_points():
    assert not in_lattice({"F1": Fraction(1, 2)})
    # the combination whose membership the corrected quarter-turn row hinges on
    assert not in_lattice({"F1": Fraction(1, 2), "G1": Fraction(1, 2)})
    assert in_lattice({"F1": 1, "G1": 1})


def _sympy_coords(x):
    cols = [class_vector(n) for n in LATTICE_BASIS]
    b = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(cols[j][i]))
    rhs = sympy.Matrix([sympy.Rational(c) for c in as_vector(x)])
    return tuple(Fraction(int(c.p), int(c.q)) for c in b.LUsolve(rhs))


def test_lattice_coords_match_sympy():
    combos = [
        {"F1": Fraction(1, 2), "G1": Fraction(1, 2)},
        {"Z2": 3, "F5": Fraction(-2, 7), "G9": 1},
        {"Z4": Fraction(5, 3), "F13": -4},
    ]
    names = list(GENERATORS) + [f"G{j}" for j in range(1, 15)]
    for x in names + combos:
        assert lattice_coords(x) == _sympy_coords(x)


@given(st.lists(st.integers(-40, 40), min_size=RANK, max_size=RANK))
def test_integer_combinations_of_the_basis_come_back(coeffs):
    x = dict(zip(LATTICE_BASIS, coeffs))
    assert lattice_coords(x) == tuple(coeffs)


@given(st.lists(st.integers(-40, 40), min_size=6, max_size=6))
def test_membership_recovers_integer_combinations(coeffs):
    sub = pullback_sublattice()
    x = [sum(c * g[i] for c, g in zip(coeffs, sub.generators)) for i in range(RANK)]
    assert sub.membership_coordinates(x) == tuple(coeffs)


@pytest.mark.parametrize(
    "doctored",
    [{"G1": 2}, {"F1": Fraction(1, 2)}],
    ids=["generator-doubled", "generator-outside-lattice"],
)
def test_pullback_guard_raises(monkeypatch, doctored):
    data = lattice._data()
    gens = [doctored] + list(data["pi_star_pic_s"][1:])
    monkeypatch.setattr(lattice, "_data", lambda: {**data, "pi_star_pic_s": gens})
    pullback_sublattice.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            pullback_sublattice()
    finally:
        pullback_sublattice.cache_clear()


def test_pullback_rank_counts_independent_generators():
    doubled = pullback_sublattice().doubled
    assert lattice.PullbackSublattice(doubled[:3]).rank == 3
    with pytest.raises(ArithmeticError):
        lattice.PullbackSublattice(doubled[:3] + doubled[:1]).rank


def test_pullback_sublattice_memberships():
    sub = pullback_sublattice()
    assert sub.rank == 6
    assert "G1" in sub
    assert "F5" not in sub
    assert sub.contains({"Z1": 1, "F2": -1, "F10": -1, "F12": -1})
    coeffs = sub.membership_coordinates("G1")
    assert coeffs is not None and all(isinstance(c, int) for c in coeffs)
    # in the rational span but not the integral one, and outside both
    assert sub.membership_coordinates({"G1": Fraction(1, 2)}) is None
    assert sub.membership_coordinates("F5") is None


def test_quotient_dimension_and_basis():
    q = quotient_F2()
    assert q.dimension == 9
    assert q.basis_names == ("F5", "F6", "F8", "F9", "F11", "F13", "Z2", "Z3", "Z4")


def test_quotient_relations():
    q = quotient_F2()
    assert q.verify_relations()
    assert q.image_names(class_vector("F14")) == ["F5", "F6", "F8", "F9", "F13"]
    assert q.image_names(class_vector("F4")) == ["F5", "F6", "F11"]
    assert q.image_names(class_vector("F7")) == ["F8", "F9", "F11"]
    assert q.image(class_vector("G1")) == 0
    assert q.image(class_vector("Z1")) == 0
    # companions agree with their partners in the quotient
    for j in range(1, 15):
        assert q.image(class_vector(f"F{j}")) == q.image(class_vector(f"G{j}"))


def test_quotient_rejects_non_lattice_input():
    q = quotient_F2()
    with pytest.raises(ValueError):
        q.image({"F1": Fraction(1, 2)})


def test_galois_rows_are_isometries():
    assert verify_galois_isometries()


def test_galois_matrix_preserves_gram():
    from enriq.actions import rows_by_name

    g = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(gram_matrix()[i][j]))
    for name in ("rt4ab", "sqrt5", "theta0"):
        a = galois_matrix(rows_by_name()[name])
        am = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(a[i][j]))
        assert am.T * g * am == g
        assert abs(am.det()) == 1


def test_core_action_table():
    table = core_action_table()
    assert set(table) == set(ALL_ROWS)
    assert table["theta0"] == {"F5": "F5", "F6": "F6", "F8": "F9", "F9": "F8", "F11": "F11"}
    assert table["rt4ab"] == {"F5": "F6", "F6": "F5", "F8": "F8", "F9": "F9", "F11": "F11"}
    assert table["sqrt2"] == {c: c for c in CORE_CLASSES}
    # F11 is never moved
    assert all(perm["F11"] == "F11" for perm in table.values())


def test_decomposition_structure():
    assert verify_decomposition()
    table = core_action_table()
    broken = dict(table)
    broken["theta0"] = {c: c for c in CORE_CLASSES}
    assert not verify_decomposition(broken)
    trivial = {name: {c: c for c in CORE_CLASSES} for name in table}
    assert not verify_decomposition(trivial)


def test_exceptional_pullbacks():
    assert verify_exceptional_pullbacks()
    es = [exceptional_pullback(f"E{i}") for i in range(1, 5)]
    for i, e in enumerate(es):
        assert gram(e, e) == -8
        assert in_lattice(e)
        assert gram("G1", e) == 0
        for other in es[i + 1:]:
            assert gram(e, other) == 0
    fibre_sum = as_vector({"F2": 1, "G2": 1})
    assert all(gram(fibre_sum, e) == 4 for e in es)
    with pytest.raises(KeyError):
        exceptional_pullback("E5")


def test_invariants_trivial_and_full_group():
    assert invariants_under([]).dimension == 9
    full = invariants_under(ALL_ROWS)
    assert full.dimension == 3
    assert sorted(full.basis_names) == [("F11",), ("F5", "F6"), ("F8", "F9")]
    with pytest.raises(ValueError):
        invariants_under(["nope"])


def test_invariants_shrink_along_subgroup_chains():
    chain = [[], ["theta0"], ["theta0", "rt4ab"], ["theta0", "rt4ab", "gamma0"], ALL_ROWS]
    dims = [invariants_under(s).dimension for s in chain]
    assert dims == sorted(dims, reverse=True)
    assert dims[0] == 9 and dims[-1] == 3


def test_subfield_fixing_rows_derived_not_hardcoded(k_tower_witness, k1_tower_witness):
    names = subfield_fixing_rows(k_tower_witness, k1_tower_witness.step_names())
    assert names == ["sqrtc", "xi0", "xi0p", "xi1p", "theta2p", "xi2p"]
    inv = invariants_under(names)
    assert inv.dimension == 5
    assert sorted(inv.basis_names) == [("F11",), ("F5",), ("F6",), ("F8",), ("F9",)]


@settings(max_examples=40)
@given(st.data())
def test_subfield_fixing_rows_match_the_field_columns(k_tower_witness, data):
    # on tower steps, a row fixes a generator exactly when its field
    # column does not list it
    names = data.draw(st.sets(st.sampled_from(k_tower_witness.step_names())))
    expected = [row.name for row in actions.load_rows()
                if not any(row.moves_root(n) for n in names)]
    assert subfield_fixing_rows(k_tower_witness, sorted(names)) == expected


def test_verify_suite_needs_both_tower_arguments(k_tower_witness, k1_tower_witness):
    with pytest.raises(ValueError, match="both"):
        verify_suite(k_tower_witness)
    with pytest.raises(ValueError, match="both"):
        verify_suite(subfield_names=k1_tower_witness.step_names())


def test_verify_suite(k_tower_witness, k1_tower_witness):
    res = verify_suite(splitting_tower=k_tower_witness,
                       subfield_names=k1_tower_witness.step_names())
    assert res["ok"] is True
    assert res["even_lattice"] is True
    assert res["pullback_rank"] == 6
    assert res["quotient_dimension"] == 9
    assert res["galois_isometries"] is True
    assert res["decomposition"] is True
    assert res["exceptional_pullbacks"] is True
    assert res["invariants_trivial_group_dim"] == 9
    assert res["invariants_full_group_dim"] == 3
    assert res["ground_field_invariants_dim"] == 5
    assert res["ground_field_invariants_match"] is True


# -- the integer path against Fraction and sympy oracles ----------------
#
# The oracle below redoes the lattice arithmetic in Fraction, apart from
# the module's int path: ambient vectors built from the data table (unit
# classes, halves of sums, companions G_j = F1 + G1 - F_j), the pairing
# rule applied entry by entry, and coordinates through the sympy inverse
# of the basis matrix.


@functools.lru_cache(maxsize=None)
def _oracle_class(name):
    data = lattice._data()
    amb = data["ambient_basis"]
    if name in amb:
        return tuple(Fraction(int(n == name)) for n in amb)
    if name in data["half_classes"]:
        members = [_oracle_class(m) for m in data["half_classes"][name]]
        return tuple(sum(col, Fraction(0)) / 2 for col in zip(*members))
    f1, g1, fj = _oracle_class("F1"), _oracle_class("G1"), _oracle_class("F" + name[1:])
    return tuple(a + b - c for a, b, c in zip(f1, g1, fj))


def _oracle_vector(x):
    if isinstance(x, str):
        return _oracle_class(x)
    acc = [Fraction(0)] * RANK
    for name, coeff in x.items():
        acc = [a + Fraction(coeff) * b for a, b in zip(acc, _oracle_class(name))]
    return tuple(acc)


def _oracle_rule(x, y):
    if x == y:
        return 0
    return 4 if x[1:] == y[1:] else 2


def _oracle_gram(u, v):
    amb = lattice._data()["ambient_basis"]
    uu, vv = _oracle_vector(u), _oracle_vector(v)
    return sum(a * b * _oracle_rule(x, y)
               for a, x in zip(uu, amb) if a for b, y in zip(vv, amb) if b)


@functools.lru_cache(maxsize=1)
def _oracle_inverse():
    cols = [_oracle_class(n) for n in LATTICE_BASIS]
    inv = sympy.Matrix(RANK, RANK, lambda i, j: sympy.Rational(cols[j][i])).inv()
    return [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(RANK)]
            for i in range(RANK)]


def _oracle_coords(vec):
    return tuple(sum((m * v for m, v in zip(row, vec)), Fraction(0))
                 for row in _oracle_inverse())


def _oracle_sum(names, coeff):
    """coeff * (sum of the named classes), repeats counted."""
    out = {}
    for name in names:
        out[name] = out.get(name, 0) + coeff
    return out


def _oracle_halves(row):
    """The Fraction isometry check on one row, part by part: (pairing,
    lattice membership of every permuted generator, fibre-sum relation)."""
    data = lattice._data()
    amb = data["ambient_basis"]
    perm = row.class_permutation()
    pairing = all(_oracle_gram(perm[x], perm[y]) == _oracle_rule(x, y)
                  for x in amb for y in amb)
    membership = True
    for name in GENERATORS:
        members = data["half_classes"].get(name)
        image = (_oracle_sum((perm[m] for m in members), Fraction(1, 2)) if members
                 else perm[name])
        if any(c.denominator != 1 for c in _oracle_coords(_oracle_vector(image))):
            membership = False
    fibre_sum = _oracle_vector({"F1": 1, "G1": 1})
    fibres = all(_oracle_vector(_oracle_sum((perm[f"F{i}"], perm[f"G{i}"]), 1)) == fibre_sum
                 for i in range(1, 15))
    return pairing, membership, fibres


def _oracle_isometry(row):
    return all(_oracle_halves(row))


rational_combinations = st.dictionaries(
    st.sampled_from(list(GENERATORS) + [f"G{j}" for j in range(2, 15)]),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 1, 2, 2, 3, 4, 5, 6])),
    min_size=1, max_size=5,
)


@given(rational_combinations)
def test_int_path_matches_the_fraction_and_sympy_oracles(x):
    vec = as_vector(x)
    assert vec == _oracle_vector(x)
    coords = lattice_coords(x)
    assert coords == _sympy_coords(x) == _oracle_coords(vec)
    assert lattice_coords(vec) == coords
    integral = all(c.denominator == 1 for c in coords)
    assert in_lattice(x) is in_lattice(vec) is integral
    for other in (x, "F1", "Z2", {"Z4": 1, "G9": Fraction(-1, 3)}):
        assert gram(x, other) == _oracle_gram(x, other)
    value = gram(x, x)
    assert type(value) is (int if value == int(value) else Fraction)
    q = quotient_F2()
    if integral:
        assert q.image(x) == q.image(vec)
    else:
        with pytest.raises(ValueError):
            q.image(x)


def test_oracle_and_int_path_agree_on_the_shipped_rows():
    assert all(_oracle_isometry(row) for row in actions.load_rows())
    assert verify_galois_isometries()


class _DoctoredRow:
    def __init__(self, perm):
        self.name = "doctored"
        self._perm = perm

    def class_permutation(self):
        return dict(self._perm)


def _swap_f1_f2_fixing_g1_g2():
    perm = {n: n for n in FIBRE_NAMES}
    perm["F1"], perm["F2"] = "F2", "F1"
    return _DoctoredRow(perm)


def _swap_index_pairs_1_13():
    return GaloisRow("doctored", {}, {"F1": "F13", "F13": "F1"}, ())


@pytest.mark.parametrize(
    "make_row",
    [_swap_f1_f2_fixing_g1_g2, _swap_index_pairs_1_13],
    ids=["breaks-F1.G1", "half-class-leaves-lattice"],
)
def test_isometry_check_rejects_doctored_rows(monkeypatch, make_row):
    row = make_row()
    assert not _oracle_isometry(row)
    monkeypatch.setattr(actions, "load_rows", lambda: (row,))
    assert verify_galois_isometries() is False


def _fold_fibre_pairs():
    """A map of fibre pairs that is not injective: pair i goes to pair j
    (F_i -> F_j, G_i -> G_j), or swapped for -j (F_i -> G_j, G_i -> F_j).
    Every F_i + G_i still maps to F1 + G1, and each Z image stays a half
    sum of the lattice, so only the pairing check rejects it."""
    fold = {2: 13, 3: 14, 5: 13, 6: -14, 8: 13, 9: -14, 10: 7, 11: 1, 12: 4}
    perm = {name: name for name in FIBRE_NAMES}
    for i, j in fold.items():
        f, g = (f"F{j}", f"G{j}") if j > 0 else (f"G{-j}", f"F{-j}")
        perm[f"F{i}"], perm[f"G{i}"] = f, g
    return _DoctoredRow(perm)


def _swap_g2_g3():
    """G2 <-> G3 fixes the ambient basis G1, F1..F14 and so every pairing
    and every generator, but F2 + G3 is not F1 + G1."""
    perm = {name: name for name in FIBRE_NAMES}
    perm["G2"], perm["G3"] = "G3", "G2"
    return _DoctoredRow(perm)


@pytest.mark.parametrize(
    "make_row, halves",
    [(_fold_fibre_pairs, (False, True, True)), (_swap_g2_g3, (True, True, False))],
    ids=["only-pairing", "only-fibre-sums"],
)
def test_each_isometry_half_rejects_a_row_alone(monkeypatch, make_row, halves):
    row = make_row()
    assert _oracle_halves(row) == halves
    monkeypatch.setattr(actions, "load_rows", lambda: (row,))
    assert verify_galois_isometries() is False


def test_quotient_actions_match_a_per_row_reduction():
    """QuotientF2 reduces each fibre class once; every row's images must
    still equal the reductions of its own permuted basis classes."""
    q = quotient_F2()
    for row in actions.load_rows():
        perm = row.class_permutation()
        want = tuple(q._coordinates(lattice._mod2_mask(lattice._permuted(perm, n), 2))
                     for n in q.basis_names)
        assert q.actions[row.name] == want, row.name


@pytest.mark.parametrize("name", FIBRE_NAMES)
def test_a_fibre_class_leaving_the_lattice_fails_the_isometry_check(monkeypatch, name):
    """The check tests each fibre class once, on first use; every one of
    the 28 is some row's image of a generator, so each is tested."""
    outside = lattice._doubled(name)
    in_lattice_ = lattice._in_lattice
    monkeypatch.setattr(lattice, "_in_lattice", lambda n, d: n != outside and in_lattice_(n, d))
    assert verify_galois_isometries() is False


@given(st.permutations(range(1, 15)), st.lists(st.sampled_from("FG"), min_size=28, max_size=28))
def test_galois_rows_always_keep_pairing_and_fibre_sums(targets, letters):
    """Why only doctored rows can fail those two halves: a GaloisRow moves
    each class with its partner, so F_i + G_i goes to some F_j + G_j, and
    its moves must form a permutation.  The pairing of two classes is 0,
    4 or 2 as they are equal, partners or in different fibres, which such
    a permutation keeps.  Only lattice membership is left to fail."""
    moves = {f"{letters[i]}{i + 1}": f"{letters[14 + i]}{j}" for i, j in enumerate(targets)}
    pairing, _, fibres = _oracle_halves(GaloisRow("drawn", {}, moves, ()))
    assert pairing and fibres


def test_the_half_class_row_fails_only_lattice_membership():
    row = _swap_index_pairs_1_13()
    perm = row.class_permutation()
    amb = lattice._data()["ambient_basis"]
    assert all(gram(perm[x], perm[y]) == gram(x, y) for x in amb for y in amb)
    fibre_sum = as_vector({"F1": 1, "G1": 1})
    assert all(as_vector({perm[f"F{i}"]: 1, perm[f"G{i}"]: 1}) == fibre_sum
               for i in range(1, 15))
    members = lattice._data()["half_classes"]["Z1"]
    assert not in_lattice({perm[m]: Fraction(1, 2) for m in members})


def test_int_path_builds_no_fraction(monkeypatch):
    """The isometry check, the quotient and the exceptional-curve check run
    on integers; only the one-time Gauss-Jordan inverse uses Fraction."""
    lattice._unit_coords()

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built on the int path")

    monkeypatch.setattr(lattice, "Fraction", no_fraction)
    lattice.quotient_F2.cache_clear()
    lattice.pullback_sublattice.cache_clear()
    try:
        assert lattice.QuotientF2().dimension == 9
        assert verify_galois_isometries()
        assert verify_exceptional_pullbacks()
    finally:
        lattice.quotient_F2.cache_clear()
        lattice.pullback_sublattice.cache_clear()


INTEGRALITY_PROBE = """
from enriq import lattice
inverse = lattice._basis_inverse()
lattice._basis_inverse = lambda: tuple(tuple(x / 2 for x in row) for row in inverse)
lattice._unit_coords.cache_clear()
for query in (lattice.lattice_coords, lattice.in_lattice):
    try:
        query("F1")
    except ArithmeticError:
        print("raised")
    else:
        print("accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_integrality_guard_raises_without_asserts(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", INTEGRALITY_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["raised", "raised"]

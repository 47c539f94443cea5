"""Screening-condition tests, pinned to the published witness (12, 111, 13).

The full witness report is computed once per module.  Frozen expectations
(symbol values, survivor counts, uncertified places) were produced by the
deterministic searches and then cross-checked by direct modular arithmetic;
local-point certificates are re-verified by substitution rather than pinned
coordinate-by-coordinate.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriq.arith import is_prime, legendre, primes_up_to
from enriq.conditions import (
    FAIL,
    PASS,
    PRIME_BOUND,
    PROBABLE,
    UNKNOWN,
    WITNESS,
    _deep_modulus_exponent,
    _deep_search_mod_pk,
    _places,
    _prime_place,
    _rank_is_three,
    _real_point,
    _smooth_point_mod_p,
    check_condition,
    condition3,
    condition4,
    evaluate_triplet,
    is_nonsingular,
    local_solvability,
    nonsingularity_factors,
    search_triplets,
)


@pytest.fixture(scope="module")
def witness_report():
    return evaluate_triplet(*WITNESS)


def _by_index(report):
    return {c.index: c for c in report.conditions}


def test_witness_verdicts(witness_report):
    verdicts = {i: c.verdict for i, c in _by_index(witness_report).items()}
    assert verdicts == {1: PASS, 2: PASS, 3: PASS, 4: PASS, 5: PASS, 6: PASS,
                        7: PROBABLE, 8: PASS}
    assert witness_report.overall == PROBABLE
    assert witness_report.nonsingular is True


def test_witness_nonsingularity_factors():
    assert nonsingularity_factors(*WITNESS) == {
        "a*b*c": 17316,
        "5a+5b+c": 628,
        "20a+5b+2c": 821,
        "4a^2+b^2": 12897,
        "c^2-100ab": -133031,
        "c^2+5bc+10ac+25ab": 42244,
    }
    # c^2 = 100ab kills one factor:
    assert not is_nonsingular(1, 1, 10)


def test_condition1_witness_symbols(witness_report):
    rpt = _by_index(witness_report)[1]
    assert rpt.data["value"] == 628  # = 2^2 * 157
    assert rpt.data["primes"] == [2, 157]
    assert rpt.data["symbols"] == {"2": None, "157": -1}
    assert any("degenerate" in note for note in rpt.notes)
    # independent check: 5 really is a non-residue mod 157
    assert pow(5, 78, 157) == 156


def test_condition2_witness_symbols(witness_report):
    rpt = _by_index(witness_report)[2]
    assert rpt.data["value"] == 821
    assert is_prime(821)
    assert rpt.data["symbols"] == {"821": -1}
    assert legendre(10, 821) == -1


def test_condition3_isotropic_counterexample():
    # <1,1,1,1> has square discriminant and trivial Hasse invariant over
    # Q_3, hence is isotropic there; the screen must reject it.
    assert condition3(1, 1, 1).verdict == FAIL
    assert condition3(*WITNESS).verdict == PASS


def test_condition4_values():
    # -111*13 = -1443 = 2 mod 5, a non-residue.
    rpt = condition4(*WITNESS)
    assert rpt.verdict == PASS
    assert rpt.data["legendre_minus_bc_mod5"] == -1
    # -1*4 = 1 mod 5 is a square: reject.
    assert condition4(1, 1, 4).verdict == FAIL
    # 5 | bc degenerates the symbol to 0, which passes with a note.
    rpt0 = condition4(1, 5, 4)
    assert rpt0.verdict == PASS
    assert rpt0.data["legendre_minus_bc_mod5"] == 0
    assert rpt0.notes


def test_condition4_depends_only_on_bc_mod5():
    for b in range(1, 12):
        for c in range(1, 12):
            base = condition4(7, b, c).verdict
            assert condition4(1, b, c).verdict == base  # a is irrelevant
            assert condition4(7, b + 5, c).verdict == base
            assert condition4(7, b, c + 10).verdict == base


def test_residue_screens():
    assert check_condition(*WITNESS, 5).verdict == PASS
    assert check_condition(*WITNESS, 6).verdict == PASS
    a, b, c = WITNESS
    assert check_condition(a + 1, b, c, 5).verdict == FAIL
    assert check_condition(a, b + 7, c, 5).verdict == PASS  # mod-7 shift is invisible
    assert check_condition(a, b, c + 11, 6).verdict == PASS  # mod-11 shift is invisible
    assert check_condition(a, b, c + 1, 6).verdict == FAIL


def test_condition7_witness_places(witness_report):
    rpt = _by_index(witness_report)[7]
    places = rpt.data["places"]
    # the real place plus every prime below the default bound of 100
    assert len(places) == 26
    assert rpt.data["uncertified_places"] == ["2"]
    assert places["2"] == {"status": "survived", "modulus": "2^4", "survivors": 64}
    for p in (3, 5, 13, 97):
        assert places[str(p)]["status"] == "certified"

    a, b, c = WITNESS
    for key, info in places.items():
        if info["status"] != "certified":
            continue
        if key == "real":
            v0, v1, v2 = (Fraction(s) for s in info["point"])
            q0 = v0 * v1 + 5 * v2 * v2
            q1 = (v0 + v1) * (v0 + 2 * v1)
            q2 = a * v0 * v0 + b * v1 * v1 + c * v2 * v2
            assert q0 >= 0 and q0 - q1 >= 0 and q2 >= 0
            continue
        p = int(key)
        (v0, v1, v2), (w0, w1, w2) = info["point"]
        assert any(x % p for x in (v0, v1, v2))
        assert (v0 * v1 + 5 * v2 * v2 - w0 * w0) % p == 0
        assert ((v0 + v1) * (v0 + 2 * v1) - w0 * w0 + 5 * w1 * w1) % p == 0
        assert (a * v0 * v0 + b * v1 * v1 + c * v2 * v2 - w2 * w2) % p == 0
        assert _full_rank_mod_p(_jacobian(a, b, c, (v0, v1, v2), (w0, w1, w2)), p)


def _jacobian(a, b, c, v, w):
    """The 3x6 Jacobian of the three quadrics in (v0, v1, v2, w0, w1, w2)."""
    v0, v1, v2 = v
    w0, w1, w2 = w
    return [
        [v1, v0, 10 * v2, -2 * w0, 0, 0],
        [2 * v0 + 3 * v1, 3 * v0 + 4 * v1, 0, -2 * w0, 10 * w1, 0],
        [2 * a * v0, 2 * b * v1, 2 * c * v2, 0, 0, -2 * w2],
    ]


def _full_rank_mod_p(rows, p):
    """Rank 3 over F_p iff some 3x3 minor is nonzero mod p."""
    for cols in itertools.combinations(range(6), 3):
        m = [[row[j] for j in cols] for row in rows]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det % p:
            return True
    return False


def _brute_survivors(a, b, c, p, k):
    """The number of v mod q = p^k for which some w mod q solves the three
    quadrics with (v, w) primitive, by trying every (v, w) in (Z/q)^6.

    w2 occurs only in the third quadric, so the scan runs over the pairs
    (w0, w1) for the first two and over w2 for the third.
    """
    q = p**k
    r = np.arange(q, dtype=np.int64)
    unit = r % p != 0
    v1, v2, w0, w1 = np.ix_(r, r, r, r)
    u1, u2, w2 = np.ix_(r, r, r)
    count = 0
    for v0 in range(q):
        pairs = ((v0 * v1 + 5 * v2 * v2 - w0 * w0) % q == 0) & (
            ((v0 + v1) * (v0 + 2 * v1) - w0 * w0 + 5 * w1 * w1) % q == 0)
        third = (a * v0 * v0 + b * u1 * u1 + c * u2 * u2 - w2 * w2) % q == 0
        solved = pairs.any(axis=(2, 3)) & third.any(axis=2)
        v_unit = unit[v0] | unit[:, None] | unit[None, :]
        w_unit = ((pairs & (unit[w0] | unit[w1])).any(axis=(2, 3))
                  | (third & unit[w2]).any(axis=2))
        count += int((solved & (v_unit | w_unit)).sum())
    return count


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_survival_count_matches_brute_force(p, k):
    for triplet in (WITNESS, (3, 7, 11), (1, 1, 1), (5, 10, 25), (6, 9, 50)):
        assert _deep_search_mod_pk(*triplet, p, k) == _brute_survivors(*triplet, p, k), triplet


# -- full-grid oracles for the two condition-(7) searches -----------------


def _reference_square_tables(p, k):
    """Over x mod p^k, for m = 1 and then m = 5: whether x = m*w^2 for some
    w, whether for some unit w, and one such w (the largest)."""
    q = p**k
    w = np.arange(q, dtype=np.int64)
    unit = w % p != 0
    tables = []
    for m in (1, 5):
        x = m * w * w % q
        hit, unit_hit = np.zeros(q, dtype=bool), np.zeros(q, dtype=bool)
        root = np.zeros(q, dtype=np.int64)
        hit[x] = True
        unit_hit[x[unit]] = True
        root[x] = w
        tables.append((hit, unit_hit, root))
    return tables


def _reference_slices(a, b, c, q):
    """(v0, q0, q0 - q1, q2) over the (v1, v2) grid, for every v0 mod q."""
    rng = np.arange(q, dtype=np.int64)
    v1, v2 = np.meshgrid(rng, rng, indexing="ij")
    for v0 in range(q):
        q0 = (v0 * v1 + 5 * v2 * v2) % q
        q1 = ((v0 + v1) % q) * ((v0 + 2 * v1) % q) % q
        q2 = (a % q * v0 * v0 + b % q * v1 * v1 + c % q * v2 * v2) % q
        yield v0, q0, (q0 - q1) % q, q2


def _reference_deep_search(a, b, c, p, k):
    """The survival count modulo p^k, one slice for every v0 mod p^k."""
    (square, unit_square, _), (five_sq, unit_five_sq, _) = _reference_square_tables(p, k)
    unit = np.arange(p**k) % p != 0
    v12_unit = unit[:, None] | unit[None, :]
    survivors = 0
    for v0, q0, d, q2 in _reference_slices(a, b, c, p**k):
        exists = square[q0] & five_sq[d] & square[q2]
        w_unit = unit_square[q0] | unit_five_sq[d] | unit_square[q2]
        survivors += int((exists & (v12_unit | unit[v0] | w_unit)).sum())
    return survivors


def _reference_smooth_point(a, b, c, p):
    """The first point of the system over F_p in a row-major scan of
    v in F_p^3 (at most 400 per v0), preferring a rank-3 Jacobian by the
    minors oracle, with w signed by the first choice in itertools.product
    order.  Every sign choice of w has the same rank (checked on the oracle
    by test_jacobian_rank_ignores_signs_of_w), so one test per point does."""
    (square, _, root), (five_sq, _, five_root) = _reference_square_tables(p, 1)
    found = None
    for v0, q0, d, q2 in _reference_slices(a, b, c, p):
        mask = square[q0] & five_sq[d] & square[q2]
        if v0 == 0:
            mask[0, 0] = False
        for v1, v2 in np.argwhere(mask)[:400]:
            v = (v0, int(v1), int(v2))
            w = (int(root[q0[v1, v2]]), int(five_root[d[v1, v2]]), int(root[q2[v1, v2]]))
            if _full_rank_mod_p(_jacobian(a, b, c, v, w), p):
                signed = next(itertools.product(*({x, -x % p} for x in w)))
                return {"point": [list(v), list(signed)], "smooth": True}
            if found is None:
                found = {"point": [list(v), list(w)], "smooth": False}
    return found


#: Certified, obstructed at good reduction, deep-obstructed and survived
#: places at 2, 3, 5 and primes above 5.
ORACLE_TRIPLETS = [WITNESS, (3, 7, 11), (752, 1750, 485), (1284, 1806, 1848),
                   (404, 1856, 870), (1635, 1315, 408)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_orbit_count_matches_full_grid(p):
    k = _deep_modulus_exponent(p)
    assert (p, k) in {(2, 4), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1)}
    for triplet in ORACLE_TRIPLETS:
        assert _deep_search_mod_pk(*triplet, p, k) == _reference_deep_search(*triplet, p, k), triplet


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@settings(max_examples=8, deadline=None)
@given(triplet=st.tuples(*[st.integers(-2000, 2000)] * 3),
       divides=st.sampled_from([(), (2,), (0,), (1,), (0, 2), (0, 1, 2)]))
def test_orbit_count_matches_full_grid_on_random_triplets(p, triplet, divides):
    """Random triplets, with p dividing c, a or b (so p | ab) when drawn."""
    triplet = tuple(x * p if i in divides else x for i, x in enumerate(triplet))
    k = _deep_modulus_exponent(p)
    assert _deep_search_mod_pk(*triplet, p, k) == _reference_deep_search(*triplet, p, k)


@given(st.tuples(*[st.integers(-2000, 2000)] * 3))
def test_walk_matches_row_major_scan(triplet):
    for p in primes_up_to(31):
        assert _smooth_point_mod_p(*triplet, p)[0] == _reference_smooth_point(*triplet, p), p


@pytest.mark.parametrize("p", [p for p in primes_up_to(PRIME_BOUND) if p >= 37])
def test_walk_matches_row_major_scan_at_large_primes(p):
    """The long walks, and most of the one-rank-test shortcut's work, are
    at the primes the random test above does not reach."""
    for triplet in ORACLE_TRIPLETS:
        assert _smooth_point_mod_p(*triplet, p)[0] == _reference_smooth_point(*triplet, p), triplet


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([p for p in primes_up_to(PRIME_BOUND) if p >= 13]),
       triplet=st.tuples(*[st.integers(-2000, 2000)] * 3),
       divides=st.sampled_from([(), (0, 1), (0, 1, 2)]))
def test_walk_point_count_is_the_survival_count_at_k_one(p, triplet, divides):
    """Where k = 1, (p - 1) times the point count of a walk with no smooth
    point is the full-grid survival count, which local_solvability then
    reports; a walk that stops at a smooth point has counted fewer.  With
    p dividing a, b and c no point is smooth (the q2 row of the Jacobian
    vanishes where w2 does), and with p dividing a and b only the points
    with v2 = 0 may be, so complete walks come up often.  The place is
    read from _prime_place, which examines p whatever came before it."""
    triplet = tuple(x * p if i in divides else x for i, x in enumerate(triplet))
    assert _deep_modulus_exponent(p) == 1
    hit, points = _smooth_point_mod_p(*triplet, p)
    reference = _reference_deep_search(*triplet, p, 1)
    if hit is not None and hit["smooth"]:
        assert divides != (0, 1, 2)
        assert 0 < (p - 1) * points <= reference
    else:
        assert (p - 1) * points == reference
        place = _prime_place(*triplet, p, nonsingularity_factors(*triplet).values())
        if "modulus" in place:
            assert place.get("survivors", 0) == reference


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from(primes_up_to(PRIME_BOUND)),
       triplet=st.tuples(*[st.integers(-2000, 2000)] * 3),
       v=st.tuples(*[st.integers(0, PRIME_BOUND)] * 3),
       w=st.tuples(*[st.integers(0, PRIME_BOUND)] * 3))
def test_jacobian_rank_ignores_signs_of_w(p, triplet, v, w):
    """The rank facts the walk relies on: negating w_i negates one column,
    the minor on the w-columns is 40*w0*w1*w2, and modulo 2 rows 0 and 1
    agree while row 2 vanishes."""
    v, w = tuple(x % p for x in v), tuple(x % p for x in w)
    full = _full_rank_mod_p(_jacobian(*triplet, v, w), p)
    assert _rank_is_three(*triplet, v, w, p) == full
    for signs in itertools.product((1, -1), repeat=3):
        signed = tuple(s * x % p for s, x in zip(signs, w))
        assert _full_rank_mod_p(_jacobian(*triplet, v, signed), p) == full
        assert _rank_is_three(*triplet, v, signed, p) == full
    if p not in (2, 5) and w[0] * w[1] * w[2] % p:
        assert full
    if p == 2:
        rows = [[x % 2 for x in row] for row in _jacobian(*triplet, v, w)]
        assert rows[0] == rows[1] and not any(rows[2])  # so the rank is at most 1
        assert not full


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from(primes_up_to(PRIME_BOUND)),
       triplet=st.tuples(*[st.integers(-2000, 2000)] * 3),
       p_divides=st.sets(st.sampled_from([0, 1, 2])),
       v=st.tuples(*[st.integers(0, PRIME_BOUND)] * 3),
       v_zero=st.sets(st.sampled_from([0, 1, 2]), max_size=2),
       w=st.tuples(*[st.integers(1, PRIME_BOUND)] * 3),
       w_zero=st.sets(st.sampled_from([0, 1, 2])))
def test_rank_closed_form_with_any_zero_w(p, triplet, p_divides, v, v_zero, w, w_zero):
    """The w_i drawn are 0 mod p, any subset of them and at any p up to
    the bound; p divides the a, b, c and v is 0 at the v_i drawn, so the
    exceptions (a zero or dependent v-part) come up often."""
    triplet = tuple(x * p if i in p_divides else x for i, x in enumerate(triplet))
    v = [0 if i in v_zero else x % p for i, x in enumerate(v)]
    if not any(v):
        v[2] = 1
    w = [0 if i in w_zero else x % p or 1 for i, x in enumerate(w)]
    full = _full_rank_mod_p(_jacobian(*triplet, v, w), p)
    assert _rank_is_three(*triplet, v, w, p) == full
    if p not in (2, 5) and len(w_zero) <= 1:
        degenerate = w_zero == {2} and not any(x * y % p for x, y in zip(triplet, v))
        assert full != degenerate


@pytest.mark.parametrize("p", [2, 3])
def test_rank_is_three_matches_minors_everywhere_mod_small_p(p):
    """Every (a, b, c, v, w) mod p with v != 0."""
    for a, b, c, *vw in itertools.product(range(p), repeat=9):
        v, w = vw[:3], vw[3:]
        if any(v):
            assert _rank_is_three(a, b, c, v, w, p) == _full_rank_mod_p(
                _jacobian(a, b, c, v, w), p), (a, b, c, v, w)


def _clear_condition_caches():
    """Clear every functools.lru_cache defined in enriq.conditions, found by
    scanning the module, so a cache added later is cleared too; returns
    their names."""
    from enriq import conditions

    names = sorted(name for name, obj in vars(conditions).items()
                   if hasattr(obj, "cache_clear")
                   and getattr(obj, "__module__", None) == conditions.__name__)
    for name in names:
        getattr(conditions, name).cache_clear()
    assert "_walk_table" in names and "_survival_masks" in names
    return names


def test_condition7_does_not_depend_on_cache_order():
    """The process-lifetime caches are shared: triplets with c in one
    unit-square class share the c-row survival masks, and all triplets
    share the square scalers, pair rows and walk tables.  Filling them in
    either order gives the same counts, the pinned reports and the pinned
    full examinations."""
    triplets = ORACLE_TRIPLETS + [(a + 1, b + 2, c) for a, b, c in ORACLE_TRIPLETS[:3]]
    primes = (2, 3, 5, 7)
    expected = {(t, p): _reference_deep_search(*t, p, _deep_modulus_exponent(p))
                for t in triplets for p in primes}
    reports = []
    for order in (triplets, triplets[::-1]):
        _clear_condition_caches()
        texts = {}
        for t in order:
            for p in primes:
                k = _deep_modulus_exponent(p)
                assert _deep_search_mod_pk(*t, p, k) == expected[t, p], (t, p)
            texts[t] = json.dumps(local_solvability(*t).to_dict(), sort_keys=True)
            if t in PINNED_REPORTS:
                assert hashlib.sha256(texts[t].encode()).hexdigest() == PINNED_REPORTS[t], t
                assert _places_digest(t) == PINNED_PLACES[t], t
        reports.append(texts)
    assert reports[0] == reports[1]


def test_walk_rows_do_not_depend_on_cache_order():
    """The walk fills the rows of its walk table lazily, as far as each
    triplet's walk reaches: after every lru_cache of the module is
    cleared, the oracle triplets forward and then reversed walk to the
    full-grid oracle's point at every prime, the pinned reports and full
    examinations hold, and every prime keeps at most p + 2 rows, each as a
    fresh build gives it.
    No point is smooth modulo 2, so there every walk reads all the rows."""
    from enriq import conditions

    primes = primes_up_to(PRIME_BOUND)
    expected = {(t, p): _reference_smooth_point(*t, p) for t in ORACLE_TRIPLETS for p in primes}
    for order in (ORACLE_TRIPLETS, ORACLE_TRIPLETS[::-1]):
        _clear_condition_caches()
        for t in order:
            for p in primes:
                assert _smooth_point_mod_p(*t, p)[0] == expected[t, p], (t, p)
            text = json.dumps(local_solvability(*t).to_dict(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[t], t
            assert _places_digest(t) == PINNED_PLACES[t], t
        for p in primes:
            rows = conditions._walk_table(p)[3]
            assert len(rows) <= p + 2, p
            assert rows == [conditions._walk_row(p, i) for i in range(len(rows))], p
        assert len(conditions._walk_table(2)[3]) == 4


def test_p_dividing_v_forces_p_dividing_w_except_at_five_to_the_first():
    """The lemma that lets the survival count keep only the v that p does
    not divide: if p divides v0, v1 and v2, then q0, q0 - q1 and q2 are
    0 mod p^min(k, 2), and w^2 = 0 or 5*w^2 = 0 mod p^min(k, 2) forces p
    to divide w, except 5*w^2 at 5^1.  Checked on plain residues at every
    exponent _deep_modulus_exponent picks, and at 5^1."""
    cases = [(p, _deep_modulus_exponent(p)) for p in primes_up_to(PRIME_BOUND)]
    assert cases[:5] == [(2, 4), (3, 4), (5, 3), (7, 2), (11, 2)]
    assert all(k == 1 for p, k in cases[5:])
    for p, k in cases + [(5, 1)]:
        zero = p ** min(k, 2)
        for a, b, c in ORACLE_TRIPLETS:
            for v0, v1, v2 in itertools.product(range(0, 3 * p, p), repeat=3):
                q0, q1 = v0 * v1 + 5 * v2 * v2, (v0 + v1) * (v0 + 2 * v1)
                q2 = a * v0 * v0 + b * v1 * v1 + c * v2 * v2
                assert q0 % zero == (q0 - q1) % zero == q2 % zero == 0
        for m in (1, 5):
            units = [w for w in range(p**k) if m * w * w % zero == 0 and w % p]
            assert units == (list(range(1, 5)) if (p, k, m) == (5, 1, 5) else []), (p, k, m)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    # by definition, not through is_prime, which looks small numbers up in
    # a table that primes_up_to builds
    assert primes_up_to(100) == [p for p in range(2, 101) if all(p % d for d in range(2, p))]


def test_deep_search_builds_one_slice_per_orbit(monkeypatch):
    """The packed kernel reads one slice of pair rows per unit-scaling
    orbit of v0, and no slice packs more than q = p^k rows."""
    from enriq import conditions

    built = []
    pair_rows = conditions._pair_rows

    def counting(p, k, v0):
        built.append(v0)
        rows = pair_rows(p, k, v0)
        assert sum(rep.bit_count() for _, _, rep in rows) <= p**k
        return rows

    monkeypatch.setattr(conditions, "_pair_rows", counting)
    assert _deep_search_mod_pk(1635, 1315, 408, 5, 3) == _reference_deep_search(1635, 1315, 408, 5, 3)
    assert sorted(built) == [0, 1, 5, 25]


def _unit_square_classes(p, k):
    """The classes of c mod q = p^k under c -> lam^2 * c, lam a unit, each
    as a sorted list."""
    q = p**k
    squares = {lam * lam % q for lam in range(q) if lam % p}
    return sorted({tuple(sorted({u * c % q for u in squares})) for c in range(q)})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rescaled_c_matches_full_grid(p):
    """The count runs on (s*a, s*b, c_rep) for the unit square s taking c to
    its class's least element; in every class, p | c at each valuation
    included, a c other than c_rep counts as the full grid does."""
    from enriq import conditions

    k = _deep_modulus_exponent(p)
    q = p**k
    scalers = conditions._square_scalers(p, k)
    for n, cls in enumerate(_unit_square_classes(p, k)):
        c = cls[-1]
        s, c_rep = scalers[c]
        assert c_rep == cls[0] and s * c % q == c_rep
        assert s in {lam * lam % q for lam in range(q) if lam % p}
        a, b = ORACLE_TRIPLETS[n % len(ORACLE_TRIPLETS)][:2]
        for triplet in ((a, b, c), (b - a, 7 * a, c - 3 * q)):
            assert _deep_search_mod_pk(*triplet, p, k) == _reference_deep_search(*triplet, p, k), triplet


@pytest.mark.parametrize("p, classes", [(2, 12), (3, 9), (5, 7), (7, 5), (11, 5), (13, 3)])
def test_survival_masks_one_per_unit_square_class(p, classes):
    """Every c mod p^k leaves at most one c-row mask table per unit-square
    class, beside the q0 and d tables."""
    from enriq import conditions

    k = _deep_modulus_exponent(p)
    assert len(_unit_square_classes(p, k)) == classes
    conditions._survival_masks.cache_clear()
    for c in range(p**k):
        _deep_search_mod_pk(*WITNESS[:2], c, p, k)
    assert conditions._survival_masks.cache_info().currsize <= classes + 2


def test_good_reduction_discriminants():
    """Y mod p is smooth at every p not 2 or 5 dividing no nonsingularity
    factor.  Y covers P^2 branched along the conics C0: q0 = 0,
    C1: q0 - q1 = 0 and C2: q2 = 0, and away from 2 and 5 it is smooth iff
    each conic is smooth, each pair meets transversally (the pencil's
    cubic det(lam*A + B) has distinct roots) and no point lies on all
    three.  sympy recomputes the determinants, the three discriminants and
    the product of q2 over the four points of C0 and C1, and each is the
    stated product of factors times powers of 2 and 5."""
    import sympy

    a, b, c, lam = sympy.symbols("a b c lam")
    v = sympy.symbols("v0:3")
    q0 = v[0] * v[1] + 5 * v[2] ** 2
    q1 = (v[0] + v[1]) * (v[0] + 2 * v[1])
    q2 = a * v[0] ** 2 + b * v[1] ** 2 + c * v[2] ** 2
    f = nonsingularity_factors(a, b, c)
    conics = [sympy.hessian(q, v) / 2 for q in (q0, q0 - q1, q2)]

    def discriminant(i, j):
        return sympy.discriminant(sympy.expand((lam * conics[i] + conics[j]).det()), lam)

    points = sympy.solve([q0.subs(v[2], 1), q1.subs(v[2], 1)], v[:2], dict=True)
    assert len(points) == 4
    computed = [m.det() for m in conics] + [discriminant(0, 1), discriminant(0, 2),
                                            discriminant(1, 2)]
    computed.append(sympy.prod(q2.subs(pt).subs(v[2], 1) for pt in points))
    half = sympy.Rational(1, 2)
    expected = [
        -5 * half**2,
        5,
        f["a*b*c"],
        5**4 * half**3,
        a * b * f["c^2-100ab"] ** 2 * half**4,
        f["4a^2+b^2"] * f["c^2+5bc+10ac+25ab"] ** 2,
        f["5a+5b+c"] ** 2 * f["20a+5b+2c"] ** 2 * half**2,
    ]
    for got, want in zip(computed, expected):
        assert sympy.expand(got - want) == 0, (got, want)
    # every factor is needed: each irreducible factor of the six divides one
    # of the quantities, and the quantities have no other factor
    irreducible = {g for q in expected[2:] for g, _ in sympy.factor_list(q)[1]}
    assert irreducible == {g for x in f.values() for g, _ in sympy.factor_list(x)[1]}


@st.composite
def _good_reductions(draw):
    """p in {3, 7, 11} and a triplet in [-30, 30]^3 with p dividing no
    nonsingularity factor."""
    p = draw(st.sampled_from([3, 7, 11]))
    triplet = draw(st.tuples(*[st.integers(-30, 30)] * 3).filter(
        lambda t: all(f % p for f in nonsingularity_factors(*t).values())))
    return p, triplet


@settings(max_examples=6, deadline=None)
@given(_good_reductions())
def test_good_reduction_has_transversal_branch_conics_over_fp2(case):
    """Brute force over F_{p^2} = F_p[i]/(i^2 + 1), in plain modular
    arithmetic: at every point v of P^2, the branch conics C0: q0,
    C1: q0 - q1 and C2: q2 through v have linearly independent gradients,
    so Y mod p is smooth over v (test_good_reduction_discriminants gives
    the argument).  Elements of F_{p^2} are pairs (x, y) = x + y*i."""
    p, (a, b, c) = case

    def add(*zs):
        return sum(z[0] for z in zs) % p, sum(z[1] for z in zs) % p

    def mul(z, w):
        return (z[0] * w[0] - z[1] * w[1]) % p, (z[0] * w[1] + z[1] * w[0]) % p

    def scale(k, z):
        return k * z[0] % p, k * z[1] % p

    def det3(m):
        terms = []
        for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                                ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)):
            terms.append(scale(sign, mul(m[0][i], mul(m[1][j], m[2][k]))))
        return add(*terms)

    zero, one = (0, 0), (1, 0)
    elems = [(x, y) for x in range(p) for y in range(p)]
    points = ([(one, y, z) for y in elems for z in elems]
              + [(zero, one, z) for z in elems] + [(zero, zero, one)])
    for v0, v1, v2 in points:
        q0 = add(mul(v0, v1), scale(5, mul(v2, v2)))
        q1 = mul(add(v0, v1), add(v0, scale(2, v1)))
        q2 = add(scale(a, mul(v0, v0)), scale(b, mul(v1, v1)), scale(c, mul(v2, v2)))
        # gradients of q0, q0 - q1 and q2; Euler's relation ties each to v
        grads = []
        if q0 == zero:
            grads.append((v1, v0, scale(10, v2)))
        if add(q0, scale(-1, q1)) == zero:
            grads.append((scale(-2, add(v0, v1)), scale(-2, add(v0, scale(2, v1))),
                          scale(10, v2)))
        if q2 == zero:
            grads.append((scale(2 * a, v0), scale(2 * b, v1), scale(2 * c, v2)))
        if len(grads) == 1:
            assert grads[0] != (zero, zero, zero), (v0, v1, v2)
        elif len(grads) == 2:
            # two vectors are independent iff some 2x2 minor is nonzero
            (g0, g1) = grads
            minors = [add(mul(g0[i], g1[j]), scale(-1, mul(g0[j], g1[i])))
                      for i, j in ((0, 1), (0, 2), (1, 2))]
            assert any(m != zero for m in minors), (v0, v1, v2)
        elif len(grads) == 3:
            assert det3(grads) != zero, (v0, v1, v2)


#: sha256 of json.dumps(local_solvability(*triplet).to_dict(), sort_keys=True).
#: The Probable witness was recorded with the full-grid searches; the five
#: Fail reports, which all stop at their obstruction at 2, were recorded
#: once _assert_stops_at_first_obstruction had checked each against its
#: full examination, pinned below.
PINNED_REPORTS = {
    (12, 111, 13): "3e3088f5d961c85b98a5c9b3848fad5d084b1e7d49e675375823536aa4b4b503",
    (3, 7, 11): "202d925791464cbce63840b2f19b9e4819834268004016f3902c8352d83fb09f",
    (752, 1750, 485): "202d925791464cbce63840b2f19b9e4819834268004016f3902c8352d83fb09f",
    (1284, 1806, 1848): "202d925791464cbce63840b2f19b9e4819834268004016f3902c8352d83fb09f",
    (404, 1856, 870): "202d925791464cbce63840b2f19b9e4819834268004016f3902c8352d83fb09f",
    (1635, 1315, 408): "202d925791464cbce63840b2f19b9e4819834268004016f3902c8352d83fb09f",
}

#: sha256 of json.dumps(dict(_places(*triplet)), sort_keys=True): the record
#: of every place, with none skipped after an obstruction.  Recorded from
#: report.data["places"] of the reports that listed every place, which
#: the full-grid searches pinned; they keep every status kind pinned, such
#: as (752, 1750, 485)'s obstruction at good reduction at 3.
PINNED_PLACES = {
    (12, 111, 13): "b8d8b0d905c34df9acae266462fd7fefdb7619d12f4dd4d23df0a95b75434bc9",
    (3, 7, 11): "73270bdb57a6aec0cfe68184a4281be90ef165eb2dba03a3e8f038c0fc1b9bd9",
    (752, 1750, 485): "b81c5e43cb063c05795ebbc036d4f59fb2238df6ae61b4c9718c3ca0a26d4320",
    (1284, 1806, 1848): "323d40cb39bc6c41b87d5d22d8118ee3a872db457d31824759618a2d66cc9268",
    (404, 1856, 870): "dc001b16a610ac9d4ad82c9c37c5ffdfe18e009de1b22c86d483df26ea53fd9e",
    (1635, 1315, 408): "cea274e7b8fcff8bfd6b4c50a78b94eae4a0cded73c7d53f45fcd1ece130db8c",
}


def _places_digest(triplet):
    text = json.dumps(dict(_places(*triplet)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("triplet", ORACLE_TRIPLETS)
def test_condition7_report_pinned(triplet):
    text = json.dumps(local_solvability(*triplet).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[triplet]


@pytest.mark.parametrize("triplet", ORACLE_TRIPLETS)
def test_condition7_full_examination_pinned(triplet):
    assert _places_digest(triplet) == PINNED_PLACES[triplet]
    _assert_stops_at_first_obstruction(triplet)


def test_condition7_oracle_obstructions():
    """What the full examinations hold: every Fail oracle triplet stops at
    2, and the good-reduction obstruction lives only past the stop."""
    for triplet in ORACLE_TRIPLETS[1:]:
        assert list(local_solvability(*triplet).data["places"]) == ["real", "2"]
    assert dict(_places(752, 1750, 485))["3"] == {
        "status": "obstructed", "note": "no F_p point at good reduction"}


def _assert_stops_at_first_obstruction(triplet):
    """local_solvability's report is the full examination cut after its
    first obstruction, with the uncertified places, detail and notes
    those places give; without an obstruction it lists every place."""
    full = dict(_places(*triplet))
    rpt = local_solvability(*triplet)
    keys = list(full)
    stop = next((i for i, key in enumerate(keys) if full[key]["status"] == "obstructed"), None)
    if stop is None:
        assert rpt.verdict != FAIL and rpt.data["places"] == full
        return
    kept = {key: full[key] for key in keys[:stop + 1]}
    assert rpt.verdict == FAIL
    assert rpt.data == {"places": kept, "uncertified_places": [
        key for key, info in kept.items() if info["status"] in ("survived", "unresolved")]}
    assert list(rpt.data["places"]) == keys[:stop + 1]
    assert rpt.detail == f"local obstruction certified at {keys[stop]}"
    unresolved = ["no real-point certificate found by the rational grid search"]
    assert rpt.notes == (unresolved if kept["real"]["status"] == "unresolved" else []) + [
        f"examination stopped at {keys[stop]}: one certified obstruction decides Fail"]


PINNED_PROBE = """
import hashlib, json, sys
from enriq.conditions import _places, local_solvability
print(sys.flags.optimize)
for triplet in json.loads(sys.argv[1]):
    for record in (local_solvability(*triplet).to_dict(), dict(_places(*triplet))):
        text = json.dumps(record, sort_keys=True)
        print(hashlib.sha256(text.encode()).hexdigest())
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_condition7_reports_pinned_without_asserts(flags):
    """A fresh interpreter, also under -O: no logic of condition (7) sits
    in an assert, and the pinned digests of reports and full examinations
    hold from empty caches."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", PINNED_PROBE, json.dumps(ORACLE_TRIPLETS)],
                         env=env, capture_output=True, text=True, check=True)
    optimize, *digests = out.stdout.split()
    assert optimize == str(len(flags))
    assert digests == [d for t in ORACLE_TRIPLETS for d in (PINNED_REPORTS[t], PINNED_PLACES[t])]


def test_condition7_negative_definite_real_place():
    # a, b, c < 0 make q2 negative definite: w2^2 = q2 forces v = 0, w = 0
    rpt = local_solvability(-1, -2, -3)
    assert rpt.verdict == FAIL
    assert rpt.data["places"]["real"]["status"] == "obstructed"
    assert rpt.detail.startswith("local obstruction certified at real")


#: The real grid, in Fractions: -2, -1, 0, 1, 2, 1/2, -1/2 in each coordinate.
REAL_GRID = list(itertools.product(
    [Fraction(n) for n in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)], repeat=3))

#: The real box: the primitive integer v with max |v_i| <= 6, one of each
#: v ~ -v and v2 ~ -v2 (v2 >= 0, and the first nonzero of v0, v1
#: positive), by increasing max |v_i| and then lexicographically.
REAL_BOX = sorted(
    (tuple(map(Fraction, v)) for v in itertools.product(range(-6, 7), range(-6, 7), range(7))
     if math.gcd(*v) == 1 and (v[0] > 0 or v[0] == 0 and v[1] >= 0)),
    key=lambda v: max(map(abs, v)))


def _real_values(a, b, c, v):
    """(q0, q0 - q1, q2) at v, in Fractions."""
    v0, v1, v2 = (Fraction(x) for x in v)
    q0 = v0 * v1 + 5 * v2 * v2
    return q0, q0 - (v0 + v1) * (v0 + 2 * v1), a * v0 * v0 + b * v1 * v1 + c * v2 * v2


def _reference_real_point(a, b, c, candidates=REAL_GRID + REAL_BOX):
    """The first nonzero candidate v with q0, (q0 - q1)/5, q2 >= 0."""
    for v in candidates:
        q0, d, q2 = _real_values(a, b, c, v)
        if any(v) and q0 >= 0 and d / 5 >= 0 and q2 >= 0:
            return [str(x) for x in v]
    return None


@given(st.tuples(*[st.integers(-50, 50)] * 3))
def test_real_point_matches_fraction_grid(triplet):
    assert _real_point(*triplet) == _reference_real_point(*triplet)


def test_real_box_certifies_where_the_grid_fails():
    """(-3, 1, -2) and the seeded (-1897, 881, -1746) have no grid point;
    the box's v = (0, 3, 2) gives q0 = 20, q0 - q1 = 2 and q2 = 1 resp.
    945, rechecked in Fractions.  (-12, 1, -12) has neither."""
    for triplet, q2 in (((-3, 1, -2), 1), ((-1897, 881, -1746), 945)):
        assert _reference_real_point(*triplet, candidates=REAL_GRID) is None
        assert _real_point(*triplet) == ["0", "3", "2"]
        assert _real_values(*triplet, _real_point(*triplet)) == (20, 2, q2)
        place = local_solvability(*triplet).data["places"]["real"]
        assert place == {"status": "certified", "point": ["0", "3", "2"]}
    assert _real_point(-12, 1, -12) is None


def test_real_points_of_seeded_triplets_recheck_in_fractions():
    """Every certified real place of the seeded triplets holds a nonzero
    point of the grid or the box with q0, q0 - q1 and q2 >= 0 in
    Fractions; the box certifies one triplet the grid cannot."""
    from_box = []
    for triplet in _seeded_triplets():
        point = _real_point(*triplet)
        if point is None:
            continue
        v = tuple(Fraction(x) for x in point)
        assert any(v) and v in set(REAL_GRID) | set(REAL_BOX)
        assert all(x >= 0 for x in _real_values(*triplet, v)), triplet
        if _reference_real_point(*triplet, candidates=REAL_GRID) is None:
            from_box.append(triplet)
    assert from_box == [(-1897, 881, -1746)]


def test_condition7_unresolved_real_place_is_uncertified():
    rpt = local_solvability(-12, 1, -12)
    assert rpt.data["places"]["real"]["status"] == "unresolved"
    assert rpt.verdict == PROBABLE
    assert rpt.data["uncertified_places"][0] == "real"
    assert "real place and" not in rpt.detail
    assert "real place is unresolved" in rpt.detail


def test_condition7_small_bound():
    rpt = check_condition(*WITNESS, 7)
    primes = {str(p) for p in range(2, PRIME_BOUND + 1) if is_prime(p)}
    assert set(rpt.data["places"]) == {"real"} | primes
    assert rpt.verdict == PROBABLE
    assert evaluate_triplet(*WITNESS, conditions=[7]).to_dict()["prime_bound"] == 100


def test_condition8_witness(witness_report):
    rpt = _by_index(witness_report)[8]
    assert rpt.verdict == PASS
    assert len(rpt.data["steps"]) == 18
    assert rpt.data["degenerate_steps"] == []
    assert rpt.data["unverified_steps"] == []


def test_condition8_degenerate_triplet():
    rpt = check_condition(1, 1, 1, 8)
    assert rpt.verdict == FAIL
    assert rpt.data["degenerate_steps"] == [
        "rt4ab", "sqrt_mc_m10rab", "sqrta", "sqrtab",
        "sqrtc", "theta0", "theta2p", "xi0",
    ]


def test_check_condition_rejects_unknown_index():
    with pytest.raises(ValueError):
        check_condition(*WITNESS, 0)
    with pytest.raises(ValueError):
        check_condition(*WITNESS, 9)


def test_evaluate_subset_of_conditions():
    report = evaluate_triplet(*WITNESS, conditions=[5, 6])
    assert [c.index for c in report.conditions] == [5, 6]
    assert report.overall == PASS
    # a singular triplet fails overall even when the asked screens pass
    singular = evaluate_triplet(1, 1, 10, conditions=[4])
    assert singular.conditions[0].verdict == PASS
    assert singular.overall == FAIL


def test_evaluate_rejects_empty_selection():
    """Only None asks for the default battery; zero screens certify nothing."""
    with pytest.raises(ValueError):
        evaluate_triplet(*WITNESS, conditions=[])


def test_search_rejects_empty_selection():
    with pytest.raises(ValueError):
        list(search_triplets([(12, 12), (111, 111), (13, 13)], conditions=[]))


@pytest.mark.parametrize("bad", [[5, 9], [0, 5], [7, 8, 9]])
def test_search_rejects_unknown_index_up_front(bad):
    """No triplet of the box gets past the residue filters, so only the
    check of the selection itself can raise."""
    with pytest.raises(ValueError, match="no condition numbered"):
        list(search_triplets([(1, 4)] * 3, conditions=bad))
    with pytest.raises(ValueError, match="no condition numbered"):
        evaluate_triplet(*WITNESS, conditions=bad)


def test_report_serialization(witness_report):
    d = witness_report.to_dict()
    assert d["triplet"] == [12, 111, 13]
    assert d["overall"] == PROBABLE
    assert len(d["conditions"]) == 8
    assert all(set(c) == {"condition", "verdict", "detail", "notes", "data"}
               for c in d["conditions"])


def test_search_box_finds_witness():
    hits = list(search_triplets([(12, 12), (111, 111), (13, 13)],
                                conditions=[1, 2, 3, 4, 5, 6]))
    assert len(hits) == 1
    assert (hits[0].a, hits[0].b, hits[0].c) == WITNESS
    assert hits[0].overall == PASS


def test_search_box_small_cube_empty():
    # a = 1..4 never hits 5 mod 7, so the first cheap filter clears the box
    assert list(search_triplets([(1, 4), (1, 4), (1, 4)], conditions=[5])) == []


def test_search_box_residue_neighbour():
    # (12, 34, 13) matches both residue screens (34 = 6 mod 7, 1 mod 11)
    hits = list(search_triplets([(12, 12), (30, 40), (13, 13)], conditions=[5, 6]))
    assert [(r.a, r.b, r.c) for r in hits] == [(12, 34, 13)]


def test_search_box_runs_each_screen_once(monkeypatch):
    from collections import Counter

    from enriq import conditions

    box = [(12, 12), (30, 40), (13, 13)]
    wanted = [4, 5, 6]
    expected = [
        report for report in (
            evaluate_triplet(12, b, 13, conditions=wanted) for b in range(30, 41)
        )
        if report.overall in (PASS, PROBABLE)
    ]
    nonsingular = {(12, b, 13) for b in range(30, 41) if is_nonsingular(12, b, 13)}
    calls = {name: Counter() for name in ("factors", 5, 6)}

    def counting(key, fn):
        def wrapped(a, b, c):
            calls[key][(a, b, c)] += 1
            return fn(a, b, c)
        return wrapped

    monkeypatch.setattr(conditions, "nonsingularity_factors",
                        counting("factors", nonsingularity_factors))
    for idx in (5, 6):
        screen = counting(idx, conditions._CHEAP[idx])
        monkeypatch.setattr(conditions, f"condition{idx}", screen)
        monkeypatch.setitem(conditions._CHEAP, idx, screen)
    hits = list(search_triplets(box, conditions=wanted))
    assert hits == expected and [(r.a, r.b, r.c) for r in hits] == [(12, 34, 13)]
    assert calls["factors"] == Counter({(12, b, 13): 1 for b in range(30, 41)})
    assert calls[5] == Counter(dict.fromkeys(nonsingular, 1))
    assert set(calls[6].values()) == {1}


@pytest.mark.parametrize("box, fails_4, hits", [
    ([(12, 12), (34, 34), (167, 244)], [(12, 34, 244)], []),
    ([(12, 12), (111, 111), (13, 90)], [], [WITNESS]),
])
def test_search_stops_at_first_failing_screen(monkeypatch, box, fails_4, hits):
    """All eight screens asked: each triplet runs them in the order (5),
    (6), (4), (3), (1), (2), (7), (8), each at most once, and stops at its
    first Fail or Unknown, so a triplet failing (4) never reaches (1)-(3),
    (7) or (8).  The hits are evaluate_triplet's reports over the box,
    filtered to Pass and Probable."""
    from collections import defaultdict

    from enriq import conditions

    triplets = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    expected = [report for report in map(lambda t: evaluate_triplet(*t), triplets)
                if report.overall in (PASS, PROBABLE)]
    runs = defaultdict(list)

    def counting(idx, fn):
        def wrapped(a, b, c):
            report = fn(a, b, c)
            runs[a, b, c].append((idx, report.verdict))
            return report
        return wrapped

    for idx in range(1, 7):
        monkeypatch.setitem(conditions._CHEAP, idx, counting(idx, conditions._CHEAP[idx]))
    monkeypatch.setattr(conditions, "local_solvability", counting(7, local_solvability))
    monkeypatch.setattr(conditions, "galois_generality_proxy",
                        counting(8, conditions.galois_generality_proxy))
    found = list(search_triplets(box))
    assert found == expected
    assert [(r.a, r.b, r.c) for r in found] == hits
    for triplet, seq in runs.items():
        assert [idx for idx, _ in seq] == [5, 6, 4, 3, 1, 2, 7, 8][:len(seq)], triplet
        assert all(verdict in (PASS, PROBABLE) for _, verdict in seq[:-1]), triplet
        assert len(seq) == 8 or seq[-1][1] in (FAIL, UNKNOWN), triplet
    assert [t for t, seq in runs.items() if seq[-1] == (4, FAIL)] == fails_4
    for triplet in fails_4:
        assert [idx for idx, _ in runs[triplet]] == [5, 6, 4]


def _seeded_triplets(n=200):
    """n nonsingular triplets drawn from [-2000, 2000]^3 with a fixed seed."""
    rng = random.Random(1501)
    out = []
    while len(out) < n:
        triplet = tuple(rng.randint(-2000, 2000) for _ in range(3))
        if is_nonsingular(*triplet):
            out.append(triplet)
    return out


#: sha256 over the concatenated json.dumps(evaluate_triplet(*t,
#: conditions=range(1, 8)).to_dict(), sort_keys=True) of _seeded_triplets(),
#: recorded before the walk ran on cached candidate rows, and recorded
#: again when Fail reports began to stop at their first obstruction and
#: the real box certified (-1897, 881, -1746): each condition-(7) report
#: was first checked against its full examination, whose places match the
#: reports recorded before at every prime.
SEEDED_REPORTS_SHA256 = "b7fe5e4d9ce5d5584d90bf95c0e4352cc41753d4bc491e0d27ebd9e3eb66ec1a"


def test_seeded_triplet_reports_pinned():
    digest = hashlib.sha256()
    for triplet in _seeded_triplets():
        _assert_stops_at_first_obstruction(triplet)
        report = evaluate_triplet(*triplet, conditions=range(1, 8)).to_dict()
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == SEEDED_REPORTS_SHA256

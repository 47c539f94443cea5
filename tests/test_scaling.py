"""The family's scaling symmetry: (a, b, c) and (t^2 a, t^2 b, t^2 c).

Y(a, b, c) is isomorphic to Y(t^2 a, t^2 b, t^2 c) over Q by w2 -> t w2,
and K(a, b, c) = K(t^2 a, t^2 b, t^2 c): every radicand of the tower is
homogeneous of weight t^2 or t^4, and each new root is t or t^2 times
the old one.  So every stage that depends on the triplet only through
the surface or the field gives the same answers at both triplets.
Conditions (1)-(6) need not.  Condition (7) as implemented today decides
places p | t differently, so there the test asks only that no place is
certified at one triplet and obstructed at the other, and lets the
verdicts part only through such a place.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriq import conditions, geometry, lattice, presets


def _stages(a, b, c):
    """Condition (8), the geometry suite and the lattice suite at one
    triplet, reduced to what the symmetry must preserve."""
    proxy = conditions.galois_generality_proxy(a, b, c)
    k = presets.k_tower(a, b, c)
    try:
        geometry_ok = geometry.verify_suite(a, b, c, tower=k)["ok"]
    except ValueError:
        geometry_ok = ValueError
    checks = lattice.verify_suite(k, presets.k1_tower(a, b, c).step_names())
    return {
        "condition8": (proxy.verdict, proxy.data.get("degenerate_steps"),
                       proxy.data.get("unverified_steps")),
        "geometry_ok": geometry_ok,
        "lattice_ok": checks["ok"],
        "subfield_fixing_rows": checks["subfield_fixing_rows"],
    }


coefficient = st.integers(-300, 300)


@settings(max_examples=20)
@given(coefficient, coefficient, coefficient, st.sampled_from([2, 3, 5, 7]))
def test_scaled_triplet_gives_the_same_field_and_surface_answers(a, b, c, t):
    assume(conditions.is_nonsingular(a, b, c))
    s = t * t
    assert _stages(a, b, c) == _stages(s * a, s * b, s * c)


def _scaled_pairs(n=150):
    """n nonsingular triplets from [-300, 300]^3 with a fixed seed, each
    paired with every t in {2, 3, 5, 7}."""
    rng = random.Random(1504)
    triplets = []
    while len(triplets) < n:
        triplet = tuple(rng.randint(-300, 300) for _ in range(3))
        if conditions.is_nonsingular(*triplet):
            triplets.append(triplet)
    return [(triplet, t) for triplet in triplets for t in (2, 3, 5, 7)]


def test_condition7_places_agree_on_scaled_triplets():
    """No place is certified at (a, b, c) and obstructed at t^2 (a, b, c),
    or the other way round; at the real place and every p not dividing t
    the status, modulus and survivor count agree (the point itself need
    not: the walk may meet another w2).  Every place is examined, also
    past an obstruction.  Both triplets get the same verdict, except where
    a place p | t is obstructed at one and survived at the other: the
    survival count modulo p^k does not see every obstruction there."""
    split = 0
    for triplet, t in _scaled_pairs():
        pair = (triplet, tuple(t * t * x for x in triplet))
        places, scaled = (dict(conditions._places(*u)) for u in pair)
        assert places.keys() == scaled.keys()
        for key, info in places.items():
            statuses = {info["status"], scaled[key]["status"]}
            assert statuses != {"certified", "obstructed"}, (triplet, t, key)
            if key == "real" or t % int(key):
                fields = ("status", "modulus", "survivors")
                assert ([info.get(f) for f in fields]
                        == [scaled[key].get(f) for f in fields]), (triplet, t, key)
        verdicts = [conditions.local_solvability(*u).verdict for u in pair]
        if verdicts[0] != verdicts[1]:
            split += 1
            assert any({places[key]["status"], scaled[key]["status"]} == {"obstructed", "survived"}
                       for key in places if key != "real" and t % int(key) == 0), (triplet, t)
    assert split == 25

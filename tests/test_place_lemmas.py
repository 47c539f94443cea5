"""Two facts about places that condition (7) is to build on, checked on
their own.

The descent lemma: away from 2 and 5, the three branch conics C0: q0 = 0,
C1: q0 - q1 = 0 and C2: q2 = 0 have a common F_p-zero iff p divides
5a + 5b + c with 5 a square mod p, or p divides 20a + 5b + 2c with 10 a
square mod p.  A Q_p-point of a twist of Y by a d of odd valuation
reduces to such a zero, so screens (1) and (2) leave only the twists by
d in <-1, 2, 5>.

The good-reduction premise: at a prime p >= 23 where Y has good
reduction, Y mod p is a smooth K3 surface, Deligne's bound gives
#Y(F_p) >= p^2 - 22p + 1 > 0, and every F_p-point is smooth, so the walk
of condition (7) finds a smooth point there.
"""

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriq.arith import primes_up_to
from enriq.conditions import PRIME_BOUND, _smooth_point_mod_p, nonsingularity_factors


def test_branch_conics_c0_c1_meet_where_q2_is_the_screen_values():
    """sympy recomputes C0 and C1 meeting in (-+sqrt5, +-sqrt5, 1) and
    (-2t, t, 1) with 2t^2 = 5, and nowhere on the line v2 = 0; q2 there
    is 5a + 5b + c resp. (20a + 5b + 2c)/2."""
    a, b, c = sympy.symbols("a b c")
    v0, v1, v2 = sympy.symbols("v0 v1 v2")
    q0 = v0 * v1 + 5 * v2**2
    q1 = (v0 + v1) * (v0 + 2 * v1)
    q2 = a * v0**2 + b * v1**2 + c * v2**2
    at_infinity = sympy.solve([q0.subs(v2, 0), q1.subs(v2, 0)], [v0, v1], dict=True)
    assert at_infinity == [{v0: 0, v1: 0}]
    points = sympy.solve([q0.subs(v2, 1), q1.subs(v2, 1)], [v0, v1], dict=True)
    r5, t = sympy.sqrt(5), sympy.sqrt(sympy.Rational(5, 2))
    expected = {(-r5, r5): 5 * a + 5 * b + c, (r5, -r5): 5 * a + 5 * b + c,
                (-2 * t, t): (20 * a + 5 * b + 2 * c) / 2,
                (2 * t, -t): (20 * a + 5 * b + 2 * c) / 2}
    got = {(sympy.nsimplify(pt[v0]), sympy.nsimplify(pt[v1])): pt for pt in points}
    assert set(got) == set(expected)
    for key, pt in got.items():
        assert sympy.simplify(q2.subs(pt).subs(v2, 1) - expected[key]) == 0, key


def _is_square_mod(x, p):
    """Euler's criterion in plain residues: x is a nonzero square mod p."""
    return x % p != 0 and pow(x, (p - 1) // 2, p) == 1


@st.composite
def _conic_cases(draw):
    """An odd prime p < 80 other than 5 and a triplet in [-2000, 2000]^3;
    in two draws of three, c is moved so that p divides 5a + 5b + c resp.
    20a + 5b + 2c."""
    p = draw(st.sampled_from([p for p in primes_up_to(79) if p not in (2, 5)]))
    a, b, c = draw(st.tuples(*[st.integers(-2000, 2000)] * 3))
    force = draw(st.sampled_from([0, 1, 2]))
    if force == 1:
        c -= (5 * a + 5 * b + c) % p
    elif force == 2:
        c -= (20 * a + 5 * b + 2 * c) * pow(2, -1, p) % p
    return p, (a, b, c)


@settings(max_examples=150, deadline=None)
@given(_conic_cases())
def test_branch_conics_share_a_zero_mod_p_iff_a_screen_value_vanishes(case):
    """Brute force over P^2(F_p): the three branch conics have a common
    zero iff p | 5a + 5b + c with (5/p) = 1 or p | 20a + 5b + 2c with
    (10/p) = 1."""
    p, (a, b, c) = case
    points = ([(1, y, z) for y in range(p) for z in range(p)]
              + [(0, 1, z) for z in range(p)] + [(0, 0, 1)])
    common = any((v0 * v1 + 5 * v2 * v2) % p == 0
                 and (v0 + v1) * (v0 + 2 * v1) % p == 0
                 and (a * v0 * v0 + b * v1 * v1 + c * v2 * v2) % p == 0
                 for v0, v1, v2 in points)
    criterion = ((5 * a + 5 * b + c) % p == 0 and _is_square_mod(5, p)
                 or (20 * a + 5 * b + 2 * c) % p == 0 and _is_square_mod(10, p))
    assert common == criterion


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-2000, 2000)] * 3))
def test_walk_finds_a_smooth_point_at_every_good_prime_from_23(triplet):
    """At every p in [23, PRIME_BOUND] dividing no nonsingularity factor
    (nor 10, as p >= 23), the walk returns a smooth point, and it lies on
    the system mod p."""
    assume(all(nonsingularity_factors(*triplet).values()))
    a, b, c = triplet
    factors = nonsingularity_factors(*triplet).values()
    for p in primes_up_to(PRIME_BOUND):
        if p < 23 or any(f % p == 0 for f in factors):
            continue
        hit, _ = _smooth_point_mod_p(a, b, c, p)
        assert hit is not None and hit["smooth"], (triplet, p)
        (v0, v1, v2), (w0, w1, w2) = hit["point"]
        q0 = v0 * v1 + 5 * v2 * v2
        assert (q0 - w0 * w0) % p == 0
        assert (q0 - (v0 + v1) * (v0 + 2 * v1) - 5 * w1 * w1) % p == 0
        assert (a * v0 * v0 + b * v1 * v1 + c * v2 * v2 - w2 * w2) % p == 0

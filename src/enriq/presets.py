"""Preset towers for the splitting fields attached to a coefficient triplet.

``k_tower(a, b, c)`` builds the full 18-step field K containing every
quantity used by the surface checks; ``k0_tower()`` is the
triplet-independent 4-step base field; ``k1_tower(a, b, c)`` extends it to
the 10-step field over which all relevant divisor classes are defined.
Each takes (a, b, c) through ``arith.rational``.

Step order matters only in that each radicand must live below its step;
derived names (conjugate roots such as eta1m, theta1m, ...) are defined by
explicit formulas and are verified against their expected squares in the
test suite rather than adjoined as new steps.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import rational
from .towers import Tower


def k0_tower() -> Tower:
    tw = Tower("K0")
    i = tw.add_step("i", -1)
    r2 = tw.add_step("sqrt2", 2)
    tw.add_step("sqrt5", 5)
    s = tw.add_step("sqrt_m2p2r2", -2 + 2 * r2)
    tw.define("sqrt_m2m2r2", 2 * i / s)
    return tw


def k_tower(a, b, c) -> Tower:
    """The 18-step tower K(a, b, c) with all named derived elements.

    Steps whose radicand is already a square are skipped and recorded on
    the returned tower; inspect ``tower.degenerate`` and
    ``tower.unverified`` to decide whether the triplet is tower-generic.
    """
    a, b, c = rational(a), rational(b), rational(c)
    tw = Tower(f"K({a},{b},{c})")

    add = tw.add_step

    i = add("i", -1)
    r2 = add("sqrt2", 2)
    add("sqrt5", 5)
    ra = add("sqrta", a)
    add("sqrtc", c)
    eta0 = add("eta0", c * c - 100 * a * b)
    gamma0 = add("gamma0", -c * c - 5 * b * c - 10 * a * c - 25 * a * b)
    rab = add("sqrtab", a * b)
    add("rt4ab", rab)
    s = add("sqrt_m2p2r2", -2 + 2 * r2)
    u = add("sqrt_mc_m10rab", -c - 10 * rab)
    th0 = add("theta0", 4 * a * a + b * b)
    xi0 = add("xi0", a + b + Fraction(c, 5))
    xi0p = add("xi0p", a + Fraction(b, 4) + Fraction(c, 10))
    th1 = add("theta1p", 20 * a * a - 10 * a * b - 2 * b * c + (10 * a + 2 * c) * th0)
    th2 = add("theta2p", -5 * a - Fraction(5, 2) * b - Fraction(5, 2) * th0)
    xi1 = add("xi1p", 20 * a + 10 * b + 3 * c + 20 * xi0 * xi0p)
    xi2 = add("xi2p", 4 * a + 2 * b + Fraction(2, 5) * c + 4 * xi0 * xi0p)

    tw.define("sqrt_m2m2r2", 2 * i / s)
    tw.define("sqrt_mc_p10rab", eta0 / u)
    denom = 10 * ra * u
    tw.define("eta1p", (c - eta0 + 10 * rab) / denom)
    tw.define("eta1m", (c + eta0 + 10 * rab) / denom)
    m_part = 10 * a * a - 5 * a * b - b * c
    t_part = (c + 5 * a) * th0
    tw.define("gamma1p", (m_part + 2 * a * gamma0 + t_part) / th1)
    tw.define("gamma1m", (m_part - 2 * a * gamma0 + t_part) / th1)
    tw.define("theta1m", 4 * a * gamma0 / th1)
    tw.define("theta2m", 5 * rab / th2)
    tw.define("xi1m", eta0 / xi1)
    tw.define("xi2m", 2 * gamma0 / (5 * xi2))
    return tw


def k1_tower(a, b, c) -> Tower:
    """The 10-step field of definition K1 of the relevant divisor classes.

    K1 adjoins, over K0: theta0, sqrt(ab), and the branch-point slopes
    eta1+ and gamma1+ (whose squares involve eta0 and gamma0, so those two
    come along for free and are adjoined explicitly first).
    """
    a, b, c = rational(a), rational(b), rational(c)
    tw = k0_tower()
    tw.label = f"K1({a},{b},{c})"

    add = tw.add_step

    th0 = add("theta0", 4 * a * a + b * b)
    rab = add("sqrtab", a * b)
    eta0 = add("eta0", c * c - 100 * a * b)
    eta1 = add("eta1p", (eta0 - c) / (50 * a))
    gamma0 = add("gamma0", -c * c - 5 * b * c - 10 * a * c - 25 * a * b)
    gamma1 = add("gamma1p", 10 * a * a - 5 * a * b - b * c + 2 * a * gamma0)

    tw.define("eta1m", -rab / (5 * a * eta1))
    tw.define("gamma1m", (5 * a + c) * th0 / gamma1)
    return tw

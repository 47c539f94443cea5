"""The eight sufficiency screens for a coefficient triplet (a, b, c).

A triplet selects one surface of the family; the screens are the
arithmetic conditions under which the verification pipeline applies:

  (1) 5 is a non-square modulo every prime dividing 5a+5b+c
  (2) 10 is a non-square modulo every prime dividing 20a+5b+2c
  (3) the diagonal form <a, b, c, 1> is anisotropic over Q_3
  (4) -bc is not a square modulo 5
  (5) (a, b, c) = (5, 6, 6) modulo 7
  (6) (a, b, c) = (1, 1, 2) modulo 11
  (7) the surface has points over R and over every Q_p (searched up to
      PRIME_BOUND; verdict at best "Probable"), the places examined in
      order and the examination stopped at the first certified
      obstruction, which decides Fail: a walk over P^2(F_p) for a smooth
      F_p-point, on one lazily cached table per prime of the points where
      the triplet-free q0 and q0 - q1 have roots, so a point costs one q2
      lookup; the points of a walk with none give the survival count
      where k = 1 (p >= 13), and at p <= 11 it runs over unit-scaling
      orbits of v, on bitmasks packed by v1^2
  (8) the splitting field is as large as possible; checked through the
      tower-independence proxy: every preset tower step stays quadratic.

Conditions (1) and (2) carry an explicit convention at p = 2 (the symbol
degenerates there and the screen auto-passes with a note); the condition
(4) symbol may be 0, which passes the "!= +1" test, again with a note.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Optional, Sequence

from .arith import euler_criterion, is_anisotropic_diag4, legendre, prime_divisors, primes_up_to
from .presets import k_tower

#: The published example triplet used throughout the tests.
WITNESS = (12, 111, 13)

#: Condition (7) examines the primes up to this bound.
PRIME_BOUND = 100

PASS, FAIL, PROBABLE, UNKNOWN = "Pass", "Fail", "Probable", "Unknown"


class ConditionReport:
    __slots__ = ("index", "verdict", "detail", "notes", "data")

    def __init__(self, index: int, verdict: str, detail: str,
                 notes: Optional[list[str]] = None, data: Optional[dict] = None):
        self.index = index
        self.verdict = verdict
        self.detail = detail
        self.notes = [] if notes is None else notes
        self.data = {} if data is None else data

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.index, self.verdict, self.detail, self.notes, self.data)
                == (other.index, other.verdict, other.detail, other.notes, other.data))

    def to_dict(self) -> dict:
        return {
            "condition": self.index,
            "verdict": self.verdict,
            "detail": self.detail,
            "notes": list(self.notes),
            "data": self.data,
        }


class TripletReport:
    __slots__ = ("a", "b", "c", "nonsingular", "factors", "conditions", "overall")

    def __init__(self, a: int, b: int, c: int, nonsingular: bool, factors: dict,
                 conditions: list[ConditionReport], overall: str):
        self.a, self.b, self.c = a, b, c
        self.nonsingular = nonsingular
        self.factors = factors
        self.conditions = conditions
        self.overall = overall

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.a, self.b, self.c, self.nonsingular, self.factors,
                 self.conditions, self.overall)
                == (other.a, other.b, other.c, other.nonsingular, other.factors,
                    other.conditions, other.overall))

    def to_dict(self) -> dict:
        return {
            "triplet": [self.a, self.b, self.c],
            "prime_bound": PRIME_BOUND,
            "nonsingular": self.nonsingular,
            "nonsingularity_factors": {k: str(v) for k, v in self.factors.items()},
            "conditions": [c.to_dict() for c in self.conditions],
            "overall": self.overall,
        }


def nonsingularity_factors(a: int, b: int, c: int) -> dict:
    """The product of these must not vanish for the surface to be smooth."""
    return {
        "a*b*c": a * b * c,
        "5a+5b+c": 5 * a + 5 * b + c,
        "20a+5b+2c": 20 * a + 5 * b + 2 * c,
        "4a^2+b^2": 4 * a * a + b * b,
        "c^2-100ab": c * c - 100 * a * b,
        "c^2+5bc+10ac+25ab": c * c + 5 * b * c + 10 * a * c + 25 * a * b,
    }


def is_nonsingular(a: int, b: int, c: int) -> bool:
    """Whether no nonsingularity factor vanishes.  Away from 2 and 5 these
    factors are, up to powers of 2 and 5, the determinants of the three
    branch conics, the discriminants of their pencils and the product of
    q2 over the four points where q0 and q0 - q1 meet, so Y mod p is
    smooth at every other p dividing none of them; checked by
    tests/test_conditions.py::test_good_reduction_discriminants."""
    return all(nonsingularity_factors(a, b, c).values())


def _nonresidue_condition(index: int, label: int, value: int) -> ConditionReport:
    """Shared body of conditions (1) and (2): ``label`` must be a
    non-square modulo every prime divisor of ``value``."""
    rpt = ConditionReport(index, PASS, "", data={"value": value, "symbol_base": label})
    if value == 0:
        rpt.verdict = FAIL
        rpt.detail = "defining integer vanishes (singular surface)"
        return rpt
    primes = prime_divisors(value)
    rpt.data["primes"] = primes
    symbols = {}
    for p in primes:
        if p == 2:
            symbols[p] = None
            rpt.notes.append(
                "p=2 divides the value; the mod-2 symbol is degenerate and the "
                "screen auto-passes there by convention"
            )
            continue
        if label % p == 0:
            symbols[p] = 0
            rpt.verdict = FAIL
            rpt.detail = f"{label} = 0 mod {p} is a square, violating the screen"
            rpt.notes.append(f"p={p} divides the symbol base {label}")
            continue
        s = euler_criterion(label, p)  # p is certified prime by prime_divisors
        symbols[p] = s
        if s == 1:
            rpt.verdict = FAIL
            rpt.detail = f"{label} is a square modulo {p}"
    rpt.data["symbols"] = {str(p): s for p, s in symbols.items()}
    if rpt.verdict == PASS:
        rpt.detail = f"{label} is a non-square modulo every odd prime divisor of {value}"
    return rpt


def condition1(a: int, b: int, c: int) -> ConditionReport:
    return _nonresidue_condition(1, 5, 5 * a + 5 * b + c)


def condition2(a: int, b: int, c: int) -> ConditionReport:
    return _nonresidue_condition(2, 10, 20 * a + 5 * b + 2 * c)


def condition3(a: int, b: int, c: int) -> ConditionReport:
    aniso = is_anisotropic_diag4([a, b, c, 1], 3)
    return ConditionReport(
        3,
        PASS if aniso else FAIL,
        f"<{a}, {b}, {c}, 1> is {'anisotropic' if aniso else 'isotropic'} over Q_3",
        data={"anisotropic_over_Q3": aniso},
    )


def condition4(a: int, b: int, c: int) -> ConditionReport:
    s = legendre(-b * c, 5)
    rpt = ConditionReport(4, PASS if s != 1 else FAIL, "", data={"legendre_minus_bc_mod5": s})
    if s == 0:
        rpt.notes.append(
            "-bc = 0 mod 5: the symbol degenerates; the '!= +1' test passes by convention"
        )
    rpt.detail = f"(-bc | 5) = {s}"
    return rpt


def condition5(a: int, b: int, c: int) -> ConditionReport:
    got = (a % 7, b % 7, c % 7)
    ok = got == (5, 6, 6)
    return ConditionReport(
        5, PASS if ok else FAIL,
        f"(a, b, c) = {got} mod 7, required (5, 6, 6)",
        data={"residues_mod7": list(got)},
    )


def condition6(a: int, b: int, c: int) -> ConditionReport:
    got = (a % 11, b % 11, c % 11)
    ok = got == (1, 1, 2)
    return ConditionReport(
        6, PASS if ok else FAIL,
        f"(a, b, c) = {got} mod 11, required (1, 1, 2)",
        data={"residues_mod11": list(got)},
    )


# -- condition (7): everywhere-local solvability ------------------------


#: The primes condition (7) examines, sieved once at import.
_PRIMES = tuple(primes_up_to(PRIME_BOUND))


@functools.lru_cache(maxsize=None)
def _survival_masks(p: int, k: int, m: int, r: int) -> tuple[int, ...]:
    """For each x mod q = p^k, the bitmask over v2 mod q of the v2 with
    x + m*v2^2 = r*w^2 for some w.

    The values t = r*w^2 are collected once; then for each shift
    s = m*v2^2 the v2 with that shift land in the masks at x = t - s, one
    pass over the (shift, value) pairs.

    Process-lifetime cache, bounded: p is at most PRIME_BOUND, k is
    _deep_modulus_exponent(p) (so q <= 125), m is 5 or a class
    representative of _square_scalers and r is 1 or 5; each entry holds
    q ints of q bits.
    """
    q = p**k
    values = {r * w * w % q for w in range(q)}
    shifts: dict[int, int] = {}
    for v2 in range(q):
        s = m * v2 * v2 % q
        shifts[s] = shifts.get(s, 0) | 1 << v2
    masks = [0] * q
    for s, bits in shifts.items():
        for t in values:
            masks[(t - s) % q] |= bits
    return tuple(masks)


@functools.lru_cache(maxsize=None)
def _pair_rows(p: int, k: int, v0: int) -> tuple[tuple[int, int, int], ...]:
    """The triplet-independent half of the slice at v0 modulo q = p^k:
    per value s of v1^2 mod q, (s, packed, rep), where the j-th v1 with
    v1^2 = s puts its mask at bit j*q of packed and 1 << j*q into rep.  A
    mask holds the v2 that solve the q0 and d congruences and, when p
    divides v0 and v1, are units (so v is primitive; see
    _deep_search_mod_pk); empty masks are left out.  These rows share
    their q2 mask, which q2_mask * rep copies into every slot.

    Process-lifetime cache, bounded: p is at most PRIME_BOUND, k is
    _deep_modulus_exponent(p) and v0 is 0 or p^j with j < k, so k+1
    entries per prime, each at most q values.
    """
    q = p**k
    q0_masks = _survival_masks(p, k, 5, 1)
    d_masks = _survival_masks(p, k, 5, 5)
    unit_v2 = sum(1 << v2 for v2 in range(q) if v2 % p)
    masks: dict[int, list[int]] = {}
    for v1 in range(q):
        mask = q0_masks[v0 * v1 % q] & d_masks[(v0 * v1 - (v0 + v1) * (v0 + 2 * v1)) % q]
        if v0 % p == 0 and v1 % p == 0:
            mask &= unit_v2
        if mask:
            masks.setdefault(v1 * v1 % q, []).append(mask)
    return tuple((v1_sq, sum(m << j * q for j, m in enumerate(row)),
                  sum(1 << j * q for j in range(len(row)))) for v1_sq, row in masks.items())


@functools.lru_cache(maxsize=None)
def _walk_table(p: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], list]:
    """The triplet-independent half of the walk over P^2(F_p): (root,
    five_root, sign, rows), where root[x] (five_root[x]) is the largest
    w < p with w^2 = x (5*w^2 = x), or -1 when there is none; sign[w] is
    the first of w, -w mod p that iterating {w, -w mod p} gives; and rows,
    filled lazily by _smooth_point_mod_p, holds _walk_row(p, i) at i.

    Process-lifetime cache, one entry per prime (at most PRIME_BOUND):
    three tuples of p ints and at most p + 2 rows.
    """
    root, five_root = [-1] * p, [-1] * p
    for w in range(p):
        root[w * w % p] = w
        five_root[5 * w * w % p] = w
    return tuple(root), tuple(five_root), tuple(next(iter({w, -w % p})) for w in range(p)), []


def _walk_row(p: int, i: int) -> tuple[int, int, int, int, tuple]:
    """(v0, v1, v0^2 mod p, v1^2 mod p, candidates) for row i of P^2(F_p),
    where the candidates are the (v2, v2^2 mod p, w0, w1, rank3) of the
    row with q0 = w0^2 and d = q0 - q1 = 5*w1^2, each w the largest root
    below p; rank3 is the rank at any w2 != 0 mod p, where the q2 row, the
    one holding a, b and c, drops out of _rank_is_three (and 20*w0*w1 != 0
    leaves no row at all).

    One representative per point: row 0 is (0, 0, 1), row 1 is (0, 1, y)
    and row i >= 2 is (1, i - 2, y), so rows 0 .. p + 1 list the points in
    increasing order."""
    root, five_root, _, _ = _walk_table(p)
    v0, v1 = (0, 0) if i == 0 else (0, 1) if i == 1 else (1, i - 2)
    v2s = range(1, 2) if i == 0 else range(p)
    r0 = v0 * v1  # q0 and q0 - q1 less their v2 term 5*v2^2
    rd = r0 - (v0 + v1) * (v0 + 2 * v1)
    candidates = []
    for v2 in v2s:
        sq = v2 * v2 % p
        w0 = root[(r0 + 5 * sq) % p]
        if w0 < 0:
            continue
        w1 = five_root[(rd + 5 * sq) % p]
        if w1 >= 0:
            rank3 = (20 * w0 * w1 % p != 0
                     or _rank_is_three(0, 0, 0, (v0, v1, v2), (w0, w1, 1), p))
            candidates.append((v2, sq, w0, w1, rank3))
    return v0, v1, v0 * v0 % p, v1 * v1 % p, tuple(candidates)


def _rank_is_three(a: int, b: int, c: int, v, w, p: int) -> bool:
    """Whether the Jacobian at a point (v, w) of the system over F_p, with
    v != 0, has rank 3.

    In the row basis of q0 = w0^2, q0 - q1 = 5*w1^2 and q2 = w2^2 (rows 0,
    0 - 1 and 2 of the 3x6 Jacobian in (v0, v1, v2, w0, w1, w2)) each row
    has one w-entry, -2*w0, -10*w1 resp. -2*w2, in a column of its own, so
    a dependency uses only the rows whose w-entry is 0 mod p.  The rank is
    3 iff the v-parts of those rows, (v1, v0, 10*v2), (-2v0 - 2v1, -2v0 -
    4v1, 10*v2) resp. (2a*v0, 2b*v1, 2c*v2), are independent over F_p: no
    such row, one nonzero row, two with a nonzero cross product, or three
    with a nonzero determinant.  At p = 2 all three w-entries vanish and
    the middle v-part does too, so no point is smooth; at p = 5 the middle
    w-entry always vanishes.  Only which w_i are 0 is read, so the sign of
    w does not matter.
    """
    v0, v1, v2 = v
    rows = []
    if 2 * w[0] % p == 0:
        rows.append((v1, v0, 10 * v2))
    if 10 * w[1] % p == 0:
        rows.append((-2 * v0 - 2 * v1, -2 * v0 - 4 * v1, 10 * v2))
    if 2 * w[2] % p == 0:
        rows.append((2 * a * v0, 2 * b * v1, 2 * c * v2))
    if len(rows) < 2:
        return not rows or any(x % p for x in rows[0])
    (x0, x1, x2), (y0, y1, y2) = rows[:2]
    cross = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    if len(rows) == 2:
        return any(x % p for x in cross)
    return sum(x * y for x, y in zip(cross, rows[2])) % p != 0


def _smooth_point_mod_p(a: int, b: int, c: int, p: int) -> tuple[Optional[dict], int]:
    """Search F_p for a point of the system; prefer one with rank-3 Jacobian.

    Returns (hit, points), points being the v in P^2(F_p) the walk passed
    over which the system has a point.  The walk stops at the first point
    whose Jacobian has rank 3: hit is {"point": ..., "smooth": True}, with
    the first sign choice of w in itertools.product order.  Without one it
    passes them all, and hit is the first point seen with "smooth": False,
    or None if there is none.

    Scaling (v, w) by a unit multiplies q0, q0 - q1, q2 and the Jacobian by
    units, so one representative per point of P^2(F_p) decides everything,
    and the walk returns the point a scan of all of F_p^3 in row-major
    order would reach first.  Each root table keeps the largest w with
    m*w^2 = x, as a scan in increasing w does.  The rows of _walk_table
    keep only the v2 where q0 and d = q0 - q1 have roots, so a candidate
    costs one q2 root lookup; its rank comes with the row when w2 != 0,
    and from _rank_is_three when w2 = 0.  Every sign choice of w has the
    same rank, so one test per point does.

    At k = 1 (every p >= 13, see _deep_modulus_exponent) the survival count
    is (p - 1)*points when no point is smooth.  Proof: away from p = 5 a
    primitive (v, w) mod p has v != 0 (see _deep_search_mod_pk), so the
    survivors are the v != 0 in F_p^3 where q0 = w0^2, d = 5*w1^2 and
    q2 = w2^2 are solvable.  v -> lam*v multiplies each value by lam^2,
    so that depends only on the point of P^2(F_p); each point has p - 1
    such v, and the walk counts each point with all three roots once.
    """
    root, _, sign, rows = _walk_table(p)
    am, bm, cm = a % p, b % p, c % p
    found, points = None, 0
    for i in range(p + 2):
        if i == len(rows):
            rows.append(_walk_row(p, i))
        v0, v1, v0_sq, v1_sq, candidates = rows[i]
        r2 = am * v0_sq + bm * v1_sq  # q2 less its v2 term c*v2^2
        for v2, sq, w0, w1, rank3 in candidates:
            w2 = root[(r2 + cm * sq) % p]
            if w2 < 0:
                continue
            points += 1
            if rank3 if w2 else _rank_is_three(am, bm, cm, (v0, v1, v2), (w0, w1, 0), p):
                return {"point": [[v0, v1, v2], [sign[w0], sign[w1], sign[w2]]],
                        "smooth": True}, points
            if found is None:
                found = {"point": [[v0, v1, v2], [w0, w1, w2]], "smooth": False}
    return found, points


def _deep_search_mod_pk(a: int, b: int, c: int, p: int, k: int) -> int:
    """Count the v mod p^k for which some w mod p^k solves the three
    congruences with (v, w) primitive (not all divisible by p).

    The congruences fix w0^2, 5*w1^2 and w2^2 separately, so v survives iff
    each value is reached, and (v, w) is primitive.  Primitive means p does
    not divide v: if p divides v0, v1 and v2, then q0, q0 - q1 and q2 are
    0 mod p^min(k, 2), so w0^2 = 5*w1^2 = w2^2 = 0 mod p^min(k, 2) forces
    p to divide w0, w1 and w2, except at k = 1, p = 5, where w1 is free.
    There v = 0 adds exactly one survivor, with w = (0, 1, 0).

    Survival is invariant under v -> lam*v for a unit lam: q0, q0 - q1 and
    q2 are multiplied by lam^2, which w -> lam*w matches, and units stay
    units.  The same scaling permutes the (v1, v2) grid, so the slice at v0
    has as many survivors S(v0) as the slice at lam*v0.  Every nonzero v0
    mod p^k is a unit times exactly one p^j (j < k), with (p-1)*p^(k-j-1)
    residues in that orbit, hence

        count = S(0) + sum over j < k of (p-1)*p^(k-j-1) * S(p^j),

    k+1 slices instead of p^k.  The triplet is first rescaled by the unit
    square of _square_scalers that takes c to its class's representative,
    so the q2 masks are shared by every c of one unit-square class.  In
    the row at v1, q0 = v0*v1 + 5*v2^2, d = v0*v1 - (v0 + v1)*(v0 + 2*v1)
    + 5*v2^2 and q2 = a*v0^2 + b*v1^2 + c*v2^2 are lookups in
    _survival_masks, and the survivors are the AND of three masks; the
    q0 and d halves come packed from _pair_rows, one q2 lookup per v1^2.
    """
    q = p**k
    s, c_rep = _square_scalers(p, k)[c % q]
    q2_masks = _survival_masks(p, k, c_rep, 1)
    a, b = s * a % q, s * b % q
    count = int(p == 5 and k == 1)
    for v0, n in ({0: 1} | {p**j: (p - 1) * p ** (k - j - 1) for j in range(k)}).items():
        av = a * v0 * v0
        count += n * sum((packed & q2_masks[(av + b * v1_sq) % q] * rep).bit_count()
                         for v1_sq, packed, rep in _pair_rows(p, k, v0))
    return count


@functools.lru_cache(maxsize=None)
def _square_scalers(p: int, k: int) -> tuple[tuple[int, int], ...]:
    """For each c mod q = p^k, a unit square s and the least c_rep of the
    orbit of c under the unit squares, with s*c = c_rep mod q.

    Scaling the triplet by s = lam^2, lam a unit, scales q2 by s and
    leaves q0 and q0 - q1 alone; x is a square mod q iff s*x is, and v
    is untouched, so (s*a, s*b, c_rep) has the survival count of (a, b, c)
    and the c-row masks are built once per orbit.

    Process-lifetime cache, one entry per prime (p <= PRIME_BOUND, k is
    _deep_modulus_exponent(p)), each q pairs.
    """
    q = p**k
    squares = sorted({lam * lam % q for lam in range(q) if lam % p})
    scalers: list = [None] * q
    for c_rep in range(q):
        if scalers[c_rep] is None:
            for u in squares:
                x = u * c_rep % q
                if scalers[x] is None:
                    scalers[x] = (pow(u, -1, q), c_rep)
    return tuple(scalers)


def _deep_modulus_exponent(p: int) -> int:
    """Largest k with p^(3k) <= 3e6, capped at 4.

    The cap fixes the modulus p^k a survival count is reported at, not the
    cost of the count, which is (k+1)*p^(2k) over the unit-scaling orbits."""
    for k in (4, 3, 2, 1):
        if (p**k) ** 3 <= 3_000_000:
            return k
    return 1


def _real_point(a: int, b: int, c: int) -> Optional[list]:
    """Exact rational point certificate for the archimedean place: the
    first point of the grid -2, -1, 0, 1, 2, 1/2, -1/2 in each coordinate,
    else the first primitive integer v with max |v_i| <= 6, by increasing
    max |v_i| and then lexicographically.

    The three conditions are homogeneous quadratic, so the grid is tested
    doubled, in ints, and halved as it is printed.  They are also unchanged
    by v -> -v and by v2 -> -v2, so the box keeps one v per orbit: v2 >= 0
    and (v0, v1) >= (0, 0)."""
    grid = (-4, -2, 0, 2, 4, 1, -1)
    for v in itertools.product(grid, repeat=3):
        if any(v) and _real_conditions_hold(a, b, c, *v):
            return [str(x // 2) if x % 2 == 0 else f"{x}/2" for x in v]
    for n in range(1, 7):
        for v in itertools.product(range(-n, n + 1), range(-n, n + 1), range(n + 1)):
            if (max(map(abs, v)) == n and v[:2] >= (0, 0) and math.gcd(*v) == 1
                    and _real_conditions_hold(a, b, c, *v)):
                return [str(x) for x in v]
    return None


def _real_conditions_hold(a: int, b: int, c: int, v0: int, v1: int, v2: int) -> bool:
    """Whether q0, q0 - q1 and q2 are all >= 0 at v, so that w is real."""
    q0 = v0 * v1 + 5 * v2 * v2
    q1 = (v0 + v1) * (v0 + 2 * v1)
    return q0 >= 0 and q0 - q1 >= 0 and a * v0 * v0 + b * v1 * v1 + c * v2 * v2 >= 0


def _real_place(a: int, b: int, c: int) -> dict:
    """Condition (7)'s record at the real place: obstructed when a, b, c < 0
    (q2 is negative definite, so w2^2 = q2 forces v = 0 and so w = 0),
    certified by _real_point's rational point, or else unresolved."""
    if a < 0 and b < 0 and c < 0:
        return {"status": "obstructed",
                "note": "q2 is negative definite, so only v = w = 0 solves"}
    point = _real_point(a, b, c)
    if point is None:
        return {"status": "unresolved", "note": "grid search found no certificate"}
    return {"status": "certified", "point": point}


def _prime_place(a: int, b: int, c: int, p: int, factors) -> dict:
    """Condition (7)'s record at a prime p <= PRIME_BOUND, given the values
    of the nonsingularity factors (see local_solvability)."""
    # no point is smooth mod 2 (_rank_is_three), so only the count decides 2
    hit, points = (None, 0) if p == 2 else _smooth_point_mod_p(a, b, c, p)
    if hit is not None and hit["smooth"]:
        return {"status": "certified", "point": hit["point"]}
    if hit is None and p not in (2, 5) and all(v % p for v in factors):
        return {"status": "obstructed", "note": "no F_p point at good reduction"}
    k = _deep_modulus_exponent(p)
    survivors = (p - 1) * points if k == 1 else _deep_search_mod_pk(a, b, c, p, k)
    if survivors == 0:
        return {"status": "obstructed", "modulus": f"{p}^{k}"}
    return {"status": "survived", "modulus": f"{p}^{k}", "survivors": survivors}


def _places(a: int, b: int, c: int) -> Iterator[tuple[str, dict]]:
    """Every place condition (7) examines, in order, with its record: the
    real place, then the primes up to PRIME_BOUND increasing.  Each record
    is computed only when the iteration reaches it."""
    yield "real", _real_place(a, b, c)
    factors = nonsingularity_factors(a, b, c).values()
    for p in _PRIMES:
        yield str(p), _prime_place(a, b, c, p, factors)


def local_solvability(a: int, b: int, c: int) -> ConditionReport:
    """Condition (7): points over R and over Q_p for all p <= PRIME_BOUND.

    The places are examined in the order of _places, and the examination
    stops at the first certified obstruction: one place without points
    leaves Y without adelic points, so it decides Fail, and no later
    place can change that.  A Fail report lists the places up to and
    including that one and says where it stopped; a report that is not
    Fail lists every place.

    The real place is decided as _real_place says.  The primes up to the
    bound are sieved once at import.  Per odd prime (_prime_place): a
    smooth F_p-point, found by a walk over P^2(F_p) that stops at the
    first one, certifies a Q_p-point by Hensel lifting (the rank-3 test is
    one lemma, see _rank_is_three); no F_p-point at a prime of good
    reduction (not 2, 5 or a divisor of a nonsingularity factor, tested
    only then) certifies failure; otherwise a survival count modulo p^k
    (k capped at 4, scaled to the prime) is reported as uncertified
    survival, or as an obstruction when it is 0.  Where k = 1 (p >= 13)
    it is (p - 1) times the walk's point count (see _smooth_point_mod_p);
    at p <= 11 it is summed over the k+1 unit-scaling orbits of v0.  At 2
    the count alone decides.  Good reduction is the smoothness criterion
    that tests/test_conditions.py::test_good_reduction_discriminants
    checks.
    A verdict that is not Fail is at best Probable because primes beyond
    the bound are never examined.

    Four process-lifetime caches hold what depends on the prime alone
    (or on the unit-square class of c mod p^k), never on the order
    triplets come in; each is bounded because p <= PRIME_BOUND and
    q = p^k <= 125:
      _walk_table(p): roots, sign choices and the q0 and d half of the
        walk, filled row by row as walks reach it, at most p + 2 rows;
      _pair_rows(p, k, v0): the q0 and d half of each survival slice,
        packed by v1^2, k+1 per prime (v0 = 0 or p^j) at p <= 11;
      _square_scalers(p, k): for each c mod q, the unit square taking c
        to its class's representative, one per prime at p <= 11;
      _survival_masks(p, k, m, r): q ints, one row mask per value, for
        m = 5 and for each class representative met, so at most
        (unit-square classes mod q) + 2 per prime: 12 at 2, 9 at 3, 7 at
        5, 5 at 7 and 11.
    """
    places: dict[str, dict] = {}
    for place, info in _places(a, b, c):
        places[place] = info
        if info["status"] == "obstructed":
            break
    rpt = ConditionReport(7, PROBABLE, "", data={"places": places})
    real = places["real"]["status"]
    if real == "unresolved":
        rpt.notes.append("no real-point certificate found by the rational grid search")
    uncertified = [pl for pl, info in places.items()
                   if info["status"] in ("survived", "unresolved")]
    rpt.data["uncertified_places"] = uncertified
    if info["status"] == "obstructed":
        rpt.verdict = FAIL
        rpt.detail = f"local obstruction certified at {place}"
        rpt.notes.append(f"examination stopped at {place}: one certified obstruction decides Fail")
    else:
        primes_left = [pl for pl in uncertified if pl != "real"]
        where = "the real place and all" if real == "certified" else "all"
        rpt.detail = (
            f"solvable at {where} p <= {PRIME_BOUND} "
            f"(certified except {primes_left or 'none'})"
        )
        if real != "certified":
            rpt.detail += "; the real place is unresolved"
        rpt.notes.append(f"primes beyond {PRIME_BOUND} were not examined")
    return rpt


def galois_generality_proxy(a: int, b: int, c: int) -> ConditionReport:
    """Condition (8) through the tower-independence proxy.

    The full Galois-generality statement is not decided here; instead we
    certify that every step of the preset splitting tower is a genuine
    quadratic extension.  A degenerate step refutes generality; an Unknown
    square verdict leaves the condition Unknown.
    """
    rpt = ConditionReport(8, PASS, "", notes=["verdict via tower-independence proxy"])
    try:
        tw = k_tower(a, b, c)
    except (ArithmeticError, ValueError) as exc:
        rpt.verdict = FAIL
        rpt.detail = f"tower construction failed: {exc}"
        return rpt
    rpt.data["steps"] = tw.step_names()
    rpt.data["degenerate_steps"] = sorted(tw.degenerate)
    rpt.data["unverified_steps"] = list(tw.unverified)
    if tw.degenerate:
        rpt.verdict = FAIL
        rpt.detail = f"degenerate tower steps: {sorted(tw.degenerate)}"
    elif tw.unverified:
        rpt.verdict = UNKNOWN
        rpt.detail = f"square tests exhausted their budget on: {tw.unverified}"
    else:
        rpt.detail = "all 18 tower steps are certified independent quadratic extensions"
    return rpt


# -- assembly -----------------------------------------------------------

_CHEAP = {
    1: condition1,
    2: condition2,
    3: condition3,
    4: condition4,
    5: condition5,
    6: condition6,
}


def check_condition(a: int, b: int, c: int, index: int) -> ConditionReport:
    """Evaluate a single numbered screening condition (1-8)."""
    if index in _CHEAP:
        return _CHEAP[index](a, b, c)
    if index == 7:
        return local_solvability(a, b, c)
    if index == 8:
        return galois_generality_proxy(a, b, c)
    raise ValueError(f"no condition numbered {index}")


def evaluate_triplet(
    a: int,
    b: int,
    c: int,
    conditions: Optional[Sequence[int]] = None,
) -> TripletReport:
    """Run the requested screens (default: all eight) on one triplet."""
    reports = [check_condition(a, b, c, idx) for idx in _wanted(conditions)]
    return _triplet_report(a, b, c, reports, nonsingularity_factors(a, b, c))


def _wanted(conditions: Optional[Sequence[int]]) -> list[int]:
    """The screens asked for, sorted and once each; None asks for all eight.
    An empty selection raises ValueError: no screen certifies nothing; so
    does an index outside 1-8, before any triplet is screened."""
    wanted = sorted(set(range(1, 9) if conditions is None else conditions))
    if not wanted:
        raise ValueError("no screen selected")
    for index in wanted:
        if index not in range(1, 9):
            raise ValueError(f"no condition numbered {index}")
    return wanted


def _triplet_report(a: int, b: int, c: int, reports: list[ConditionReport],
                    factors: dict) -> TripletReport:
    """The report on one triplet from its screen reports, in index order,
    and its nonsingularity factors."""
    nonsingular = all(factors.values())
    verdicts = [r.verdict for r in reports]
    if not nonsingular:
        overall = FAIL
    elif FAIL in verdicts:
        overall = FAIL
    elif UNKNOWN in verdicts:
        overall = UNKNOWN
    elif PROBABLE in verdicts:
        overall = PROBABLE
    else:
        overall = PASS
    return TripletReport(a, b, c, nonsingular, factors, reports, overall)


#: The order search_triplets runs screens in: the residue filters (5) and
#: (6), then the rest cheapest first.  Per triplet of the screen sweep,
#: (4) takes about 1 us, (3), (1) and (2) 4-5 us, (7) 30 us and (8) about
#: 4.5 ms (the median; the mean is about 8 ms).
_SEARCH_ORDER = (5, 6, 4, 3, 1, 2, 7, 8)


def search_triplets(
    box: Sequence[tuple[int, int]],
    conditions: Optional[Sequence[int]] = None,
) -> Iterator[TripletReport]:
    """Lexicographic scan of a box [a0..a1] x [b0..b1] x [c0..c1].

    Yields reports only for nonsingular triplets passing everything asked,
    the same reports evaluate_triplet gives.  The requested screens run in
    _SEARCH_ORDER, each at most once per triplet, and a triplet's screening
    stops at its first Fail or Unknown, which no yielded report holds.
    """
    (a0, a1), (b0, b1), (c0, c1) = box
    wanted = _wanted(conditions)
    order = [idx for idx in _SEARCH_ORDER if idx in wanted]
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            for c in range(c0, c1 + 1):
                factors = nonsingularity_factors(a, b, c)
                if not all(factors.values()):
                    continue
                done = {}
                for idx in order:
                    done[idx] = check_condition(a, b, c, idx)
                    if done[idx].verdict in (FAIL, UNKNOWN):
                        break
                else:
                    yield _triplet_report(a, b, c, [done[idx] for idx in wanted], factors)

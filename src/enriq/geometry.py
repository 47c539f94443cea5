"""Equation-level verification of the double-cover geometry data.

Everything here is exact symbolic arithmetic in the quadratic towers; no
floating point, no sampling.  Every check takes the caller's tower and
none builds one.  The module answers four questions about the shipped
tables, plus one about the generator formulas themselves:

* do the eight branch points, as cut out by their two linear forms, lie on
  the defining conic a*v0^2 + b*v1^2 + c*v2^2 (``weierstrass_report``)?
* does the projection to P1 x P1 intertwine the covering involution
  v -> -v with the [-1] map on both factors, as a formal polynomial
  identity (``phi_equivariance``)?
* does x -> -x, t -> -t pair up the four blown-down points into a
  fixed-point-free involution (``exceptional_minus_one_pairing``)?
* do the genus, node and ramification numbers of the branch curves balance
  under Riemann-Hurwitz (``genus_bookkeeping``)?
* do the twelve displayed defining formulas for the derived tower
  generators hold exactly (``generator_relations``)?

``induced_point_permutations`` additionally re-derives, from the field
action alone, how each Galois row permutes the eight branch points, and
``verify_point_permutations`` compares the result with the printed
point-permutation column.  (This computation is the source of the two
corrections recorded in the ``galois_actions.json`` notes.)
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import datafiles
from .actions import POINT_NAMES, load_rows, tower_automorphism
from .towers import Tower, TowerElem, parse_element, tower_expr

__all__ = [
    "ProjPoint",
    "DEFAULT_GENUS_LEDGER",
    "GENERATOR_RELATION_SUITE",
    "weierstrass_report",
    "conic_value",
    "phi_signature",
    "phi_equivariance",
    "exceptional_points",
    "exceptional_minus_one_pairing",
    "genus_bookkeeping",
    "generator_relations",
    "induced_point_permutations",
    "verify_point_permutations",
    "verify_suite",
]


# --------------------------------------------------------------------------
# projective points
# --------------------------------------------------------------------------

#: Ambient label -> sizes of the homogeneous coordinate blocks.
_AMBIENT_SHAPES = {
    "P2": (3,),
    "P1xP1": (2, 2),
}


class ProjPoint:
    """A point of a product of projective spaces, with tower coordinates.

    ``blocks`` holds one coordinate tuple per projective factor; equality
    of points is projective per factor (``same_as``), never structural, so
    ``==`` is identity.  Points are immutable.
    """

    __slots__ = ("ambient", "blocks")

    def __init__(self, ambient: str, blocks: tuple[tuple[TowerElem, ...], ...]):
        shape = _AMBIENT_SHAPES.get(ambient)
        if shape is None:
            raise ValueError(f"unknown ambient {ambient!r}")
        if tuple(len(b) for b in blocks) != shape:
            raise ValueError(
                f"{ambient} point needs coordinate blocks of sizes {shape}"
            )
        for block in blocks:
            if all(z.is_zero() for z in block):
                raise ValueError("projective coordinates cannot be all zero")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def same_as(self, other: "ProjPoint") -> bool:
        """Projective equality: all 2x2 minors vanish, factor by factor."""
        if self.ambient != other.ambient:
            return False
        for mine, theirs in zip(self.blocks, other.blocks):
            n = len(mine)
            for i in range(n):
                for j in range(i + 1, n):
                    if mine[i] * theirs[j] != mine[j] * theirs[i]:
                        return False
        return True

    def minus_one(self) -> "ProjPoint":
        """Negate the affine coordinate of every factor: [n : d] -> [-n : d]."""
        return ProjPoint(
            self.ambient, tuple((-b[0],) + b[1:] for b in self.blocks)
        )


def _projective_key(coords: Sequence[TowerElem]):
    """A hashable normal form: scale so the first nonzero coordinate is 1."""
    for z in coords:
        if not z.is_zero():
            inv = z.inv()
            return tuple(w * inv for w in coords)
    raise ValueError("projective coordinates cannot be all zero")


# --------------------------------------------------------------------------
# formal polynomials over a tower (for the equivariance identity)
# --------------------------------------------------------------------------

_VAR_NAMES = ("v0", "v1", "v2", "w0", "w1", "w2")
_VAR_INDEX = {name: i for i, name in enumerate(_VAR_NAMES)}


class _FormalPoly:
    """Sparse polynomial in v0..v2, w0..w2 with tower-element coefficients.

    Only what the formal identity checks need: ring operations, sign
    substitution (monomial parity), and evaluation at tower points.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: Tower, terms: Mapping[tuple, TowerElem]):
        self.tower = tower
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, tower: Tower, value) -> "_FormalPoly":
        elem = value if isinstance(value, TowerElem) else tower.rational(value)
        return cls(tower, {(0,) * len(_VAR_NAMES): elem})

    @classmethod
    def var(cls, tower: Tower, index: int) -> "_FormalPoly":
        mono = [0] * len(_VAR_NAMES)
        mono[index] = 1
        return cls(tower, {tuple(mono): tower.one()})

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "_FormalPoly") -> "_FormalPoly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = terms.get(mono)
            terms[mono] = coeff if prev is None else prev + coeff
        return _FormalPoly(self.tower, terms)

    def __neg__(self) -> "_FormalPoly":
        return _FormalPoly(self.tower, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "_FormalPoly") -> "_FormalPoly":
        return self + (-other)

    def __mul__(self, other: "_FormalPoly") -> "_FormalPoly":
        terms: dict[tuple, TowerElem] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                terms[mono] = terms[mono] + prod if mono in terms else prod
        return _FormalPoly(self.tower, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, _FormalPoly) and self.terms == other.terms

    # -- the two consumers ----------------------------------------------

    def flip_signs(self, var_indices) -> "_FormalPoly":
        """Substitute x -> -x for the given variables (formal, per monomial)."""
        flips = set(var_indices)
        return _FormalPoly(
            self.tower,
            {
                m: (-c if sum(m[i] for i in flips) % 2 else c)
                for m, c in self.terms.items()
            },
        )

    def evaluate(self, values: Mapping[int, TowerElem]) -> TowerElem:
        total = self.tower.zero()
        for mono, coeff in self.terms.items():
            term = coeff
            for idx, exp in enumerate(mono):
                if exp:
                    term = term * values[idx] ** exp
            total = total + term
        return total

    def linear_coefficients(self, var_indices: Sequence[int]) -> list[TowerElem]:
        """Coefficient vector of a homogeneous linear form in the given variables."""
        coeffs = [self.tower.zero() for _ in var_indices]
        position = {v: k for k, v in enumerate(var_indices)}
        for mono, coeff in self.terms.items():
            if sum(mono) != 1:
                raise ValueError("form is not homogeneous linear")
            idx = mono.index(1)
            if idx not in position:
                raise ValueError("form involves a variable outside the block")
            coeffs[position[idx]] = coeffs[position[idx]] + coeff
        return coeffs


def _poly_expr(tower: Tower, text: str, env: Mapping[str, TowerElem]) -> _FormalPoly:
    def lookup(name: str) -> _FormalPoly:
        if name in _VAR_INDEX:
            return _FormalPoly.var(tower, _VAR_INDEX[name])
        if name in env:
            return _FormalPoly.const(tower, env[name])
        return _FormalPoly.const(tower, tower.gen(name))

    return parse_element(text, lookup, lambda x: _FormalPoly.const(tower, x))


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _abc_env(tower: Tower, a, b, c) -> dict[str, TowerElem]:
    """The triplet as tower elements; refuses a tower with degenerate steps."""
    if tower.degenerate:
        raise ValueError(
            f"tower {tower.label!r} eliminated degenerate steps "
            f"{sorted(tower.degenerate)}; the table identities need every "
            "named generator"
        )
    return {"a": tower.rational(a), "b": tower.rational(b), "c": tower.rational(c)}


def _branch_data() -> dict:
    return datafiles.load("branch_points.json", "weierstrass-points/1")


def _listed_points(tower: Tower, env: Mapping[str, TowerElem]) -> dict:
    """The listed coordinates of the eight branch points, in ``tower``."""
    return {
        name: tuple(tower_expr(tower, text, env) for text in entry["coords"])
        for name, entry in _branch_data()["points"].items()
    }


def _blowdown_data() -> dict:
    return datafiles.load("blowdown_points.json", "blowdown-points/1")


# --------------------------------------------------------------------------
# branch points on the conic
# --------------------------------------------------------------------------

def _solve_two_lines(lines: Sequence[_FormalPoly], tower: Tower) -> ProjPoint:
    """Intersect two linear forms in v0, v1, v2: the kernel cross product."""
    (a1, b1, c1), (a2, b2, c2) = (
        line.linear_coefficients((0, 1, 2)) for line in lines
    )
    coords = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
    if all(z.is_zero() for z in coords):
        raise ValueError("the two forms do not cut out a single point")
    return ProjPoint("P2", (coords,))


def conic_value(tower: Tower, a, b, c, coords: Sequence[TowerElem]) -> TowerElem:
    """Evaluate a*v0^2 + b*v1^2 + c*v2^2 at a coordinate triple."""
    return _conic(_abc_env(tower, a, b, c), coords)


def _conic(env: Mapping[str, TowerElem], coords: Sequence[TowerElem]) -> TowerElem:
    """``conic_value`` with the triplet already in the tower (``_abc_env``)."""
    v0, v1, v2 = coords
    return env["a"] * v0 ** 2 + env["b"] * v1 ** 2 + env["c"] * v2 ** 2


def weierstrass_report(a, b, c, *, tower: Tower) -> dict:
    """Per-point verdicts for the branch-point table at (a, b, c).

    For each of the eight points: solve the two defining linear forms,
    check the solution matches the listed coordinates projectively, and
    check the conic vanishes there exactly.  The 1024-degree subtower K1
    already contains every coordinate.
    """
    env = _abc_env(tower, a, b, c)
    return _weierstrass_report(a, b, c, tower, env, _listed_points(tower, env))


def _weierstrass_report(a, b, c, tower: Tower, env: Mapping[str, TowerElem],
                        listed: Mapping[str, tuple]) -> dict:
    """``weierstrass_report`` on points that ``_listed_points`` evaluated."""
    rows = []
    for name, entry in _branch_data()["points"].items():
        lines = [_poly_expr(tower, text, env) for text in entry["lines"]]
        coords = listed[name]
        solved = _solve_two_lines(lines, tower)
        rows.append(
            {
                "point": name,
                "lines_vanish_at_listed": all(
                    line.evaluate(dict(enumerate(coords))).is_zero()
                    for line in lines
                ),
                "solved_matches_listed": solved.same_as(ProjPoint("P2", (coords,))),
                "on_conic": _conic(env, solved.blocks[0]).is_zero(),
            }
        )
    ok = all(all(row[k] for k in row if k != "point") for row in rows)
    return {"triplet": [int(a), int(b), int(c)], "points": rows, "ok": ok}


# --------------------------------------------------------------------------
# equivariance of the projection
# --------------------------------------------------------------------------

def phi_signature(tower: Tower, *, flip_v: bool = True, flip_w: bool = False) -> str:
    """Classify the projection composed with a coordinate sign flip.

    Flipping the v coordinates is the covering involution; the induced map
    on the image should be [-1] on both P1 factors.  Flipping w as well is
    the falsification control and gives back the identity.  Returns
    ``"minus-one"``, ``"identity"`` or ``"mixed"`` -- as a formal statement
    about the coordinate polynomials, not a sampled one.  ``tower`` must
    hold the names of K0.
    """
    data = _blowdown_data()
    flips = []
    if flip_v:
        flips += [_VAR_INDEX["v0"], _VAR_INDEX["v1"], _VAR_INDEX["v2"]]
    if flip_w:
        flips += [_VAR_INDEX["w0"], _VAR_INDEX["w1"], _VAR_INDEX["w2"]]

    verdicts = []
    for factor in ("x", "t"):
        num, den = (_poly_expr(tower, text, {}) for text in data["projection"][factor])
        num2, den2 = num.flip_signs(flips), den.flip_signs(flips)
        if (num2 == num and den2 == den) or (num2 == -num and den2 == -den):
            verdicts.append("identity")
        elif (num2 == num and den2 == -den) or (num2 == -num and den2 == den):
            verdicts.append("minus-one")
        else:
            verdicts.append("mixed")
    if verdicts == ["minus-one", "minus-one"]:
        return "minus-one"
    if verdicts == ["identity", "identity"]:
        return "identity"
    return "mixed"


def phi_equivariance(tower: Tower) -> bool:
    """The covering involution descends to [-1] on both P1 factors."""
    return phi_signature(tower, flip_v=True, flip_w=False) == "minus-one"


# --------------------------------------------------------------------------
# the four blown-down points under [-1]
# --------------------------------------------------------------------------

def exceptional_points(tower: Tower) -> dict[str, ProjPoint]:
    """The images of the contracted curves, as points of P1 x P1, in a
    tower holding the names of K0."""
    data = _blowdown_data()
    out = {}
    for name, entry in data["points"].items():
        out[name] = ProjPoint(
            "P1xP1",
            tuple(
                tuple(tower_expr(tower, text, {}) for text in entry[factor])
                for factor in ("x", "t")
            ),
        )
    return out


def exceptional_minus_one_pairing(tower: Tower) -> dict[str, str]:
    """How (x, t) -> (-x, -t) permutes the four points.

    Raises if an image is not a listed point, or if the induced map on
    labels is not a fixed-point-free involution.
    """
    points = exceptional_points(tower)
    pairing: dict[str, str] = {}
    for name, pt in points.items():
        image = pt.minus_one()
        matches = [other for other, cand in points.items() if cand.same_as(image)]
        if len(matches) != 1:
            raise ValueError(
                f"[-1] image of {name} matches {len(matches)} listed points"
            )
        pairing[name] = matches[0]
    for name, target in pairing.items():
        if target == name:
            raise ValueError(f"[-1] fixes {name}; expected a free involution")
        if pairing[target] != name:
            raise ValueError("[-1] does not act as an involution on the labels")
    return pairing


# --------------------------------------------------------------------------
# genus bookkeeping
# --------------------------------------------------------------------------

#: B is the branch curve upstairs (smooth, canonically embedded by three
#: quadrics); Btilde its quotient; B0 and Btilde0 are their nodal plane
#: models.  P1 is the base of the hyperelliptic map.
DEFAULT_GENUS_LEDGER: dict = {
    "curves": {
        "B": {"genus": 5, "arithmetic_genus": 5, "nodes": 0},
        "Btilde": {"genus": 3, "arithmetic_genus": 3, "nodes": 0},
        "B0": {"genus": 5, "arithmetic_genus": 9, "nodes": 4},
        "Btilde0": {"genus": 3, "arithmetic_genus": 5, "nodes": 2},
        "P1": {"genus": 0, "arithmetic_genus": 0, "nodes": 0},
    },
    "covers": [
        {"name": "B over Btilde", "upstairs": "B", "downstairs": "Btilde",
         "degree": 2, "ramification": 0},
        {"name": "Btilde over P1", "upstairs": "Btilde", "downstairs": "P1",
         "degree": 2, "ramification": 8},
        {"name": "B over P1", "upstairs": "B", "downstairs": "P1",
         "degree": 4, "ramification": 16},
    ],
    # canonical degree of B = 2g - 2, and also the product of the three
    # quadric degrees cutting it out.
    "canonical": {"curve": "B", "quadric_degrees": [2, 2, 2]},
}


def genus_bookkeeping(ledger: Optional[dict] = None) -> dict:
    """Check every genus/node/ramification identity in the ledger.

    Verifies p_a = g + nodes for each curve and the Riemann-Hurwitz
    balance 2g' - 2 = deg (2g - 2) + ram for each declared cover; raises
    ``ValueError`` on the first violated identity.  Returns the verdict
    list plus the headline tuple (g(B), g(Btilde), p_a(B0), p_a(Btilde0)).
    """
    led = DEFAULT_GENUS_LEDGER if ledger is None else ledger
    curves = led["curves"]
    checks = []

    def record(name: str, lhs: int, rhs: int) -> None:
        checks.append({"check": name, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
        if lhs != rhs:
            raise ValueError(f"inconsistent genus ledger: {name}: {lhs} != {rhs}")

    for name, cur in curves.items():
        record(
            f"p_a({name}) = g + nodes",
            cur["arithmetic_genus"],
            cur["genus"] + cur["nodes"],
        )
    for cover in led.get("covers", ()):
        up = curves[cover["upstairs"]]
        down = curves[cover["downstairs"]]
        record(
            f"Riemann-Hurwitz for {cover['name']}",
            2 * up["genus"] - 2,
            cover["degree"] * (2 * down["genus"] - 2) + cover["ramification"],
        )
    canonical = led.get("canonical")
    if canonical is not None:
        degree = 1
        for d in canonical["quadric_degrees"]:
            degree *= d
        record(
            f"deg K = 2g - 2 on {canonical['curve']}",
            2 * curves[canonical["curve"]]["genus"] - 2,
            degree,
        )

    out = {"checks": checks, "ok": True}
    headline = ("B", "Btilde", "B0", "Btilde0")
    if all(name in curves for name in headline):
        out["tuple"] = (
            curves["B"]["genus"],
            curves["Btilde"]["genus"],
            curves["B0"]["arithmetic_genus"],
            curves["Btilde0"]["arithmetic_genus"],
        )
    return out


# --------------------------------------------------------------------------
# the twelve displayed generator formulas
# --------------------------------------------------------------------------

#: Each entry is one displayed formula: a quotient identity (where the
#: printed form defines the element by a quotient) and/or the value of a
#: square or product, as expression strings over the tower generators.
GENERATOR_RELATION_SUITE: tuple[dict, ...] = (
    {"label": "sqrt_m2m2r2", "checks": (
        ("sqrt_m2m2r2", "2*i/sqrt_m2p2r2"),
        ("sqrt_m2m2r2**2", "-2 - 2*sqrt2"),
    )},
    {"label": "sqrt_mc_p10rab", "checks": (
        ("sqrt_mc_p10rab", "eta0/sqrt_mc_m10rab"),
        ("sqrt_mc_p10rab**2", "-c + 10*sqrtab"),
    )},
    {"label": "theta1m", "checks": (
        ("theta1m", "4*a*gamma0/theta1p"),
        ("theta1m**2", "20*a**2 - 10*a*b - 2*b*c - (10*a + 2*c)*theta0"),
    ), "note": (
        "the printed radicand repeats the + sign of theta1p's theta0 term; "
        "the quotient form forces the conjugate sign used here"
    )},
    {"label": "theta2m", "checks": (
        ("theta2m", "5*sqrtab/theta2p"),
        ("theta2m**2", "-5*a - 5*b/2 + 5*theta0/2"),
    )},
    {"label": "xi1m", "checks": (
        ("xi1m", "eta0/xi1p"),
        ("xi1m**2", "20*a + 10*b + 3*c - 20*xi0*xi0p"),
    )},
    {"label": "xi2m", "checks": (
        ("xi2m", "2*gamma0/(5*xi2p)"),
        ("xi2m**2", "4*a + 2*b + 2*c/5 - 4*xi0*xi0p"),
    )},
    {"label": "gamma1p_square", "checks": (
        ("gamma1p**2", "10*a**2 - 5*a*b - b*c + 2*a*gamma0"),
    )},
    {"label": "eta1p_square", "checks": (
        ("eta1p**2", "(-c + eta0)/(50*a)"),
    )},
    {"label": "gamma1m_square", "checks": (
        ("gamma1m**2", "10*a**2 - 5*a*b - b*c - 2*a*gamma0"),
    )},
    {"label": "eta1m_square", "checks": (
        ("eta1m**2", "(-c - eta0)/(50*a)"),
    )},
    {"label": "gamma1_product", "checks": (
        ("gamma1p*gamma1m", "(5*a + c)*theta0"),
    )},
    {"label": "eta1_product", "checks": (
        ("eta1p*eta1m", "-sqrtab/(5*a)"),
    )},
)


def generator_relations(a, b, c, *, tower: Tower) -> list[dict]:
    """Verify the twelve displayed formulas exactly in the full tower."""
    return _generator_relations(tower, _abc_env(tower, a, b, c))


def _generator_relations(tower: Tower, env: Mapping[str, TowerElem]) -> list[dict]:
    """``generator_relations`` with the triplet already in the tower."""
    report = []
    for relation in GENERATOR_RELATION_SUITE:
        checks = []
        for lhs, rhs in relation["checks"]:
            holds = tower_expr(tower, lhs, env) == tower_expr(tower, rhs, env)
            checks.append({"lhs": lhs, "rhs": rhs, "holds": holds})
        entry = {
            "label": relation["label"],
            "checks": checks,
            "holds": all(ch["holds"] for ch in checks),
        }
        if "note" in relation:
            entry["note"] = relation["note"]
        report.append(entry)
    return report


# --------------------------------------------------------------------------
# the field action on the branch points
# --------------------------------------------------------------------------

def _pairs_from_permutation(perm: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    pairs = []
    for name in POINT_NAMES:
        target = perm[name]
        if target != name and name < target:
            pairs.append((name, target))
    return tuple(pairs)


def induced_point_permutations(a, b, c, *, tower: Tower) -> dict[str, dict[str, str]]:
    """Recompute each row's branch-point permutation from its field column.

    Applies the row's field automorphism to the projective normal forms
    of all eight points and looks the images up among them; an
    automorphism fixes 0 and 1, so the image of a normal form is again
    one.  The automorphisms are built unvalidated here:
    ``tests/test_actions.py`` validates every row on the witness tower.
    This is independent of the printed point-permutation column, so it
    can (and did) catch misprints there.
    """
    return _induced_point_permutations(
        tower, _listed_points(tower, _abc_env(tower, a, b, c))
    )


def _induced_point_permutations(tower: Tower, listed: Mapping[str, tuple]
                                ) -> dict[str, dict[str, str]]:
    """``induced_point_permutations`` on points that ``_listed_points``
    evaluated."""
    keys = {name: _projective_key(coords) for name, coords in listed.items()}
    lookup = {key: name for name, key in keys.items()}
    if len(lookup) != len(keys):
        raise ValueError("the listed points are not pairwise distinct")

    out: dict[str, dict[str, str]] = {}
    for row in load_rows():
        auto = tower_automorphism(tower, row)
        perm: dict[str, str] = {}
        for name, key in keys.items():
            target = lookup.get(tuple(auto(z) for z in key))
            if target is None:
                raise ValueError(
                    f"row {row.name!r} maps {name} outside the listed points"
                )
            perm[name] = target
        if sorted(perm.values()) != sorted(POINT_NAMES):
            raise ValueError(f"row {row.name!r} does not permute the points")
        out[row.name] = perm
    return out


def verify_point_permutations(a, b, c, *, tower: Tower) -> dict:
    """Compare the recomputed point action with the printed column."""
    return _permutation_report(induced_point_permutations(a, b, c, tower=tower))


def _permutation_report(derived: Mapping[str, dict[str, str]]) -> dict:
    rows = []
    for row in load_rows():
        perm = derived[row.name]
        rows.append(
            {
                "row": row.name,
                "derived_pairs": [list(p) for p in _pairs_from_permutation(perm)],
                "listed_pairs": [list(p) for p in row.weier_pairs],
                "match": perm == row.point_permutation(),
            }
        )
    return {"rows": rows, "ok": all(r["match"] for r in rows)}


# --------------------------------------------------------------------------
# everything at once
# --------------------------------------------------------------------------

def verify_suite(a, b, c, *, tower: Tower) -> dict:
    """Run every geometry check for one triplet in its splitting tower K."""
    # the triplet enters the tower once and the listed points are evaluated once
    env = _abc_env(tower, a, b, c)
    relations = _generator_relations(tower, env)
    listed = _listed_points(tower, env)
    weierstrass = _weierstrass_report(a, b, c, tower, env, listed)
    permutations = _permutation_report(_induced_point_permutations(tower, listed))
    genus = genus_bookkeeping()
    report = {
        "triplet": [int(a), int(b), int(c)],
        "generator_relations": relations,
        "weierstrass": weierstrass,
        "phi_equivariance": phi_equivariance(tower),
        "phi_control_identity": phi_signature(tower, flip_v=True, flip_w=True)
        == "identity",
        "minus_one_pairing": exceptional_minus_one_pairing(tower),
        "point_permutations": permutations,
        "genus": genus,
    }
    report["ok"] = (
        all(rel["holds"] for rel in relations)
        and weierstrass["ok"]
        and report["phi_equivariance"]
        and report["phi_control_identity"]
        and permutations["ok"]
        and genus["ok"]
    )
    return report

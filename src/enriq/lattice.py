"""The rank-15 fibre-class lattice, its Galois action, and the mod-2 quotient.

The K3 cover carries 28 genus-1 fibre classes F1..F14, G1..G14 subject to
F_i + G_i = F_j + G_j, pairing by F_i.G_i = 4, any two other distinct
classes meeting in 2, and all self-intersections 0.  Together with four
half-integer classes Z1..Z4 they span a rank-15 even lattice.  This module
provides

* exact Gram pairing of arbitrary rational combinations (:func:`gram`);
* coordinates over the integral basis LATTICE_BASIS
  (:func:`lattice_coords`), one product with the basis-change inverse
  B^-1, which is computed once by exact Gauss-Jordan elimination, checked
  to be integral and cached as an int matrix;
* the rank-6 sublattice pulled back from the del Pezzo quotient
  (:func:`pullback_sublattice`) with an integral membership test through
  the left inverse (G^T G)^-1 G^T of its 15x6 generator matrix G, scaled
  by its common denominator: the coefficients c = L x must be integral
  and reproduce x = G c;
* the 9-dimensional F2 quotient by that sublattice plus doubles
  (:func:`quotient_F2`), an ``f2.GaloisModule`` carrying the induced
  Galois action;
* fixed-subspace computations (:func:`invariants_under`) and the
  trivial-times-induced-times-induced structure test
  (:func:`verify_decomposition`);
* consistency checks for the exceptional-curve pullback classes and for
  every Galois row acting as a lattice isometry.

Every class is at most half-integral, so the arithmetic runs on integers:
a class is stored as its doubled ambient vector, a rational combination
as an int vector with one common denominator (each coefficient read
through ``arith.rational``, so a float or a string raises), the Gram
matrix is an int table, and F2 vectors are bitmasks.  ``Fraction``
appears only in the public vector views (:func:`class_vector`,
:func:`as_vector`, :func:`lattice_coords`, :func:`exceptional_pullback`,
:func:`galois_matrix`, ``PullbackSublattice.generators``), in a
non-integral :func:`gram` value, and in the entries of the two one-time
inverses, which are eliminated on ints and divided once at the end.  The
shipped ``lattice_classes.json`` is the single source of class data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import actions, datafiles, f2
from .arith import rational

DATA_FILE = "lattice_classes.json"
DATA_FORMAT = "picard-lattice/1"

RANK = 15

#: Integral basis of the full lattice chosen among the nineteen generators.
#: The four remaining fibre classes and every companion class G_j have
#: integer coordinates here; the change of basis from the ambient unit
#: classes has determinant -1/16 (index 16 = 2^4, one factor 2 per Z_i).
LATTICE_BASIS: tuple[str, ...] = (
    "Z1", "Z2", "Z3", "Z4", "G1", "F1", "F3", "F4", "F6", "F7",
    "F9", "F10", "F11", "F12", "F14",
)

#: The nineteen listed generators of the lattice.
GENERATORS: tuple[str, ...] = (
    ("G1",) + tuple(f"F{i}" for i in range(1, 15)) + ("Z1", "Z2", "Z3", "Z4")
)

#: The five classes carrying the trivial x induced x induced module.
CORE_CLASSES: tuple[str, ...] = ("F5", "F6", "F8", "F9", "F11")

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
ClassLike = Union[str, Mapping[str, int], Sequence]


def _data() -> dict:
    return datafiles.load(DATA_FILE, DATA_FORMAT)


@lru_cache(maxsize=1)
def ambient_basis() -> tuple[str, ...]:
    return tuple(_data()["ambient_basis"])


@lru_cache(maxsize=1)
def _ambient_index() -> dict[str, int]:
    return {n: i for i, n in enumerate(ambient_basis())}


def _pair_rule(x: str, y: str) -> int:
    if x == y:
        return 0
    if x[1:] == y[1:] and {x[0], y[0]} == {"F", "G"}:
        return 4
    return 2


@lru_cache(maxsize=1)
def gram_matrix() -> IntMatrix:
    """Pairing matrix of the ambient unit classes G1, F1..F14."""
    amb = ambient_basis()
    return tuple(tuple(_pair_rule(a, b) for b in amb) for a in amb)


@lru_cache(maxsize=None)
def _doubled(name: str) -> IntVector:
    """Twice the ambient coordinates of a class name (F*, G*, Z*); every
    class is at most half-integral, so the entries are integers."""
    idx = _ambient_index()
    if name in idx:
        v = [0] * RANK
        v[idx[name]] = 2
        return tuple(v)
    half = _data()["half_classes"]
    if name in half:
        return _half_class(half[name])
    if name.startswith("G") and name[1:].isdigit():
        # companion classes: G_j = F1 + G1 - F_j
        return tuple(
            a + b - c
            for a, b, c in zip(_doubled("F1"), _doubled("G1"), _doubled("F" + name[1:]))
        )
    raise KeyError(f"unknown lattice class {name!r}")


def _half_class(members: Iterable[str]) -> IntVector:
    """The doubled vector of half the sum of the named integral classes."""
    total = [sum(col) for col in zip(*(_doubled(m) for m in members))]
    if any(x % 2 for x in total):
        raise ValueError("a half-class member is not an integral class")
    return tuple(x // 2 for x in total)


def _permuted(perm: Mapping[str, str], name: str) -> IntVector:
    """Doubled vector of a generator after permuting the fibre classes."""
    half = _data()["half_classes"]
    if name in half:
        return _half_class(perm[member] for member in half[name])
    return _doubled(perm[name])


def _scaled(x: ClassLike) -> tuple[IntVector, int]:
    """``x`` as an integer vector n and a scale d > 0 with x = n / d; a
    class name, or an integral combination of names, has d = 2."""
    if isinstance(x, str):
        return _doubled(x), 2
    if isinstance(x, Mapping):
        terms = [(rational(c).as_integer_ratio(), _doubled(name)) for name, c in x.items()]
        half = lcm(*(q for (_, q), _ in terms))
        acc = [0] * RANK
        for (p, q), v in terms:
            f = p * (half // q)
            acc = [a + f * b for a, b in zip(acc, v)]
        return tuple(acc), 2 * half
    ratios = [rational(c).as_integer_ratio() for c in x]
    if len(ratios) != RANK:
        raise ValueError(f"expected {RANK} coordinates, got {len(ratios)}")
    d = lcm(*(q for _, q in ratios))
    return tuple(p * (d // q) for p, q in ratios), d


@lru_cache(maxsize=None)
def class_vector(name: str) -> Vector:
    """Ambient coordinates of a class name (F*, G*, Z*)."""
    return tuple(Fraction(x, 2) for x in _doubled(name))


def as_vector(x: ClassLike) -> Vector:
    """Coerce a class name, a name->coefficient mapping, or raw ambient
    coordinates into an ambient vector."""
    if isinstance(x, str):
        return class_vector(x)
    n, d = _scaled(x)
    return tuple(Fraction(c, d) for c in n)


def _gram(s: tuple[IntVector, int], t: tuple[IntVector, int]):
    """The pairing of n / d and m / e, given as (n, d) and (m, e)."""
    (n, d), (m, e) = s, t
    # the Gram matrix is symmetric, so its rows are its columns
    total = sum(x * y for x, y in zip(n, _combine(gram_matrix(), m)))
    den = d * e
    q, r = divmod(total, den)
    return Fraction(total, den) if r else q


def gram(u: ClassLike, v: ClassLike):
    """Intersection pairing, bilinear over the ambient rules; returns an
    int when the value is integral (it always is on lattice elements)."""
    return _gram(_scaled(u), _scaled(v))


def exceptional_pullback(label: str) -> Vector:
    """The class 2 pi^* E_i of an exceptional curve, by label E1..E4."""
    table = _data()["exceptional_pullbacks"]
    if label not in table:
        raise KeyError(f"no exceptional pullback {label!r}")
    return as_vector(table[label])


# -- integral structure -------------------------------------------------


Matrix = tuple[Vector, ...]


def _transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*rows))


def _inverse(matrix: Sequence[Sequence]) -> Matrix:
    """Inverse of a square rational matrix; raises ArithmeticError when
    the matrix is singular.

    The matrix is N / D with N integral and D the common denominator.
    Fraction-free (Bareiss) Gauss-Jordan elimination turns [N | I] into
    [d I | d N^-1] on ints, every division exact, so the inverse is
    D (d N^-1) / d: one division per entry, at the end."""
    n = len(matrix)
    den = lcm(*(x.denominator for row in matrix for x in row))
    aug = [
        [x.numerator * (den // x.denominator) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        d = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(d * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = d
    return tuple(tuple(Fraction(den * x, prev) for x in row[n:]) for row in aug)


def _combine(columns: Sequence[Sequence], coeffs: Sequence) -> tuple:
    """The sum of coeffs[j] * columns[j]: the product of the matrix with
    these columns and the vector ``coeffs``."""
    acc = [0] * len(columns[0])
    for c, col in zip(coeffs, columns):
        if c:
            acc = [a + c * x for a, x in zip(acc, col)]
    return tuple(acc)


@lru_cache(maxsize=1)
def _basis_inverse() -> Matrix:
    return _inverse(_transpose([class_vector(n) for n in LATTICE_BASIS]))


@lru_cache(maxsize=1)
def _unit_coords() -> IntMatrix:
    """The columns of B^-1: the LATTICE_BASIS coordinates of the ambient
    unit classes.  These classes lie in the lattice, so B^-1 is integral;
    that is checked with an explicit ArithmeticError (not an assert, so it
    holds under ``python -O``)."""
    inv = _basis_inverse()
    if any(x.denominator != 1 for row in inv for x in row):
        raise ArithmeticError("the basis inverse is not integral")
    return tuple(tuple(int(x) for x in col) for col in _transpose(inv))


def _scaled_coords(n: IntVector) -> IntVector:
    """d times the LATTICE_BASIS coordinates of the vector n / d."""
    return _combine(_unit_coords(), n)


def lattice_coords(x: ClassLike) -> Vector:
    """Coordinates over LATTICE_BASIS (rational for arbitrary input;
    integral exactly when the element lies in the lattice)."""
    n, d = _scaled(x)
    return tuple(Fraction(c, d) for c in _scaled_coords(n))


def _in_lattice(n: IntVector, d: int) -> bool:
    return all(c % d == 0 for c in _scaled_coords(n))


def in_lattice(x: ClassLike) -> bool:
    return _in_lattice(*_scaled(x))


def _mod2_mask(n: IntVector, d: int) -> int:
    """LATTICE_BASIS coordinates of the lattice element n / d reduced
    mod 2, as a bitmask (bit i = coordinate i)."""
    mask = 0
    for i, c in enumerate(_scaled_coords(n)):
        q, r = divmod(c, d)
        if r:
            raise ValueError("element lies outside the lattice")
        mask |= (q & 1) << i
    return mask


class PullbackSublattice:
    """The rank-6 image of the del Pezzo Picard lattice, as a Z-span of
    generators given by their doubled ambient vectors.  Immutable; equal
    generator tuples give equal sublattices."""

    def __init__(self, doubled: tuple[IntVector, ...]):
        object.__setattr__(self, "doubled", doubled)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.doubled == other.doubled

    def __hash__(self):
        return hash((self.doubled,))

    @property
    def rank(self) -> int:
        """The number of generators, once :attr:`_left_inverse` has shown
        them independent over Q (it raises ArithmeticError otherwise)."""
        self._left_inverse
        return len(self.doubled)

    @property
    def generators(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(x, 2) for x in g) for g in self.doubled)

    @cached_property
    def _left_inverse(self) -> tuple[IntMatrix, int]:
        """(D L, D): the columns of the left inverse L = (H^T H)^-1 H^T of
        the 15x6 matrix H of doubled generators, scaled by the common
        denominator D of its entries; raises ArithmeticError when the
        generators are Q-dependent."""
        hth = [[sum(a * b for a, b in zip(g, h)) for h in self.doubled]
               for g in self.doubled]
        inv = _transpose(_inverse(hth))
        left = [_combine(inv, row) for row in _transpose(self.doubled)]
        den = lcm(*(x.denominator for col in left for x in col))
        return tuple(tuple(int(x * den) for x in col) for col in left), den

    def membership_coordinates(self, x: ClassLike) -> Optional[tuple[int, ...]]:
        """Integer coefficients expressing ``x`` over the generators, or
        None when ``x`` is outside the span."""
        n, d = _scaled(x)
        left, den = self._left_inverse
        # x = n / d and the generators are H / 2, so the coefficients
        # are L (2 n / d) = (D L) (2 n) / (D d)
        coeffs = []
        for c in _combine(left, n):
            q, r = divmod(2 * c, den * d)
            if r:
                return None
            coeffs.append(q)
        if _combine(self.doubled, [d * c for c in coeffs]) != tuple(2 * c for c in n):
            return None  # outside the rational span
        return tuple(coeffs)

    def contains(self, x: ClassLike) -> bool:
        return self.membership_coordinates(x) is not None

    def __contains__(self, x: ClassLike) -> bool:
        return self.contains(x)


@lru_cache(maxsize=1)
def pullback_sublattice() -> PullbackSublattice:
    """The pulled-back sublattice from the shipped generators.

    Certification rests on the six generators being lattice elements that
    stay independent mod 2; both are checked with explicit errors (not
    asserts, so they hold under ``python -O``) raising ArithmeticError.
    """
    gens = [_scaled(d) for d in _data()["pi_star_pic_s"]]
    try:
        masks = [_mod2_mask(n, d) for n, d in gens]
    except ValueError as exc:
        raise ArithmeticError(f"pullback generator: {exc}") from exc
    if f2.rank(masks) != 6:
        raise ArithmeticError("pullback generators degenerate mod 2")
    # a lattice element is half-integral, so 2 n / d is exact
    return PullbackSublattice(tuple(tuple(2 * c // d for c in n) for n, d in gens))


# -- the F2 quotient ----------------------------------------------------


class QuotientF2(f2.GaloisModule):
    """Pic / (pullback sublattice + 2 Pic) as a 9-dimensional F2 module.

    Vectors are bitmasks over ``basis_names`` (bit i = coefficient of the
    i-th basis class).  The mod-2 reduction runs through coordinates over
    LATTICE_BASIS, so every lattice element — including the half-classes
    and companion classes — reduces exactly.  Every Galois row of the
    table acts, through its permutation of the fibre classes.
    """

    def __init__(self):
        self.basis_names: tuple[str, ...] = tuple(_data()["quotient_basis"])
        # a permuted fibre class is a fibre class: this call's table reduces
        # each distinct class once
        mask = lru_cache(maxsize=None)(lambda n: _mod2_mask(n, 2))
        images = {}
        for row in actions.load_rows():
            perm = row.class_permutation()
            images[row.name] = [mask(_permuted(perm, n)) for n in self.basis_names]
        pi_masks = [_mod2_mask(g, 2) for g in pullback_sublattice().doubled]
        basis = [mask(_doubled(n)) for n in self.basis_names]
        super().__init__(basis, pi_masks, images)
        if self.dimension + len(pi_masks) != RANK:
            raise ArithmeticError("quotient basis does not complement the pullback span")

    def image(self, x: ClassLike) -> int:
        """Quotient coordinates of a lattice element, as a 9-bit mask."""
        return self._coordinates(_mod2_mask(*_scaled(x)))

    def image_names(self, x: ClassLike) -> list[str]:
        mask = x if isinstance(x, int) else self.image(x)
        return [n for i, n in enumerate(self.basis_names) if (mask >> i) & 1]

    def verify_relations(self) -> bool:
        """Every shipped reduction identity holds in the quotient."""
        for name, rel in _data()["quotient_relations"].items():
            if self.image_names(name) != sorted(
                rel, key=self.basis_names.index
            ):
                return False
        return True


@lru_cache(maxsize=1)
def quotient_F2() -> QuotientF2:
    return QuotientF2()


# -- invariants ---------------------------------------------------------


class Subspace(NamedTuple):
    """An F2 subspace of the quotient, echelon basis + readable names."""

    basis_masks: tuple[int, ...]
    basis_names: tuple[tuple[str, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis_masks)

    def contains(self, mask: int) -> bool:
        return f2.in_span(self.basis_masks, mask)


def invariants_under(subgroup) -> Subspace:
    """Fixed subspace of the quotient under the named Galois rows.

    ``subgroup`` is an iterable of row names; the fixed space of the
    generated group equals the intersection of the generators' fixed
    spaces, so only the listed rows are applied.  An empty iterable gives
    the whole 9-dimensional space.
    """
    q = quotient_F2()
    fixed = q.fixed_subspace(subgroup)
    return Subspace(
        basis_masks=tuple(fixed),
        basis_names=tuple(tuple(q.image_names(m)) for m in fixed),
    )


def subfield_fixing_rows(tower, subfield_names) -> list[str]:
    """Names of the table rows acting trivially on a subfield.

    ``tower`` must be the full splitting tower (so that derived elements
    like the ratio roots are available); ``subfield_names`` lists the named
    elements generating the subfield.  No subgroup list is hard-coded: the
    membership falls out of the field columns.
    """
    gens = [tower.named[n] for n in subfield_names]
    out = []
    for row in actions.load_rows():
        auto = actions.tower_automorphism(tower, row)
        if all(auto(g) == g for g in gens):
            out.append(row.name)
    return out


# -- structure tests ----------------------------------------------------


def core_action_table() -> dict[str, dict[str, str]]:
    """Induced permutation of the five core classes, one entry per row.

    Raises if any row fails to permute the core classes among themselves
    (it never does for the shipped table).
    """
    q = quotient_F2()
    out: dict[str, dict[str, str]] = {}
    for row in actions.load_rows():
        entry = {}
        for name in CORE_CLASSES:
            img = q.image_names(q.act(row.name, 1 << q.basis_names.index(name)))
            if len(img) != 1 or img[0] not in CORE_CLASSES:
                raise ArithmeticError(
                    f"row {row.name}: core class {name} maps to {img}"
                )
            entry[name] = img[0]
        out[row.name] = entry
    return out


def verify_decomposition(action_table: Optional[Mapping[str, Mapping[str, str]]] = None) -> bool:
    """Test the trivial x induced x induced shape of the core module.

    The five-class module decomposes as claimed precisely when, for every
    Galois row: F11 is fixed; {F5, F6} are swapped exactly by the rows
    moving sqrt(ab); and {F8, F9} are swapped exactly by the rows moving
    theta0.  ``action_table`` (row name -> class images) substitutes for
    the derived action, so deliberately broken tables can be probed.
    """
    if action_table is None:
        action_table = core_action_table()
    for row in actions.load_rows():
        entry = action_table.get(row.name, {n: n for n in CORE_CLASSES})
        if sorted(entry.get(n, n) for n in CORE_CLASSES) != sorted(CORE_CLASSES):
            return False
        if entry.get("F11", "F11") != "F11":
            return False
        pair56 = (entry.get("F5", "F5"), entry.get("F6", "F6"))
        if pair56 not in (("F5", "F6"), ("F6", "F5")):
            return False
        if (pair56 == ("F6", "F5")) != row.moves_root("sqrtab"):
            return False
        pair89 = (entry.get("F8", "F8"), entry.get("F9", "F9"))
        if pair89 not in (("F8", "F9"), ("F9", "F8")):
            return False
        if (pair89 == ("F9", "F8")) != row.moves_root("theta0"):
            return False
    return True


def verify_exceptional_pullbacks() -> bool:
    """Self-pairing -8, mutual orthogonality, and the constant pairing of
    every fibre-sum F_i + G_i against each pullback class."""
    table = _data()["exceptional_pullbacks"]
    labels = sorted(table)
    vectors = {lab: _scaled(table[lab]) for lab in labels}
    for lab, vec in vectors.items():
        if _gram(vec, vec) != -8:
            return False
        if not _in_lattice(*vec):
            return False
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if _gram(vectors[a], vectors[b]) != 0:
                return False
    fibre_sums = [_scaled({f"F{i}": 1, f"G{i}": 1}) for i in range(1, 15)]
    for lab, vec in vectors.items():
        if {_gram(s, vec) for s in fibre_sums} != {4}:
            return False
    return True


# -- isometry checks ----------------------------------------------------


def galois_matrix(row) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of a Galois row on ambient coordinates (columns = images of
    the ambient unit classes, companion moves expanded)."""
    if isinstance(row, str):
        row = actions.rows_by_name()[row]
    perm = row.class_permutation()
    return _transpose([class_vector(perm[name]) for name in ambient_basis()])


def verify_galois_isometries() -> bool:
    """Every row preserves the pairing, the lattice, and the fibre-sum
    relation F_i + G_i = F_j + G_j."""
    # on doubled vectors: (2A)^T G (2A) = 4 G, row i of the left side
    # combining the rows of G (2A) through the 1-3 nonzero entries of the
    # i-th image; a permuted F/G generator is again a fibre class, so each
    # distinct image is tested for lattice membership once per call
    mat4 = tuple(tuple(4 * g for g in row) for row in gram_matrix())
    fibre_sum, _ = _scaled({"F1": 1, "G1": 1})
    member = lru_cache(maxsize=None)(lambda n: _in_lattice(n, 2))
    for row in actions.load_rows():
        perm = row.class_permutation()
        images = [_doubled(perm[name]) for name in ambient_basis()]  # columns of 2A
        g2a = _transpose([_combine(gram_matrix(), col) for col in images])
        if tuple(_combine(g2a, col) for col in images) != mat4:
            return False
        for name in GENERATORS:
            if not member(_permuted(perm, name)):
                return False
        for i in range(1, 15):
            img = tuple(x + y for x, y in zip(_doubled(perm[f"F{i}"]), _doubled(perm[f"G{i}"])))
            if img != fibre_sum:
                return False
    return True


# -- roll-up ------------------------------------------------------------


def verify_suite(splitting_tower=None, subfield_names=None) -> dict:
    """One-shot verification report of the lattice model.

    ``splitting_tower`` supplies the concrete full splitting tower and
    ``subfield_names`` the generators of the curve-splitting subfield, so
    the ground-field invariants can be derived from the field action.
    Give both or neither: without them the ground-field entries are
    skipped, and one without the other raises ValueError.
    """
    if (splitting_tower is None) != (subfield_names is None):
        raise ValueError("give both splitting_tower and subfield_names, or neither")
    q = quotient_F2()
    checks: dict[str, object] = {}
    checks["gram_examples"] = (
        gram("F1", "G1") == 4 and gram("Z1", "Z1") == 10 and gram("F1", "F1") == 0
    )
    checks["even_lattice"] = all(gram(n, n) % 2 == 0 for n in GENERATORS)
    sub = pullback_sublattice()
    checks["pullback_rank"] = sub.rank
    checks["pullback_memberships"] = sub.contains("G1") and not sub.contains("F5")
    checks["quotient_dimension"] = q.dimension
    checks["quotient_relations"] = q.verify_relations()
    checks["galois_isometries"] = verify_galois_isometries()
    checks["decomposition"] = verify_decomposition()
    checks["exceptional_pullbacks"] = verify_exceptional_pullbacks()
    trivial = invariants_under([])
    everything = invariants_under([r.name for r in actions.load_rows()])
    checks["invariants_trivial_group_dim"] = trivial.dimension
    checks["invariants_full_group_dim"] = everything.dimension
    checks["invariants_full_group_basis"] = [
        "+".join(names) for names in everything.basis_names
    ]
    checks["ok"] = (
        all(
            checks[k] is True
            for k in (
                "gram_examples", "even_lattice", "pullback_memberships",
                "quotient_relations", "galois_isometries", "decomposition",
                "exceptional_pullbacks",
            )
        )
        and checks["pullback_rank"] == 6
        and checks["quotient_dimension"] == 9
        and checks["invariants_trivial_group_dim"] == 9
        and checks["invariants_full_group_dim"] == 3
    )
    if splitting_tower is not None:
        fixing = subfield_fixing_rows(splitting_tower, subfield_names)
        inv = invariants_under(fixing)
        checks["subfield_fixing_rows"] = fixing
        checks["ground_field_invariants_dim"] = inv.dimension
        checks["ground_field_invariants_basis"] = [
            "+".join(names) for names in inv.basis_names
        ]
        core_match = inv.dimension == len(CORE_CLASSES) and all(
            inv.contains(q.image(name)) for name in CORE_CLASSES
        )
        checks["ground_field_invariants_match"] = core_match
        checks["ok"] = bool(checks["ok"] and core_match)
    return checks

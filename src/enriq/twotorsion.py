"""2-torsion of the branch-curve Jacobian as Weierstrass-subset classes.

The eight Weierstrass points P1..P4, Q1..Q4 index the bits of an 8-bit
mask.  Even-cardinality subsets modulo complementation model the 64-element
2-torsion group of the genus-3 hyperelliptic quotient curve; the group law
is symmetric difference.  Pulling divisor classes back to the branch curve
kills exactly the class of {P1,P2,P3,P4}; the quotient by that kernel is a
5-dimensional F2 Galois module (an ``f2.GaloisModule``) built from two
induced blocks and one extension class, and the package's final
contradiction is an exhaustive scan of this picture: no odd-P class
survives the subgroup of the Galois table that fixes both theta0 and
sqrt(ab).  A subgroup is given by the names of its generating rows; an
unknown name raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import actions, f2
from .actions import POINT_NAMES

#: Bit layout: P1..P4 are bits 0-3, Q1..Q4 bits 4-7 (the order of POINT_NAMES).
P_MASK = 0x0F
Q_MASK = 0xF0
OMEGA = 0xFF

_BIT = {name: i for i, name in enumerate(POINT_NAMES)}


def _canonical(mask: int) -> int:
    """The lexicographically smaller of a subset and its complement.

    For nonempty proper subsets that is the one containing P1 (the least
    label belongs to exactly one of the two); the empty set beats the full
    set by the prefix rule.
    """
    mask &= OMEGA
    if mask in (0, OMEGA):
        return 0
    return mask if mask & 1 else mask ^ OMEGA


@total_ordering
class WeierstrassClass:
    """An even subset of the 8 Weierstrass points modulo complementation.

    Immutable and hashable; classes compare and sort by mask.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if mask != _canonical(mask):
            raise ValueError(f"mask {mask:#04x} is not a canonical representative")
        if bin(mask).count("1") % 2:
            raise ValueError("2-torsion classes have even representatives")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask < other.mask

    def __hash__(self):
        return hash((self.mask,))

    @classmethod
    def from_mask(cls, mask: int) -> "WeierstrassClass":
        return cls(_canonical(mask))

    @classmethod
    def from_points(cls, points: Iterable[str]) -> "WeierstrassClass":
        mask = 0
        for p in points:
            mask ^= 1 << _BIT[p]
        return cls.from_mask(mask)

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(n for n in POINT_NAMES if (self.mask >> _BIT[n]) & 1)

    def __add__(self, other: "WeierstrassClass") -> "WeierstrassClass":
        return WeierstrassClass.from_mask(self.mask ^ other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def odd_p_part(self) -> bool:
        """Does the class meet {P1..P4} in an odd number of points?

        Well-defined: both the complement and the kernel representative
        shift the P-intersection by an even count.
        """
        return bin(self.mask & P_MASK).count("1") % 2 == 1

    def transformed(self, perm: Mapping[str, str]) -> "WeierstrassClass":
        return WeierstrassClass.from_points(perm[p] for p in self.points)

    def __str__(self) -> str:
        return "{" + ",".join(self.points) + "}" if self.mask else "0"


IDENTITY = WeierstrassClass(0)


@lru_cache(maxsize=1)
def jac2_group() -> tuple[WeierstrassClass, ...]:
    """All 64 classes (2^{2g} for genus 3), in ascending mask order."""
    out = sorted({WeierstrassClass.from_mask(m) for m in range(256)
                  if bin(m).count("1") % 2 == 0})
    if len(out) != 64:
        raise ArithmeticError(f"found {len(out)} classes in Jac[2], expected 64")
    return tuple(out)


def pullback_kernel() -> WeierstrassClass:
    """The unique nontrivial class killed by pulling back to the branch
    curve upstairs: {P1,P2,P3,P4} (equivalently {Q1,Q2,Q3,Q4})."""
    return WeierstrassClass(P_MASK)


# -- the pullback image as a Galois module ------------------------------


class F2GModule(f2.GaloisModule):
    """The F2 span of some Weierstrass classes modulo relation masks, with
    every row of the Galois table acting through its point permutation.

    Elements are bitmasks over ``basis_classes`` (bit i = coefficient of
    generator i).  Reduction of an arbitrary class to coordinates runs
    modulo the relation masks, so the kernel class and complementation are
    invisible downstream.
    """

    def __init__(self, basis_classes: Sequence[WeierstrassClass],
                 relation_masks: Sequence[int]):
        self.basis_classes = tuple(basis_classes)
        images = {}
        for row in actions.load_rows():
            perm = row.point_permutation()
            images[row.name] = [c.transformed(perm).mask for c in self.basis_classes]
        super().__init__([c.mask for c in self.basis_classes], relation_masks, images)

    def coordinates(self, cls: WeierstrassClass) -> int:
        return self._coordinates(cls.mask)

    def element(self, coord_mask: int) -> WeierstrassClass:
        acc = IDENTITY
        for i, c in enumerate(self.basis_classes):
            if (coord_mask >> i) & 1:
                acc = acc + c
        return acc


@lru_cache(maxsize=1)
def pullback_image_module() -> F2GModule:
    """The image of 2-torsion under pullback, i.e. Jac[2]/kernel, with the
    Galois-table action: dimension 5, generated by {P1,P3}, {P1,P4},
    {Q1,Q3}, {Q1,Q4} (the two induced blocks) and {P1,Q1}."""
    basis = [WeierstrassClass.from_points(pts) for pts in
             (("P1", "P3"), ("P1", "P4"), ("Q1", "Q3"), ("Q1", "Q4"), ("P1", "Q1"))]
    module = F2GModule(basis, (P_MASK, Q_MASK))
    if module.dimension != 5:
        raise ArithmeticError(f"pullback image has dimension {module.dimension}, expected 5")
    return module


def induced_block_basis() -> list[int]:
    """Coordinate masks spanning the Ind x Ind part (the first four
    generators; equivalently the classes of even P-intersection)."""
    return [1 << i for i in range(4)]


def verify_induced_blocks() -> bool:
    """The module decomposes over its first four generators as two induced
    blocks: rows moving sqrt(ab) swap the first pair, rows moving theta0
    swap the second pair, and nothing else touches either pair."""
    module = pullback_image_module()
    for row in actions.load_rows():
        e1, e2, e3, e4, _ = (module.act(row.name, 1 << i) for i in range(5))
        swap_ab = row.moves_root("sqrtab")
        swap_th = row.moves_root("theta0")
        if (e1, e2) != ((0b00010, 0b00001) if swap_ab else (0b00001, 0b00010)):
            return False
        if (e3, e4) != ((0b01000, 0b00100) if swap_th else (0b00100, 0b01000)):
            return False
    return True


def verify_non_splitness() -> bool:
    """No class of the shape {P_i, Q_j} is fixed by the whole table; the
    extension of the trivial class by the two induced blocks is non-split.
    The 16 {P_i, Q_j} are exactly the odd elements of Jac[2]/kernel."""
    return not fixed_odd_class_scan([row.name for row in actions.load_rows()])


class Submodule(NamedTuple):
    """A Galois-invariant subspace, echelon coordinate basis + classes."""

    basis: tuple[int, ...]
    classes: tuple[WeierstrassClass, ...]
    index: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def enumerate_invariant_submodules(module: F2GModule, index: int) -> list[Submodule]:
    """All Galois-invariant submodules of the given index, exhaustively.

    The spaces involved are tiny (dimension <= 5), so every subspace of
    the right dimension is tried once
    (:meth:`f2.GaloisModule.invariant_subspaces`).
    """
    if index < 1 or index & (index - 1):
        raise ValueError("index must be a power of 2")
    dim = module.dimension - index.bit_length() + 1
    if dim < 0:
        return []
    return [Submodule(basis=tuple(basis),
                      classes=tuple(module.element(b) for b in basis),
                      index=index)
            for basis in module.invariant_subspaces(dim)]


# -- the fixed-odd-class scan -------------------------------------------


def default_scan_rows() -> list[str]:
    """Names of the table rows fixing both theta0 and sqrt(ab), read off
    the field columns (note the quarter-turn row maps the fourth root of
    ab to i times itself, hence flips sqrt(ab) and is excluded)."""
    return [row.name for row in actions.load_rows()
            if not row.moves_root("theta0") and not row.moves_root("sqrtab")]


def fixed_odd_class_scan(rows: Iterable[str]) -> list[WeierstrassClass]:
    """Classes meeting {P1..P4} oddly that every element of the subgroup
    generated by the named rows fixes modulo the pullback kernel (and
    complementation); expected empty for ``default_scan_rows()``.

    The empty list is the trivial subgroup.  The candidates are the odd-P
    classes because those are the possible divisor-parity obstructions;
    invariance is tested modulo the kernel since the pullback kills it.
    They are the two lifts of each vector of ``pullback_image_module()``'s
    fixed subspace whose extension bit (bit 4, {P1,Q1}) is set.
    """
    module = pullback_image_module()
    fixed = [0]
    for vec in module.fixed_subspace(rows):
        fixed += [v ^ vec for v in fixed]
    return sorted(cls for v in fixed if v >> 4 & 1
                  for cls in (module.element(v), module.element(v) + pullback_kernel()))


def scan_report() -> dict:
    """The scan over ``default_scan_rows()`` with its audit trail: which
    rows were included and why."""
    subgroup = default_scan_rows()
    selection = []
    for row in actions.load_rows():
        reasons = [f"field column moves {root}"
                   for root in ("theta0", "sqrtab") if row.moves_root(root)]
        selection.append({
            "row": row.name,
            "included": row.name in subgroup,
            "reason": "; ".join(reasons) if reasons else "fixes theta0 and sqrt(ab)",
            "point_pairs": [list(pair) for pair in row.weier_pairs],
        })
    fixed = fixed_odd_class_scan(subgroup)
    return {
        "subgroup": selection,
        "candidates": sum(1 for c in jac2_group() if c.odd_p_part()),
        "fixed_classes": [str(c) for c in fixed],
    }


# -- transitivity of the point action -----------------------------------


def point_orbits(rows: Optional[Iterable[str]] = None) -> list[tuple[str, ...]]:
    """Orbits of the 8 points under the group generated by the named rows
    (default: the whole table)."""
    table = actions.rows_by_name()
    parent = {p: p for p in POINT_NAMES}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for name in table if rows is None else rows:
        if name not in table:
            raise ValueError(f"unknown Galois row {name!r}")
        for a, b in table[name].point_permutation().items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    orbits: dict[str, list[str]] = {}
    for p in POINT_NAMES:
        orbits.setdefault(find(p), []).append(p)
    return sorted(tuple(sorted(o)) for o in orbits.values())


def transitivity_check(rows: Optional[Iterable[str]] = None) -> bool:
    """True iff the group generated by the named rows (default: the whole
    table) is transitive on all 8 points.  With the shipped columns this is false: every row preserves
    the P-quartet and the Q-quartet (see point_orbits), so the action is
    transitive on each quartet but not on their union."""
    return len(point_orbits(rows)) == 1

"""The Galois action table: field automorphisms, class and point permutations.

Each row of the shipped ``galois_actions.json`` describes one generator of the
Galois group of the splitting field by three columns:

* ``field`` — the tower roots it moves, as ``name -> expression`` (forced
  companion moves included, e.g. flipping sqrt2 drags sqrt_m2p2r2 onto
  sqrt_m2m2r2);
* ``picard`` — the printed moves on the genus-1 fibre classes F1..F14; the
  companion classes follow by exchanging F and G on both sides of every move;
* ``weier`` — the induced permutation of the Weierstrass points, as 2-cycles.

Everything not listed is fixed.  :func:`tower_automorphism` turns the field
column into an automorphism of a concrete tower (``TowerAuto.validate``
checks it).  Subgroup membership is derived from it, not hard-coded:
``lattice.subfield_fixing_rows`` names the rows acting trivially on a
given subfield.  Everywhere else a subgroup is a list of row names.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import datafiles
from .towers import Tower, TowerAuto, TowerElem, tower_expr

CLASS_NAMES: tuple[str, ...] = tuple(f"F{i}" for i in range(1, 15)) + tuple(
    f"G{i}" for i in range(1, 15)
)
POINT_NAMES: tuple[str, ...] = ("P1", "P2", "P3", "P4", "Q1", "Q2", "Q3", "Q4")


def partner(name: str) -> str:
    """F_i <-> G_i."""
    if name[0] == "F":
        return "G" + name[1:]
    if name[0] == "G":
        return "F" + name[1:]
    raise ValueError(f"not a fibre class name: {name!r}")


class GaloisRow(NamedTuple):
    name: str
    field_map: Mapping[str, str]
    picard_moves: Mapping[str, str]
    weier_pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "GaloisRow":
        return cls(
            name=d["name"],
            field_map=MappingProxyType(dict(d["field"])),
            picard_moves=MappingProxyType(dict(d["picard"])),
            weier_pairs=tuple((a, b) for a, b in d["weier"]),
        )

    def moves_root(self, root: str) -> bool:
        return root in self.field_map

    def class_permutation(self) -> dict[str, str]:
        """The full permutation of the 28 fibre classes.

        The data file records printed moves only; every move F_i -> X forces
        the companion move G_i -> partner(X).
        """
        perm = {n: n for n in CLASS_NAMES}
        for src, dst in self.picard_moves.items():
            perm[src] = dst
            perm[partner(src)] = partner(dst)
        if sorted(perm.values()) != sorted(CLASS_NAMES):
            raise ValueError(f"row {self.name}: class moves do not form a permutation")
        return perm

    def point_permutation(self) -> dict[str, str]:
        perm = {p: p for p in POINT_NAMES}
        for a, b in self.weier_pairs:
            perm[a], perm[b] = b, a
        if sorted(perm.values()) != sorted(POINT_NAMES):
            raise ValueError(f"row {self.name}: point moves do not form a permutation")
        return perm


@lru_cache(maxsize=None)
def load_rows() -> tuple[GaloisRow, ...]:
    payload = datafiles.load("galois_actions.json", "galois-actions/1")
    rows = tuple(GaloisRow.from_dict(d) for d in payload["rows"])
    if len(rows) != 17:
        raise ArithmeticError(f"galois_actions.json has {len(rows)} rows, expected 17")
    return rows


def rows_by_name() -> dict[str, GaloisRow]:
    return {row.name: row for row in load_rows()}


def tower_automorphism(tower: Tower, row: GaloisRow) -> TowerAuto:
    """Realize a table row as an automorphism of ``tower``.

    Only the listed roots that are actual steps of the tower get non-identity
    images; image expressions may refer to any named element of the tower
    (derived roots included).  The images are not checked here: the result's
    ``validate`` checks the squares of all root images against the mapped
    radicands.
    """
    images: dict[str, TowerElem] = {}
    for step_name in tower.step_names():
        expr = row.field_map.get(step_name)
        if expr is not None:
            images[step_name] = tower_expr(tower, expr)
    return TowerAuto(tower, images, label=row.name)


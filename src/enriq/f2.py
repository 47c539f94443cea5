"""Tiny F2 linear algebra on bitmask vectors.

Vectors in F2^n are Python ints (bit i = coordinate i); addition is XOR.
Everything here is exact and deterministic; dimensions stay tiny (n <= 16),
so plain Gaussian elimination is all we need.  Linear maps of F2^k are
given by the images of the k unit vectors.

:class:`GaloisModule` is the one F2 Galois-module type of the package: a
span of basis vectors modulo a span of relations inside F2^n, with every
Galois row acting by an invertible matrix.  The lattice quotient
(``lattice.QuotientF2``) and the 2-torsion image
(``twotorsion.F2GModule``) are its two instances.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence


def echelon(vectors: Iterable[int]) -> list[int]:
    """Canonical reduced basis (descending leading bits) of the span.

    Each leading bit is set in its own basis vector only, so the result
    depends on the span alone, not on the order of the input.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            top = 1 << (v.bit_length() - 1)
            basis = sorted([b ^ v if b & top else b for b in basis] + [v], reverse=True)
    return basis


def rank(vectors: Iterable[int]) -> int:
    return len(echelon(vectors))


def in_span(vectors: Sequence[int], v: int) -> bool:
    return _in_echelon_span(echelon(vectors), v)


def _in_echelon_span(basis: Sequence[int], v: int) -> bool:
    """Is v in the span of ``basis``, an output of :func:`echelon`?"""
    for b in basis:
        v = min(v, v ^ b)
    return v == 0


def _reduce(pivots: Sequence[tuple[int, int]], vec: int, tag: int = 0) -> tuple[int, int]:
    """Clear the leading bit of every pivot from ``vec``, XOR-ing the
    pivots' tags into ``tag``; returns the remainder and the tag."""
    for pvec, ptag in pivots:
        if vec & (1 << (pvec.bit_length() - 1)):
            vec ^= pvec
            tag ^= ptag
    return vec, tag


def _eliminate(vectors: Iterable[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Tagged Gaussian elimination of the input vectors.

    Returns the pivots, pairs (vector, tag) with distinct leading bits in
    descending order, and the null tags.  A tag is the bitmask of the
    input positions whose XOR gives the vector (or, for a null tag, 0).
    """
    pivots: list[tuple[int, int]] = []
    null: list[int] = []
    for j, vec in enumerate(vectors):
        vec, tag = _reduce(pivots, vec, 1 << j)
        if vec:
            pivots.append((vec, tag))
            pivots.sort(reverse=True)
        else:
            null.append(tag)
    return pivots, null


def express(basis: Sequence[int], v: int) -> Optional[list[int]]:
    """Coefficients x with XOR_j x_j basis_j = v, or None if v not in span."""
    rest, tag = _reduce(_eliminate(basis)[0], v)
    return None if rest else [(tag >> j) & 1 for j in range(len(basis))]


def nullspace(images: Sequence[int]) -> list[int]:
    """Basis of {x : XOR over set bits j of x of images[j] == 0}.

    ``images`` lists the images of the domain basis vectors; the returned
    bitmasks live in the domain F2^len(images).
    """
    return _eliminate(images)[1]


def fixed_space(endos: Sequence[Sequence[int]], k: int) -> list[int]:
    """Echelon basis of the vectors of F2^k fixed by every endomorphism.

    Each endomorphism lists the images of the k unit vectors.  The fixed
    space is the nullspace of x -> ((A_m - 1) x)_m, the maps A_m - 1
    stacked side by side in disjoint k-bit fields.
    """
    if any(img >> k for endo in endos for img in endo):
        raise ValueError(f"endomorphism image outside F2^{k}")
    stacked = [
        sum((endo[j] ^ (1 << j)) << (m * k) for m, endo in enumerate(endos))
        for j in range(k)
    ]
    return echelon(nullspace(stacked))


def all_subspaces(n: int, dim: int) -> Iterator[list[int]]:
    """Every dim-dimensional subspace of F2^n, each exactly once.

    A subspace is produced as its reduced echelon basis (descending
    leading bits): choose the dim pivot bits, then every value of the
    non-pivot bits below each pivot.  That gives the Gaussian binomial
    [n dim]_2 subspaces in all.
    """
    for pivots in combinations(range(n - 1, -1, -1), dim):
        slots = [(i, j) for i, p in enumerate(pivots)
                 for j in range(p) if j not in pivots]
        for bits in product((0, 1), repeat=len(slots)):
            rows = [1 << p for p in pivots]
            for (i, j), bit in zip(slots, bits):
                rows[i] |= bit << j
            yield rows


class GaloisModule:
    """span(basis) modulo span(relations) inside F2^n, with a Galois action.

    Elements are coordinate bitmasks over the basis (bit i = coefficient of
    basis vector i).  ``images`` maps each row name to the ambient images
    of the basis vectors; each is reduced to coordinates once, here, and
    kept in ``actions``.  Raises ArithmeticError when the basis overlaps
    the relation span or a row does not act invertibly.
    """

    def __init__(self, basis: Sequence[int], relations: Sequence[int],
                 images: Mapping[str, Sequence[int]]):
        self.dimension = len(basis)
        self._pivots, null = _eliminate(list(basis) + list(relations))
        if null:
            raise ArithmeticError("module basis overlaps the relation span")
        self.actions: dict[str, tuple[int, ...]] = {}
        for name, imgs in images.items():
            coords = tuple(self._coordinates(m) for m in imgs)
            if rank(coords) != self.dimension:
                raise ArithmeticError(f"row {name} does not act invertibly")
            self.actions[name] = coords

    def _coordinates(self, mask: int) -> int:
        """Coordinates of an ambient vector of span(basis) + span(relations)."""
        rest, tag = _reduce(self._pivots, mask)
        if rest:
            raise ValueError(f"vector {mask:#x} lies outside the module")
        return tag & ((1 << self.dimension) - 1)

    def act(self, name: str, coord: int) -> int:
        out = 0
        for i, img in enumerate(self.actions[name]):
            if (coord >> i) & 1:
                out ^= img
        return out

    def fixed_subspace(self, names: Optional[Iterable[str]] = None) -> list[int]:
        """Echelon basis of the space fixed by every named row (default: all
        rows; no rows gives the whole space)."""
        names = list(self.actions) if names is None else list(names)
        unknown = [n for n in names if n not in self.actions]
        if unknown:
            raise ValueError(f"unknown Galois row {unknown[0]!r}")
        return fixed_space([self.actions[n] for n in names], self.dimension)

    def invariant_subspaces(self, dim: int) -> Iterator[list[int]]:
        """Echelon basis of every dim-dimensional subspace that every row
        maps into itself, in the order of :func:`all_subspaces`, whose
        bases are already reduced echelon bases."""
        for basis in all_subspaces(self.dimension, dim):
            if all(_in_echelon_span(basis, self.act(name, b))
                   for name in self.actions for b in basis):
                yield basis

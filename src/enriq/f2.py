"""Tiny F2 linear algebra on bitmask vectors.

Vectors in F2^n are Python ints (bit i = coordinate i); addition is XOR.
Everything here is exact and deterministic; dimensions stay tiny (n <= 16),
so plain Gaussian elimination is all we need.  Linear maps of F2^k are
given by the images of the k unit vectors.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence


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
    for b in echelon(vectors):
        v = min(v, v ^ b)
    return v == 0


def express(basis: Sequence[int], v: int, n: int) -> Optional[list[int]]:
    """Coefficients x with XOR_j x_j basis_j = v, or None if v not in span."""
    k = len(basis)
    rows = []
    for coord in range(n):
        row = 0
        for j, b in enumerate(basis):
            if (b >> coord) & 1:
                row |= 1 << j
        if (v >> coord) & 1:
            row |= 1 << k
        rows.append(row)
    piv: dict[int, int] = {}
    for row in rows:
        col = 0
        while col < k and row:
            if (row >> col) & 1:
                if col in piv:
                    row ^= piv[col]
                else:
                    piv[col] = row
                    row = 0
            col += 1
        if row:  # all unknowns eliminated but rhs bit remains: 0 = 1
            return None
    coeffs = [0] * k
    for col in sorted(piv, reverse=True):
        row = piv[col]
        val = (row >> k) & 1
        for c2 in range(col + 1, k):
            if (row >> c2) & 1:
                val ^= coeffs[c2]
        coeffs[col] = val
    acc = 0
    for j, b in enumerate(basis):
        if coeffs[j]:
            acc ^= b
    return coeffs if acc == v else None


def nullspace(images: Sequence[int]) -> list[int]:
    """Basis of {x : XOR over set bits j of x of images[j] == 0}.

    ``images`` lists the images of the domain basis vectors; the returned
    bitmasks live in the domain F2^len(images).
    """
    basis: list[tuple[int, int]] = []  # (image vector, domain tag)
    null: list[int] = []
    for j, vec in enumerate(images):
        tag = 1 << j
        for bvec, btag in basis:
            if vec == 0:
                break
            if vec & (1 << (bvec.bit_length() - 1)):
                vec ^= bvec
                tag ^= btag
        if vec == 0:
            null.append(tag)
        else:
            basis.append((vec, tag))
            basis.sort(key=lambda p: p[0], reverse=True)
    return null


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

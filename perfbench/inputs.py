"""Seeded input generators, one per workload.

Every generator is a pure function of its seed: it never imports ``enriq``
and the program only ever sees the items it returns.  Items are plain JSON
values, so the driver can hand them to a fresh interpreter on stdin.
"""

from __future__ import annotations

import itertools
import random

WITNESS = (12, 111, 13)

SCREEN_BOX = 2000
SCREEN_ITEMS = 250
RESIDUE_ITEMS = 200

#: Irreducible factors of degree <= 2 over Q, low-to-high coefficients:
#: first the linear ones, then quadratics that do not split over Q(sqrt 5)
#: either (discriminants 8, -4, 12, -3 and -8 are not squares there).
FACTORS = (
    (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
    (-2, 0, 1), (1, 0, 1), (-3, 0, 1), (1, 1, 1), (2, 0, 1),
)
LINEAR = range(7)
QUADRATIC = range(7, len(FACTORS))
#: Constants: rationals over Q; pairs (x, y) = x + y*sqrt5 over Q(sqrt 5).
CONSTANTS = {
    "Q": (1, -1, 2, -2, 3, -3, 5, -5, 6, 7),
    "Q(sqrt5)": ((1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0), (0, 1), (0, -1), (1, 1), (2, 1)),
}
#: Non-squares of each base, used to perturb the entry at infinity.
NON_SQUARES = {
    "Q": (-1, 2, -2, 3, -3, 6, 7),
    "Q(sqrt5)": (-1, 2, -2, 3, -3, 6, 7),
}


def nonsingular(a: int, b: int, c: int) -> bool:
    """The six nonsingularity factors of the surface, all nonzero."""
    return all((
        a * b * c,
        5 * a + 5 * b + c,
        20 * a + 5 * b + 2 * c,
        4 * a * a + b * b,
        c * c - 100 * a * b,
        c * c + 5 * b * c + 10 * a * c + 25 * a * b,
    ))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def witness(seed: int) -> list:
    """The published witness; the seed has nothing to vary."""
    return [list(WITNESS)]


def screen_sweep(seed: int, n: int = SCREEN_ITEMS) -> list:
    """Nonsingular triplets from [1, SCREEN_BOX]^3, stratified mod 3 and 5.

    Local solvability is cheap at a prime until the mod-p point search
    fails, and then a p^k survival grid decides the cost; at 3 and 5 that
    grid dominates.  Both depend only on (a, b, c) mod p, so item k takes
    the (k mod 125)-th residue class mod 5 (each twice) and the (k mod 27)-th
    class mod 3, and the seed draws everything else.  That keeps every
    draw's cost profile the same as the uniform one, and keeps seed-to-seed
    spread out of the median and tail.
    """
    rng = _rng("screen-sweep", seed)
    mod5 = list(itertools.product(range(5), repeat=3))
    mod3 = list(itertools.product(range(3), repeat=3))
    items = []
    for k in range(n):
        r5, r3 = mod5[k % len(mod5)], mod3[k % len(mod3)]
        while True:
            triplet = [_lift(r5[i], r3[i], rng) for i in range(3)]
            if nonsingular(*triplet):
                break
        items.append(triplet)
    rng.shuffle(items)
    return items


def _lift(r5: int, r3: int, rng: random.Random) -> int:
    """A random x in [1, SCREEN_BOX] with x = r5 mod 5 and x = r3 mod 3."""
    r15 = next(x for x in range(15) if x % 5 == r5 and x % 3 == r3)
    return r15 + 15 * rng.randrange(0 if r15 else 1, (SCREEN_BOX - r15) // 15 + 1)


def residue_calculus(seed: int, n: int = RESIDUE_ITEMS) -> list:
    """Random symbol sums over Q(t) or Q(sqrt 5)(t).

    The shape of item k is fixed by k: every fourth item is over
    Q(sqrt 5), two in eight (one per base) get their entry at infinity
    multiplied by a non-square, so they must come back obstructed, and the
    item holds 1, 2 or 3 symbols, each pairing a linear factor with a
    linear-times-quadratic one.  The seed draws the factors, constants,
    exponents and non-squares, so each draw has the same mix of costly
    parts (quadratic places, tower coefficients) as every other.
    """
    rng = _rng("residue-calculus", seed)
    items = []
    for k in range(n):
        base = "Q(sqrt5)" if k % 4 == 3 else "Q"
        symbols = [[_function(rng, base, quadratic=False), _function(rng, base, quadratic=True)]
                   for _ in range(1 + (k // 4) % 3)]
        items.append({
            "base": base,
            "symbols": [pair if rng.random() < 0.5 else pair[::-1] for pair in symbols],
            "perturb": rng.choice(NON_SQUARES[base]) if k % 8 in (0, 3) else None,
        })
    return items


def _function(rng: random.Random, base: str, quadratic: bool) -> dict:
    picks = [rng.choice(LINEAR)] + ([rng.choice(QUADRATIC)] if quadratic else [])
    return {
        "const": rng.choice(CONSTANTS[base]),
        "factors": [[i, rng.choice((1, -1))] for i in picks],
    }


GENERATORS = {
    "witness": witness,
    "screen-sweep": screen_sweep,
    "residue-calculus": residue_calculus,
}


def generate(workload: str, seed: int) -> list:
    if workload not in GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[workload](seed)

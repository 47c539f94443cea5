"""Iterated quadratic extension towers over Q with exact arithmetic.

A tower is an ordered list of steps; step ``i`` adjoins a square root of a
``radicand`` that must be an element of the tower built from steps
``0..i-1`` (a rational number in the simplest case).  Elements are finite
Q-linear combinations of square-free monomials in the adjoined roots,
stored as ``{frozenset_of_step_indices: rational}``.  A rational enters
through ``arith.rational`` and is an ``int`` when it is integral and a
``Fraction`` only otherwise, so sums and products of integers skip
``Fraction``'s gcd normalisation; ``3`` and ``Fraction(3)`` compare, hash
and print alike, so the choice never shows outside the kernel.

The interesting operations are ``is_square`` (a certified descent through
the levels, with an honest Unknown verdict past a recursion budget),
inversion by conjugate norms, and validated automorphisms given by images
of the roots.

Two certified filters run ahead of the descent at every level (see
``Tower.is_square`` for their exact conditions): a rational argument
inside the prefix of steps with rational radicands is decided by its
Kummer class, and ring maps of each level into F_{p^2} may certify that an
argument is not a square.  The descent stays the only source of a True
verdict for a non-rational argument.  The maps go to F_{p^2} rather than
F_p because the rational radicands alone cut the density of primes with a
map into F_p to 2^-r for r independent radicands (2^-8 for K(a, b, c)),
while every rational radicand has a square root in F_{p^2}.
"""

from __future__ import annotations

import ast
import json
import weakref
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, NamedTuple, Optional, Union

from .arith import MR_BOUND, RationalLike, factorize, is_prime, rational, rational_is_square, rational_sqrt
from .f2 import express

#: Default budget for nested norm-equation recursions inside is_square.
DEFAULT_SQUARE_DEPTH = 8

#: Ring maps into F_{p^2} that the non-residue sieve keeps per level.
SIEVE_MAPS = 8
#: The sieve scans primes p = 3 (mod 4) upwards from this one ...
SIEVE_START = 10007
#: ... and tries at most this many of them per tower.
SIEVE_SCAN = 1024


class DegenerateStepError(ArithmeticError):
    """Raised when arithmetic runs into a radicand that is itself a square."""


class SquareVerdict(NamedTuple):
    """Outcome of a square test: True / False are certified, None = unknown."""

    verdict: Optional[bool]
    witness: Optional["TowerElem"] = None

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("SquareVerdict is tri-valued; inspect .verdict")


class TowerStep:
    def __init__(self, name: str, radicand: "TowerElem"):
        self.name = name
        self.radicand = radicand

    def __repr__(self) -> str:
        return f"TowerStep({self.name!r}, sqrt of {self.radicand})"


class Tower:
    """A tower of successive quadratic extensions of Q."""

    def __init__(self, label: str = ""):
        self.label = label
        self.steps: list[TowerStep] = []
        #: name -> element; contains every root, plus derived named elements
        #: and witnesses of eliminated (degenerate) steps.
        self.named: dict[str, TowerElem] = {}
        #: names of steps that were requested but eliminated as degenerate,
        #: mapped to the witness square root of their radicand.
        self.degenerate: dict[str, TowerElem] = {}
        #: names of steps whose independence check came back Unknown.
        self.unverified: list[str] = []
        self._inv_radicand: dict[int, TowerElem] = {}
        self._mono_cache: dict[frozenset, "TowerElem"] = {}
        #: prefix towers whose elements lift into this one
        self._lift_ok: weakref.WeakSet[Tower] = weakref.WeakSet()
        #: Kummer data of the rational prefix: bit of each prime (bit 0 is
        #: the sign), one class vector per prefix step, and whether the
        #: prefix may still grow.
        self._kummer_bits: dict[int, int] = {}
        self._kummer_vecs: list[int] = []
        self._kummer_open = True
        #: sieve maps in prime order, the next prime to try, and the maps
        #: chosen for each level
        self._sieve_pool: list[_ResidueMap] = []
        self._sieve_next = SIEVE_START
        self._sieve_maps: dict[int, list[_ResidueMap]] = {}

    # -- construction -------------------------------------------------

    def zero(self) -> "TowerElem":
        return TowerElem(self, {})

    def one(self) -> "TowerElem":
        return self.rational(1)

    def rational(self, x: RationalLike) -> "TowerElem":
        x = rational(x)
        return TowerElem._of(self, {_RATIONAL: x} if x else {})

    def gen(self, name: str) -> "TowerElem":
        if name not in self.named:
            raise KeyError(f"tower {self.label!r} has no generator {name!r}")
        return self.named[name]

    def root(self, index: int) -> "TowerElem":
        return TowerElem._of(self, {frozenset([index]): 1})

    def define(self, name: str, value: "TowerElem") -> "TowerElem":
        """Attach a derived named element (e.g. a quotient of roots)."""
        if name in self.named:
            raise ValueError(f"name {name!r} already defined")
        self.named[name] = value
        return value

    def add_step(
        self,
        name: str,
        radicand: Union["TowerElem", RationalLike],
        *,
        depth: int = DEFAULT_SQUARE_DEPTH,
        on_degenerate: str = "eliminate",
    ) -> "TowerElem":
        """Adjoin sqrt(radicand); returns the named element for ``name``.

        The radicand is square-tested against the tower built so far.  A
        radicand that is already a square makes the step *degenerate*: with
        ``on_degenerate='eliminate'`` the step is skipped and ``name`` is
        bound to the witness root instead (recorded in ``self.degenerate``);
        with ``'error'`` a DegenerateStepError is raised.  An Unknown square
        verdict keeps the step but records it in ``self.unverified``.
        """
        if not isinstance(radicand, TowerElem):
            radicand = self.rational(radicand)
        if radicand.tower is not self:
            raise ValueError("radicand belongs to a different tower")
        if radicand.is_zero():
            raise ValueError(f"step {name!r} has zero radicand")
        sq = self.is_square(radicand, depth=depth)
        if sq.verdict is True:
            if on_degenerate == "error":
                raise DegenerateStepError(
                    f"step {name!r}: radicand {radicand} is already a square"
                )
            self.degenerate[name] = sq.witness
            self.named[name] = sq.witness
            return sq.witness
        if sq.verdict is None:
            self.unverified.append(name)
        idx = len(self.steps)
        self.steps.append(TowerStep(name, radicand))
        elem = self.root(idx)
        self.named[name] = elem
        return elem

    # -- arithmetic helpers (monomial products, inversion) -------------

    def _radicand_inverse(self, idx: int) -> "TowerElem":
        if idx not in self._inv_radicand:
            self._inv_radicand[idx] = self.steps[idx].radicand.inv()
        return self._inv_radicand[idx]

    def _mono_product(self, common: frozenset) -> "TowerElem":
        """Product of radicands over a set of step indices (cached)."""
        hit = self._mono_cache.get(common)
        if hit is None:
            hit = self.one()
            for i in sorted(common):
                hit = hit * self.steps[i].radicand
            self._mono_cache[common] = hit
        return hit

    # -- the square-test descent ---------------------------------------

    def is_square(self, z: "TowerElem", depth: int = DEFAULT_SQUARE_DEPTH) -> SquareVerdict:
        """Square test in the full tower; see _is_square_at for the descent.

        The ``depth`` budget bounds how many nested norm-equation recursions
        (the expensive mixed-term case) are attempted before giving up with
        an Unknown verdict.  Levels where the element has no mixed term are
        free and do not consume budget.

        Two filters run ahead of the descent at each level L:

        * Kummer classes.  While steps 0..L all have rational radicands
          d_i, a rational x is a square iff its square class (sign and
          prime parities) lies in the F2 span of the d_i's classes.  The
          radicands are factored once per tower, and only complete
          factorizations count; x is never factored: the radicands' primes
          are stripped from it and the cofactor must be a perfect square.
          The witness is q * prod_{i in S} root_i, the one the descent
          finds.
        * A non-residue sieve.  Level L keeps up to SIEVE_MAPS ring maps
          phi: K_L -> F_p[t]/(t^2 + 1) = F_{p^2}, p = 3 (mod 4), scanning
          primes upwards from SIEVE_START.  A map is kept only if every
          radicand d_i (i <= L) has p-integral coefficients, phi(d_i) != 0
          and phi(root_i)^2 == phi(d_i), checked exactly.  Then every step
          is etale at p, the local ring at ker(phi) is a DVR, and its
          residue field lies in F_{p^2}; so for z with p-integral
          coefficients, phi(z) != 0 and a non-square in F_{p^2} certifies
          that z is not a square.  The sieve never decides True, and it
          skips a rational z: phi(z) then lies in F_p, and every element of
          F_p is a square in F_{p^2}.

        A True verdict always carries a witness, which is squared and
        compared with ``z`` here; a mismatch raises ArithmeticError.
        """
        out = self._is_square_at(z, len(self.steps) - 1, depth)
        if out.verdict is True and out.witness * out.witness != z:
            raise ArithmeticError(f"square witness {out.witness} does not square to {z}")
        return out

    def _is_square_at(self, z: "TowerElem", lvl: int, depth: int) -> SquareVerdict:
        """Is z a square in the subfield generated by steps 0..lvl?

        Descends level by level: writing z = A + r*B at the top level with
        r = sqrt(d), either B = 0 (then z is a square iff A or A/d is a
        square one level down -- the root may still involve r) or B != 0
        (then norm considerations force (A^2 - d B^2) to be a square below,
        and the candidate root is reconstructed and verified exactly).
        """
        if z.is_zero():
            return SquareVerdict(True, self.zero())
        if lvl < 0:
            x = z.as_rational()
            if rational_is_square(x):
                return SquareVerdict(True, self.rational(rational_sqrt(x)))
            return SquareVerdict(False)
        if lvl < self._kummer_prefix() and z.is_rational():
            return self._kummer_square(z.as_rational(), lvl)
        if not z.is_rational() and any(
            phi.rules_out_square(z) for phi in self._residue_maps(lvl)
        ):
            return SquareVerdict(False)
        return self._descend_square(z, lvl, depth)

    def _kummer_prefix(self) -> int:
        """Number of leading steps whose rational radicands are classified.

        Factors each new rational radicand once; the prefix ends at the
        first radicand that is not rational, has a numerator or denominator
        beyond MR_BOUND (where factorize may stall on a large prime) or
        does not factor completely.
        """
        while self._kummer_open and len(self._kummer_vecs) < len(self.steps):
            d = self.steps[len(self._kummer_vecs)].radicand
            x = d.as_rational() if d.is_rational() else None
            if x is None or max(abs(x.numerator), x.denominator) >= MR_BOUND:
                self._kummer_open = False
                break
            vec = int(x < 0)
            for n in (abs(x.numerator), x.denominator):
                fz = factorize(n)
                if not fz.complete:
                    self._kummer_open = False
                    return len(self._kummer_vecs)
                for q, e in fz.factors.items():
                    bit = self._kummer_bits.setdefault(q, len(self._kummer_bits) + 1)
                    vec ^= (e & 1) << bit
            self._kummer_vecs.append(vec)
        return len(self._kummer_vecs)

    def _kummer_square(self, x: RationalLike, lvl: int) -> SquareVerdict:
        """Is the nonzero rational x a square in the field of steps 0..lvl,
        all of them with classified rational radicands?"""
        vec = int(x < 0)
        rest = []
        for n in (abs(x.numerator), x.denominator):
            for q, bit in self._kummer_bits.items():
                while n % q == 0:
                    n //= q
                    vec ^= 1 << bit
            rest.append(n)
        if not rational_is_square(Fraction(*rest)):
            return SquareVerdict(False)
        # add_step admits a radicand only when it is not a square below, so
        # the classes are independent and the solution is the one the
        # descent finds
        coeffs = express(self._kummer_vecs[: lvl + 1], vec)
        if coeffs is None:
            return SquareVerdict(False)
        mono = frozenset(i for i, bit in enumerate(coeffs) if bit)
        q = rational_sqrt(Fraction(x, self._mono_product(mono).as_rational()))
        return SquareVerdict(True, TowerElem(self, {mono: q}))

    def _residue_maps(self, lvl: int) -> list["_ResidueMap"]:
        """The sieve's maps for the field of steps 0..lvl: the first
        SIEVE_MAPS candidate primes whose map extends that far."""
        maps = self._sieve_maps.get(lvl)
        if maps is not None:
            return maps
        maps = []
        pool = self._sieve_pool
        for n in range(SIEVE_SCAN):
            if len(maps) == SIEVE_MAPS:
                break
            if n == len(pool):
                while self._sieve_next % 4 != 3 or not is_prime(self._sieve_next):
                    self._sieve_next += 1
                pool.append(_ResidueMap(self._sieve_next))
                self._sieve_next += 1
            phi = pool[n]
            while phi.alive and len(phi.images) <= lvl:
                phi.extend(self.steps[len(phi.images)].radicand)
            if len(phi.images) > lvl:
                maps.append(phi)
        self._sieve_maps[lvl] = maps
        return maps

    def _descend_square(self, z: "TowerElem", lvl: int, depth: int) -> SquareVerdict:
        a, b = z.split(lvl)
        d = self.steps[lvl].radicand
        root = self.root(lvl)
        if b.is_zero():
            # z = x^2 with either x below this level or x = root * (something below)
            first = self._is_square_at(a, lvl - 1, depth)
            if first.verdict is True:
                return first
            second = self._is_square_at(
                a * self._radicand_inverse(lvl), lvl - 1, depth
            )
            if second.verdict is True:
                return SquareVerdict(True, root * second.witness)
            if first.verdict is None or second.verdict is None:
                return SquareVerdict(None)
            return SquareVerdict(False)
        # mixed case: z = (p + root*q)^2 forces (p^2 - d q^2)^2 = a^2 - d b^2
        if depth <= 0:
            return SquareVerdict(None)
        norm = a * a - d * b * b
        nsq = self._is_square_at(norm, lvl - 1, depth - 1)
        if nsq.verdict is False:
            return SquareVerdict(False)
        if nsq.verdict is None:
            return SquareVerdict(None)
        m = nsq.witness
        half = self.rational(Fraction(1, 2))
        unknown = False
        for sgn in (1, -1):
            cand = (a + m * self.rational(sgn)) * half  # candidate p^2
            psq = self._is_square_at(cand, lvl - 1, depth - 1)
            if psq.verdict is None:
                unknown = True
                continue
            if psq.verdict is False or psq.witness.is_zero():
                continue
            p = psq.witness
            q = b * (p + p).inv()
            x = p + root * q
            if x * x == z:
                return SquareVerdict(True, x)
        return SquareVerdict(None) if unknown else SquareVerdict(False)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "quad-tower/1",
            "label": self.label,
            "steps": [
                {"name": s.name, "radicand": s.radicand.to_dict()} for s in self.steps
            ],
            "degenerate": {k: v.to_dict() for k, v in self.degenerate.items()},
            "derived": {
                k: v.to_dict()
                for k, v in self.named.items()
                if k not in self.degenerate
                and not any(s.name == k for s in self.steps)
            },
            "unverified": list(self.unverified),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Tower":
        if data.get("format") != "quad-tower/1":
            raise ValueError(f"unsupported tower format {data.get('format')!r}")
        tw = cls(data.get("label", ""))
        for step in data["steps"]:
            rad = TowerElem.from_dict(tw, step["radicand"])
            idx = len(tw.steps)
            tw.steps.append(TowerStep(step["name"], rad))
            tw.named[step["name"]] = tw.root(idx)
        for name, v in data.get("degenerate", {}).items():
            tw.degenerate[name] = TowerElem.from_dict(tw, v)
            tw.named[name] = tw.degenerate[name]
        for name, v in data.get("derived", {}).items():
            tw.named[name] = TowerElem.from_dict(tw, v)
        tw.unverified = list(data.get("unverified", []))
        return tw

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Tower":
        return cls.from_dict(json.loads(text))

    def step_names(self) -> list[str]:
        return [s.name for s in self.steps]

    def degree(self) -> int:
        return 2 ** len(self.steps)

    # -- extension ------------------------------------------------------

    def extend(
        self,
        name: str,
        radicand: Union["TowerElem", RationalLike],
        *,
        depth: int = DEFAULT_SQUARE_DEPTH,
        label: Optional[str] = None,
    ) -> "Tower":
        """Return a new tower: this one's steps plus sqrt(radicand) on top.

        ``self`` is left untouched; its elements transplant into the result
        via :meth:`lift`.  A radicand that is already a square raises
        DegenerateStepError (callers are expected to have established
        non-squareness, e.g. via an irreducibility check).
        """
        new = Tower.from_dict(self.to_dict())
        new.label = label if label is not None else f"{self.label}+{name}"
        if isinstance(radicand, TowerElem):
            if radicand.tower is not self:
                raise ValueError("radicand belongs to a different tower")
            radicand = TowerElem(new, radicand.coeffs)
        new.add_step(name, radicand, depth=depth, on_degenerate="error")
        new._lift_ok.add(self)
        return new

    def lift(self, elem: "TowerElem") -> "TowerElem":
        """Transplant an element of a prefix tower into this tower."""
        src = elem.tower
        if src is self:
            return elem
        if src not in self._lift_ok:
            if len(src.steps) > len(self.steps):
                raise ValueError("element's tower is not a prefix of this one")
            for mine, theirs in zip(self.steps, src.steps):
                if (
                    mine.name != theirs.name
                    or mine.radicand.coeffs != theirs.radicand.coeffs
                ):
                    raise ValueError(
                        "element's tower is not a prefix of this one"
                    )
            self._lift_ok.add(src)
        return TowerElem(self, elem.coeffs)

    def __repr__(self) -> str:
        return f"Tower({self.label!r}, steps={self.step_names()})"


def _fp2_mul(x: tuple[int, int], y: tuple[int, int], p: int) -> tuple[int, int]:
    """Product in F_p[t]/(t^2 + 1); elements are pairs (a, b) = a + b t."""
    return (x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def _fp2_sqrt(x: tuple[int, int], p: int) -> Optional[tuple[int, int]]:
    """A square root of x in F_p[t]/(t^2 + 1) for p = 3 (mod 4), or None.

    Solves u^2 - v^2 = a, 2uv = b for x = a + b t.  Callers check the
    result by squaring it.
    """
    a, b = x
    e = (p + 1) // 4
    if b == 0:
        r = pow(a, e, p)
        return (r, 0) if r * r % p == a else (0, pow(-a % p, e, p))
    n = pow((a * a + b * b) % p, e, p)  # square root of the norm, if any
    for u2 in ((a + n) * (p + 1) // 2 % p, (a - n) * (p + 1) // 2 % p):
        u = pow(u2, e, p)
        if u and u * u % p == u2:
            return u, b * pow(2 * u, -1, p) % p
    return None


class _ResidueMap:
    """A ring map from the first steps of a tower to F_p[t]/(t^2 + 1).

    ``images[i]`` is the image of root i.  A step is taken on only when its
    radicand has p-integral coefficients and a nonzero image whose square
    root, checked by squaring, becomes the root's image; the first step
    that fails stops the map for good (steps never change).
    """

    __slots__ = ("p", "images", "alive", "_monos")

    def __init__(self, p: int):
        self.p = p
        self.images: list[tuple[int, int]] = []
        self.alive = True
        self._monos: dict[frozenset, tuple[int, int]] = {}

    def __call__(self, z: "TowerElem") -> Optional[tuple[int, int]]:
        """phi(z), or None when a coefficient of z is not p-integral."""
        p = self.p
        re = im = 0
        for mono, c in z.coeffs.items():
            den = c.denominator % p
            if not den:
                return None
            img = self._monos.get(mono)
            if img is None:
                img = (1, 0)
                for i in mono:
                    img = _fp2_mul(img, self.images[i], p)
                self._monos[mono] = img
            k = c.numerator * pow(den, -1, p)
            re += k * img[0]
            im += k * img[1]
        return re % p, im % p

    def extend(self, radicand: "TowerElem") -> None:
        d = self(radicand)
        root = None if d is None or d == (0, 0) else _fp2_sqrt(d, self.p)
        if root is None or _fp2_mul(root, root, self.p) != d:
            self.alive = False
        else:
            self.images.append(root)

    def rules_out_square(self, z: "TowerElem") -> bool:
        """True when phi(z) is a nonzero non-square of F_{p^2}; z must be
        an element of the field this map is defined on.

        x = a + b t is a square in F_{p^2} iff its norm a^2 + b^2 is a
        square in F_p, as the norm map onto F_p^* is surjective.
        """
        img = self(z)
        if img is None or img == (0, 0):
            return False
        a, b = img
        return pow(a * a + b * b, (self.p - 1) // 2, self.p) != 1


#: The empty monomial: the key of an element's rational part.
_RATIONAL = frozenset()


def _add_term(out: dict, tower: Tower, s: frozenset, t: frozenset, c: RationalLike) -> None:
    """Add c * root^s * root^t into ``out``, where root^(s & t) squared is
    the cached radicand product; its monomials may meet s ^ t in turn.
    Keys whose sums cancel are left for ``_settled``."""
    sym = s ^ t
    for u, r in tower._mono_product(s & t).coeffs.items():
        if u & sym:
            _add_term(out, tower, u, sym, r * c)
        else:
            v = out.get(m := u | sym)
            out[m] = r * c if v is None else v + r * c


def _settled(tower: Tower, out: dict) -> "TowerElem":
    """Wrap ``out`` as an element: drop the keys whose sums cancelled and
    turn integral Fractions back into ints."""
    return TowerElem._of(tower, {m: rational(v) for m, v in out.items() if v})


class TowerElem:
    """An element of a Tower; immutable in practice.

    ``coeffs`` maps a frozenset of step indices (the monomial prod root_i)
    to a nonzero rational in ``arith.rational``'s canonical form: an int when
    integral, else a Fraction; no key carries a zero.  The ring kernels
    keep that invariant while filling one result dict each, and reduce
    every root_i^2 to the radicand d_i through ``Tower._mono_product``.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Tower, coeffs: Mapping[frozenset, RationalLike]):
        self.tower = tower
        self.coeffs = {k: q for k, v in coeffs.items() if (q := rational(v))}

    @classmethod
    def _of(cls, tower: Tower, coeffs: dict) -> "TowerElem":
        """Wrap a dict that already holds the invariant, without a copy."""
        elem = object.__new__(cls)
        elem.tower = tower
        elem.coeffs = coeffs
        return elem

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return not self.coeffs or (len(self.coeffs) == 1 and _RATIONAL in self.coeffs)

    def as_rational(self) -> RationalLike:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.coeffs.get(_RATIONAL, 0)

    def top_index(self) -> int:
        """Largest step index appearing in any monomial; -1 for rationals."""
        top = -1
        for mono in self.coeffs:
            if mono:
                top = max(top, max(mono))
        return top

    def split(self, idx: int) -> tuple["TowerElem", "TowerElem"]:
        """Write self = A + root_idx * B; returns (A, B)."""
        a, b = {}, {}
        for mono, c in self.coeffs.items():
            if idx in mono:
                b[mono - {idx}] = c
            else:
                a[mono] = c
        return TowerElem._of(self.tower, a), TowerElem._of(self.tower, b)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "TowerElem":
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            return other
        return self.tower.rational(other)

    def _plus(self, terms) -> "TowerElem":
        out = dict(self.coeffs)
        for mono, c in terms:
            v = out.get(mono)
            v = c if v is None else v + c
            if v:
                out[mono] = rational(v)
            else:
                del out[mono]
        return TowerElem._of(self.tower, out)

    def __add__(self, other) -> "TowerElem":
        return self._plus(self._coerce(other).coeffs.items())

    __radd__ = __add__

    def __neg__(self) -> "TowerElem":
        return TowerElem._of(self.tower, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "TowerElem":
        return self._plus((k, -v) for k, v in self._coerce(other).coeffs.items())

    def __rsub__(self, other) -> "TowerElem":
        return self._coerce(other) - self

    def _scaled(self, x: RationalLike) -> "TowerElem":
        if not x:
            return self.tower.zero()
        return _settled(self.tower, {k: v * x for k, v in self.coeffs.items()})

    def __mul__(self, other) -> "TowerElem":
        if not isinstance(other, TowerElem):
            return self._scaled(rational(other))
        other = self._coerce(other)
        if other.is_rational():
            return self._scaled(other.coeffs.get(_RATIONAL, 0))
        if self.is_rational():
            return other._scaled(self.coeffs.get(_RATIONAL, 0))
        tower = self.tower
        out: dict[frozenset, RationalLike] = {}
        for s, cs in self.coeffs.items():
            for t, ct in other.coeffs.items():
                if s & t:
                    _add_term(out, tower, s, t, cs * ct)
                else:
                    v = out.get(m := s | t)
                    out[m] = cs * ct if v is None else v + cs * ct
        return _settled(tower, out)

    __rmul__ = __mul__

    def inv(self) -> "TowerElem":
        if self.is_zero():
            raise ZeroDivisionError("tower element is zero")
        lvl = self.top_index()
        if lvl < 0:
            return self.tower.rational(Fraction(1, self.as_rational()))
        a, b = self.split(lvl)
        if b.is_zero():
            return a.inv()
        d = self.tower.steps[lvl].radicand
        conj = a - self.tower.root(lvl) * b
        norm = a * a - d * b * b
        if norm.is_zero():
            raise DegenerateStepError(
                f"norm vanished at level {lvl}; radicand is a square"
            )
        return conj * norm.inv()

    def __truediv__(self, other) -> "TowerElem":
        return self * self._coerce(other).inv()

    def __pow__(self, n: int) -> "TowerElem":
        if n < 0:
            return self.inv() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, TowerElem):
            return NotImplemented
        return self.tower is other.tower and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((id(self.tower), frozenset(self.coeffs.items())))

    # -- io ------------------------------------------------------------

    def _mono_name(self, mono: frozenset) -> str:
        if not mono:
            return "1"
        return "*".join(self.tower.steps[i].name for i in sorted(mono))

    def to_dict(self) -> dict:
        return {self._mono_name(m): str(c) for m, c in sorted(
            self.coeffs.items(), key=lambda kv: sorted(kv[0])
        )}

    @staticmethod
    def from_dict(tower: Tower, data: Mapping[str, str]) -> "TowerElem":
        name_to_idx = {s.name: i for i, s in enumerate(tower.steps)}
        coeffs = {}
        for key, val in data.items():
            if key == "1":
                mono = frozenset()
            else:
                mono = frozenset(name_to_idx[part] for part in key.split("*"))
            coeffs[mono] = Fraction(val)
        return TowerElem(tower, coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono, c in sorted(self.coeffs.items(), key=lambda kv: sorted(kv[0])):
            name = self._mono_name(mono)
            parts.append(f"{c}" if name == "1" else f"{c}*{name}")
        return " + ".join(parts)

    __repr__ = __str__


class TowerAuto:
    """A field automorphism of a tower, given by images of the roots.

    Construction does not check the images; ``validate`` checks, for every
    step, that the proposed image of the root squares to the image of the
    radicand.  Images default to the root itself, so only the moved
    generators need to be listed.
    """

    def __init__(self, tower: Tower, images: Mapping[str, TowerElem], label: str = ""):
        self.tower = tower
        self.label = label
        self.root_images: list[TowerElem] = [
            images.get(step.name, tower.root(i)) for i, step in enumerate(tower.steps)
        ]
        # root i is fixed or negated when its image is +1 or -1 times root i
        signs = [img.coeffs.get(frozenset([i])) if len(img.coeffs) == 1 else None
                 for i, img in enumerate(self.root_images)]
        self._negated = frozenset(i for i, s in enumerate(signs) if s == -1)
        self._moved = frozenset(i for i, s in enumerate(signs) if s not in (1, -1))
        self._mono_cache: dict[frozenset, TowerElem] = {}

    def validate(self) -> None:
        for i, step in enumerate(self.tower.steps):
            img = self.root_images[i]
            should = self.apply(step.radicand)
            if not img * img == should:
                raise ValueError(
                    f"automorphism {self.label!r}: image of root {step.name!r} "
                    f"squares to {img * img}, expected {should}"
                )

    def apply(self, z: TowerElem) -> TowerElem:
        """The image of z: sum of c * image(root^mono) over z's monomials.

        Each root is fixed, negated or moved (any other image).  A
        monomial's image is (-1)^(its negated roots) times the image of its
        moved part, a product of root images cached by the moved subset,
        times the rest of the monomial; all terms go into one dict.
        """
        tower = self.tower
        out: dict[frozenset, RationalLike] = {}
        for mono, c in z.coeffs.items():
            if len(mono & self._negated) & 1:
                c = -c
            moved = mono & self._moved
            if not moved:
                v = out.get(mono)
                out[mono] = c if v is None else v + c
                continue
            img = self._mono_cache.get(moved)
            if img is None:
                img = self._mono_cache[moved] = prod(self.root_images[i] for i in sorted(moved))
            rest = mono - moved
            for m, x in img.coeffs.items():
                if m & rest:
                    _add_term(out, tower, m, rest, x * c)
                else:
                    v = out.get(m := m | rest)
                    out[m] = x * c if v is None else v + x * c
        return _settled(tower, out)

    def __call__(self, z: TowerElem) -> TowerElem:
        return self.apply(z)


# -- small expression language for the data files ----------------------


_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
)


def parse_element(
    text: str,
    lookup: Callable[[str], TowerElem],
    rational: Callable[[RationalLike], TowerElem],
):
    """Evaluate an arithmetic expression over named tower elements.

    Supports + - * / ** (integer exponents), unary minus, integer
    literals, and bare names resolved through ``lookup``.
    """
    tree = ast.parse(text, mode="eval")

    def run(node):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"unsupported syntax in {text!r}: {ast.dump(node)}")
        if isinstance(node, ast.Expression):
            return run(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return rational(node.value)
            raise ValueError(f"only integer literals allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            return lookup(node.id)
        if isinstance(node, ast.UnaryOp):
            val = run(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        if isinstance(node, ast.BinOp):
            lhs, rhs = run(node.left), run(node.right)
            if isinstance(node.op, ast.Add):
                return lhs + rhs
            if isinstance(node.op, ast.Sub):
                return lhs - rhs
            if isinstance(node.op, ast.Mult):
                return lhs * rhs
            if isinstance(node.op, ast.Div):
                return lhs / rhs
            if isinstance(node.op, ast.Pow):
                if not isinstance(node.right, ast.Constant) or not isinstance(
                    node.right.value, int
                ):
                    raise ValueError("exponent must be an integer literal")
                return lhs ** node.right.value
        raise ValueError(f"unsupported syntax in {text!r}")

    return run(tree)


def tower_expr(tower: Tower, text: str, env: Optional[Mapping[str, TowerElem]] = None) -> TowerElem:
    env = env or {}

    def lookup(name: str) -> TowerElem:
        if name in env:
            return env[name]
        return tower.gen(name)

    return parse_element(text, lookup, tower.rational)

"""Exact integer and rational arithmetic helpers.

Everything here is deterministic and certified: primality is proven (for
inputs below a hard bound), factorizations either complete or carry an
explicit ``incomplete`` marker with the unfactored cofactor, and the local
symbols are computed by closed formulas rather than floating point.

``arith`` owns Q's canonical form: ``rational(x)`` is an int when x is
integral, else a Fraction, and a float, a string or a Decimal raises
TypeError.  It is the one way a rational enters a kernel.

Primality is proven in one of three ways.  A number up to SMALL_TRIAL is
looked up in the sieved table of the primes up to SMALL_TRIAL.  A number
whose prime factors up to SMALL_TRIAL have all been divided out, and which
is below TRIAL_PROOF_BOUND, the square of the least prime above
SMALL_TRIAL, is 1 or prime: a composite has a prime factor at most its
square root, which would be below that least prime and so in the table.
Anything else below MR_BOUND goes through Miller-Rabin on bases that are
proven sufficient there.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Union

#: A rational: an int or a Fraction (``rational`` gives its canonical form).
RationalLike = Union[int, Fraction]

#: Distinguished value naming the archimedean place of Q.
REAL = "real"

#: Strong-pseudoprime bases certifying primality for n < MR_BOUND (Jaeschke).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)
MR_BOUND = 341_550_071_728_321

#: Trial division runs to SMALL_TRIAL first; what is left below MR_BOUND
#: goes to rho, and trial division continues to TRIAL_LIMIT only when rho
#: does not split it completely.
SMALL_TRIAL = 10**3
TRIAL_LIMIT = 10**6

#: Iterations one rho call may spend over all its parameters before giving
#: up: rho finds a factor below about 10^9 well within it, and a prime
#: above MR_BOUND costs this much instead of about sqrt(n) per parameter.
RHO_STEPS = 1 << 17


def rational(x: RationalLike) -> RationalLike:
    """x in canonical form: an int when integral, else a Fraction.

    Only ints (bools too) and Fractions are rationals here; a float, a
    string or a Decimal raises TypeError rather than entering as some
    nearby fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"{x!r} is not a rational number")


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, prime in enumerate(sieve) if prime]


#: The primes up to SMALL_TRIAL: the trial divisors of ``factorize`` and
#: the primality table of ``is_prime`` up to SMALL_TRIAL.
_SMALL_PRIMES = tuple(primes_up_to(SMALL_TRIAL))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

#: A number below this bound with no prime factor up to SMALL_TRIAL is 1
#: or prime.  The bound is the square of the least prime above SMALL_TRIAL:
#: the least number above SMALL_TRIAL that no prime in the table divides,
#: which is prime because it is below SMALL_TRIAL**2.
TRIAL_PROOF_BOUND = next(
    m for m in itertools.count(SMALL_TRIAL + 1) if all(m % p for p in _SMALL_PRIMES)
) ** 2


def is_prime(n: int) -> bool:
    """Certified primality for n < MR_BOUND; raises beyond the bound.

    Up to SMALL_TRIAL the answer is a lookup in the sieved table; above
    it, Miller-Rabin on bases proven sufficient below MR_BOUND.
    """
    if n <= SMALL_TRIAL:
        return n in _SMALL_PRIME_SET
    if n >= MR_BOUND:
        raise ValueError(
            f"is_prime is only certified below {MR_BOUND}; got {n}"
        )
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_brent(n: int) -> int:
    """Brent's cycle variant of Pollard rho; deterministic parameter sweep.

    Returns a nontrivial factor of composite odd n, or n itself on failure
    or once RHO_STEPS iterations are spent.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEPS:
                return n
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return n


class Factorization:
    """Multiset of prime factors plus an explicit honesty marker.

    ``factors`` maps certified primes to exponents.  If the input could not
    be fully factored with certified primality, ``cofactor`` holds the
    remaining (composite or uncertified) part and ``complete`` is False.
    """

    __slots__ = ("n", "factors", "cofactor")

    def __init__(self, n: int, factors: Optional[dict[int, int]] = None, cofactor: int = 1):
        self.n = n
        self.factors = {} if factors is None else factors
        self.cofactor = cofactor

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.factors, self.cofactor) == (other.n, other.factors, other.cofactor)

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def product(self) -> int:
        out = self.cofactor
        for p, e in self.factors.items():
            out *= p**e
        return out

    def primes(self) -> list[int]:
        return sorted(self.factors)

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(self.factors.items())]
        if not self.complete:
            parts.append(f"[unfactored {self.cofactor}]")
        return " * ".join(parts) if parts else "1"


def _trial_divide(fz: Factorization, m: int, divisors: Iterable[int]) -> int:
    """Move the ``divisors`` (increasing) that divide m into fz, stopping
    once one exceeds the square root of what is left; returns the rest."""
    for p in divisors:
        if p * p > m:
            break
        while m % p == 0:
            fz.factors[p] = fz.factors.get(p, 0) + 1
            m //= p
    return m


def _split(m: int) -> Factorization:
    """Brent rho on m and its parts, with no trial division; a part that
    cannot be certified prime and that rho does not split is the cofactor."""
    fz = Factorization(m)
    stack = [m] if m > 1 else []
    while stack:
        q = stack.pop()
        if q < MR_BOUND and is_prime(q):
            fz.factors[q] = fz.factors.get(q, 0) + 1
            continue
        # a certified composite, or too large to certify: peel a factor
        d = _rho_brent(q)
        if 1 < d < q:
            stack.extend([d, q // d])
        else:
            fz.cofactor *= q  # rho stalled or ran out of steps
    return fz


def _exact_root(m: int) -> tuple[int, int]:
    """(b, k) with m = b**k and k as large as possible, for m > 1 with no
    prime factor up to SMALL_TRIAL: then b > SMALL_TRIAL >= 2**9, which
    bounds k by bit_length(m) / 9."""
    for k in range(m.bit_length() // (SMALL_TRIAL.bit_length() - 1), 1, -1):
        b = _integer_root(m, k)
        if b**k == m:
            return b, k
    return m, 1


def _integer_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) by Newton's method from above."""
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _factor_rest(m: int) -> Factorization:
    """Factor m, which has no prime factor up to SMALL_TRIAL: Brent rho if
    it is below MR_BOUND; above it, or if rho leaves part of it unsplit,
    trial division to TRIAL_LIMIT and then rho on what is left."""
    if m < MR_BOUND:
        rest = _split(m)
        if rest.complete:
            return rest
    fz = Factorization(m)
    rest = _split(_trial_divide(fz, m, range(SMALL_TRIAL + 1, TRIAL_LIMIT + 1)))
    for q, e in rest.factors.items():
        fz.factors[q] = fz.factors.get(q, 0) + e
    fz.cofactor = rest.cofactor
    return fz


def factorize(n: int) -> Factorization:
    """Factor a positive integer; never guesses.

    Trial division by the primes up to SMALL_TRIAL comes first.  A rest
    below TRIAL_PROOF_BOUND is then 1 or prime by the division alone: a
    composite rest would have a prime factor at most its square root, below
    the least prime above SMALL_TRIAL, which the division would have taken
    out.  A larger rest goes to ``_factor_rest``; if it is at or above
    MR_BOUND and an exact power b**k, it is factored through b, which is
    often below MR_BOUND and so goes to rho instead of trial division to
    TRIAL_LIMIT.  Any part that cannot be certified prime (too large for
    is_prime, or rho stalls) is reported in ``cofactor`` instead of being
    mislabelled.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    fz = Factorization(n)
    m = _trial_divide(fz, n, _SMALL_PRIMES)
    if m < TRIAL_PROOF_BOUND:
        if m > 1:
            fz.factors[m] = 1
        return fz
    base, k = _exact_root(m) if m >= MR_BOUND else (m, 1)
    rest = _factor_rest(base)
    for q, e in rest.factors.items():
        fz.factors[q] = fz.factors.get(q, 0) + e * k
    fz.cofactor = rest.cofactor**k
    return fz


def prime_divisors(n: int) -> list[int]:
    """Sorted prime divisors of |n|; raises if the factorization is incomplete."""
    if n == 0:
        raise ValueError("0 has no prime divisor list")
    fz = factorize(abs(n))
    if not fz.complete:
        raise ValueError(f"could not completely factor {n}: {fz}")
    return fz.primes()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    return euler_criterion(a, p)


def euler_criterion(a: int, p: int) -> int:
    """(a/p) as a^((p-1)/2) mod p, for an odd prime p the caller has
    certified (legendre, or a divisor from prime_divisors)."""
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _square_free_parts(x: RationalLike) -> tuple[int, int]:
    """Return (sign, |num*den|) -- an integer representative of x mod squares."""
    n = x.numerator * x.denominator
    if n == 0:
        raise ValueError("square class of 0 is undefined")
    return (1 if n > 0 else -1), abs(n)


def _padic_split(n: int, p: int) -> tuple[int, int]:
    """n = p^v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(x: RationalLike, y: RationalLike, place) -> int:
    """Hilbert symbol (x, y) at a finite prime or at REAL; values +-1.

    (x, y) = 1 iff z^2 = x u^2 + y v^2 has a nontrivial solution over the
    completion at ``place``.
    """
    sx, ax = _square_free_parts(x)
    sy, ay = _square_free_parts(y)
    if place == REAL:
        return -1 if (sx < 0 and sy < 0) else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"hilbert_symbol place must be a prime or REAL, got {place!r}")
    a_int, b_int = sx * ax, sy * ay
    alpha, u = _padic_split(a_int, p)
    beta, v = _padic_split(b_int, p)
    if p == 2:
        def eps(w: int) -> int:
            return ((w % 8) - 1) // 2 % 2  # (w-1)/2 mod 2 for odd w

        def omega(w: int) -> int:
            return (w * w - 1) // 8 % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    e = ((p - 1) // 2) * alpha * beta
    sign = -1 if e % 2 else 1
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def qp_is_square(x: RationalLike, place) -> bool:
    """Is x a square in the completion of Q at ``place`` (prime or REAL)?"""
    sx, ax = _square_free_parts(x)
    if place == REAL:
        return sx > 0
    p = place
    v, u = _padic_split(sx * ax, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def is_anisotropic_diag4(coeffs: Iterable[RationalLike], place) -> bool:
    """Does the diagonal quadratic form <d1, d2, d3, d4> omit zero over Q_place?

    A nondegenerate rank-4 form over a p-adic field is anisotropic exactly
    when its discriminant is a square and its Hasse invariant is the
    negative of (-1, -1) at that place.
    """
    d = list(coeffs)
    if len(d) != 4 or any(c == 0 for c in d):
        raise ValueError("need four nonzero coefficients")
    if place == REAL:
        return all(c > 0 for c in d) or all(c < 0 for c in d)
    disc = d[0] * d[1] * d[2] * d[3]
    if not qp_is_square(disc, place):
        return False
    hasse = 1
    for i in range(4):
        for j in range(i + 1, 4):
            hasse *= hilbert_symbol(d[i], d[j], place)
    return hasse == -hilbert_symbol(-1, -1, place)


def rational_is_square(x: RationalLike) -> bool:
    """Is the rational x (see ``rational``) the square of a rational?"""
    x = rational(x)
    if x < 0:
        return False
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def rational_sqrt(x: RationalLike) -> RationalLike:
    """Exact square root of a rational square, in ``rational``'s canonical
    form; raises otherwise."""
    if not rational_is_square(x):
        raise ValueError(f"{x} is not a rational square")
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return rn if rd == 1 else Fraction(rn, rd)

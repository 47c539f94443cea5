"""Local-symbol arithmetic against brute-force modular oracles.

The closed-form Hilbert symbol / anisotropy routines are checked against
primitive-solution counts modulo p^3 (odd p) and 32 (p = 2).  For forms
whose coefficients have p-valuation <= 1, a primitive zero modulo those
powers lifts to Z_p by Hensel's lemma and, conversely, any Z_p zero scales
to a primitive one, so the counting oracle decides solvability exactly on
the inputs used here (which all keep valuations <= 1).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from enriq import arith


def _square_counts(m: int) -> np.ndarray:
    w = np.arange(m, dtype=np.int64)
    return np.bincount((w * w) % m, minlength=m)


def brute_hilbert(x: int, y: int, p: int) -> int:
    """+1 iff z^2 = x u^2 + y v^2 has a primitive solution mod p^3 / 32."""
    m = 32 if p == 2 else p**3
    sq = _square_counts(m)
    a = np.arange(m, dtype=np.int64)
    target = (x * a[:, None] + y * a[None, :]) % m
    total = int((sq[:, None] * sq[None, :] * sq[target]).sum())
    # solutions with every coordinate divisible by p: scale out p, drop two
    # powers of p from the congruence, and count lifts
    mp = 8 if p == 2 else p
    core = sum(
        1
        for u, v, z in itertools.product(range(mp), repeat=3)
        if (z * z - x * u * u - y * v * v) % mp == 0
    )
    non_primitive = (8 if p == 2 else p**3) * core
    return 1 if total > non_primitive else -1


def brute_isotropic(coeffs, p: int) -> bool:
    """Primitive zero count of <d1,d2,d3,d4> mod p^3 / 32, via convolution."""
    m = 32 if p == 2 else p**3
    sq = _square_counts(m).astype(np.int64)
    a = np.arange(m, dtype=np.int64)

    def value_counts(d: int) -> np.ndarray:
        return np.bincount((d * a) % m, weights=sq, minlength=m).astype(np.int64)

    def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        idx = (a[:, None] + a[None, :]) % m
        out = np.zeros(m, dtype=np.int64)
        np.add.at(out, idx, f[:, None] * g[None, :])
        return out

    h12 = convolve(value_counts(coeffs[0]), value_counts(coeffs[1]))
    h34 = convolve(value_counts(coeffs[2]), value_counts(coeffs[3]))
    total = int((h12 * h34[(-a) % m]).sum())
    mp = 8 if p == 2 else p
    core = 0
    for point in itertools.product(range(mp), repeat=4):
        if sum(d * c * c for d, c in zip(coeffs, point)) % mp == 0:
            core += 1
    non_primitive = (16 if p == 2 else p**4) * core
    return total > non_primitive


def test_legendre_exhaustive_small_primes():
    for p in (3, 5, 7, 11, 13):
        squares = {(z * z) % p for z in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert arith.legendre(a, p) == expected
            assert arith.legendre(a + 7 * p, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.legendre(3, 2)
    with pytest.raises(ValueError):
        arith.legendre(3, 15)


@given(st.integers(-10**6, 10**6),
       st.sampled_from([3, 5, 7, 11, 13, 97, 1009, 1013, 104729, 999983]))
def test_euler_criterion_matches_sympy_legendre(a, p):
    """The kernel that screens (1) and (2) call on the primes prime_divisors
    has certified; legendre adds only the primality check."""
    assert arith.euler_criterion(a, p) == sympy.legendre_symbol(a % p, p) == arith.legendre(a, p)


HILBERT_VALUES = [-3, -2, -1, 1, 2, 3, 5, 6, 10]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hilbert_symbol_odd_prime_oracle(p):
    values = HILBERT_VALUES + [p, -p, 2 * p]
    for x, y in itertools.product(values, repeat=2):
        assert arith.hilbert_symbol(x, y, p) == brute_hilbert(x, y, p), (x, y, p)


def test_hilbert_symbol_two_adic_oracle():
    values = [-3, -2, -1, 1, 2, 3, 5, 6, -5, 10]
    for x, y in itertools.product(values, repeat=2):
        assert arith.hilbert_symbol(x, y, 2) == brute_hilbert(x, y, 2), (x, y)


def test_hilbert_symbol_real_and_rational_inputs():
    assert arith.hilbert_symbol(-1, -1, arith.REAL) == -1
    assert arith.hilbert_symbol(-1, 2, arith.REAL) == 1
    # mod-squares invariance: 3/4 ~ 3 and 50 ~ 2
    assert arith.hilbert_symbol(Fraction(3, 4), 50, 5) == arith.hilbert_symbol(3, 2, 5)


nonzero_rationals = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**4),
)


@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_product_formula(x, y):
    # prod over all places of (x, y)_v is 1; the symbol is 1 at every odd
    # prime dividing neither x nor y, so those places are the only ones left
    primes = set(sympy.primefactors(2 * x.numerator * x.denominator
                                    * y.numerator * y.denominator))
    product = arith.hilbert_symbol(x, y, arith.REAL)
    for p in primes:
        product *= arith.hilbert_symbol(x, y, p)
    assert product == 1


def test_hilbert_symbol_bimultiplicative():
    for p in (2, 3, 5, arith.REAL):
        for x, y, z in itertools.product([-2, -1, 2, 3, 5], repeat=3):
            lhs = arith.hilbert_symbol(x * y, z, p)
            rhs = arith.hilbert_symbol(x, z, p) * arith.hilbert_symbol(y, z, p)
            assert lhs == rhs, (x, y, z, p)


def test_qp_is_square_examples():
    assert arith.qp_is_square(2, 7)       # 2 = 3^2 mod 7
    assert not arith.qp_is_square(3, 7)
    assert not arith.qp_is_square(7, 7)   # odd valuation
    assert arith.qp_is_square(49 * 2, 7)
    assert arith.qp_is_square(17, 2)      # 1 mod 8
    assert not arith.qp_is_square(5, 2)
    assert not arith.qp_is_square(-4, arith.REAL)
    assert arith.qp_is_square(4, arith.REAL)


@pytest.mark.parametrize("p", [3, 5])
def test_anisotropy_oracle(p):
    pools = [
        (1, 1, 1, 1), (1, 1, 1, -1), (1, 2, 3, 5), (12, 111, 13, 1),
        (1, -1, 2, -2), (p, 1, 1, 1), (p, p, 1, 1), (1, 2, p, 2 * p),
        (2, 3, 5, 7), (1, 1, p, p),
    ]
    for coeffs in pools:
        got = arith.is_anisotropic_diag4(coeffs, p)
        assert got == (not brute_isotropic(coeffs, p)), (coeffs, p)


def test_anisotropy_two_adic_oracle():
    pools = [(1, 1, 1, 1), (1, 1, 1, -7), (1, 2, 3, 5), (2, 3, 10, 15),
             (1, -1, 1, -1), (1, 1, 2, 2)]
    for coeffs in pools:
        got = arith.is_anisotropic_diag4(coeffs, 2)
        assert got == (not brute_isotropic(coeffs, 2)), coeffs


def test_anisotropy_real_and_witness():
    assert arith.is_anisotropic_diag4([1, 2, 3, 4], arith.REAL)
    assert not arith.is_anisotropic_diag4([1, 2, 3, -4], arith.REAL)
    # the witness triplet's screening form is anisotropic over Q_3
    assert arith.is_anisotropic_diag4([12, 111, 13, 1], 3)


def test_is_prime_certified_range_and_guard():
    primes_below_100 = {p for p in range(100) if sympy.isprime(p)}
    assert {p for p in range(100) if arith.is_prime(p)} == primes_below_100
    assert arith.is_prime(341_550_071_728_289)  # largest prime below the bound
    with pytest.raises(ValueError):
        arith.is_prime(arith.MR_BOUND)


# 997 is the largest prime up to SMALL_TRIAL and 1009 the least above it:
# a rest below 1009**2 left by trial division is proven prime, 1009**2 is not
_PRIME_BELOW_BOUND = sympy.prevprime(1009**2)
_PRIME_ABOVE_BOUND = sympy.nextprime(1009**2)


@pytest.mark.parametrize("n", [1, 2, 628, 821, 5 * 5 * 13, 2**20, 1000003 * 1000033,
                               999999929 * 999999937, 1000003**2, 1000003**3,
                               1009 * 1000003**2,
                               997**2, 997 * 1009, 1009**2, 1009 * 1013, 2 * 1009**2,
                               _PRIME_BELOW_BOUND, _PRIME_ABOVE_BOUND,
                               3 * _PRIME_BELOW_BOUND, 3 * _PRIME_ABOVE_BOUND])
def test_factorize_matches_sympy(n):
    fz = arith.factorize(n)
    assert fz.complete
    assert fz.factors == sympy.factorint(n)
    assert fz.product() == n


def test_is_prime_table_and_miller_rabin_agree_with_sympy():
    # the table answers up to SMALL_TRIAL, Miller-Rabin above it
    got = [n for n in range(-3, 3 * arith.SMALL_TRIAL) if arith.is_prime(n)]
    assert got == list(sympy.primerange(2, 3 * arith.SMALL_TRIAL))


def test_trial_proof_bound_is_the_square_of_the_next_prime():
    assert arith.TRIAL_PROOF_BOUND == sympy.nextprime(arith.SMALL_TRIAL) ** 2 == 1009**2


# Products of two primes around SMALL_TRIAL sit on both sides of the bound
# below which a rest left by trial division is prime without a test.
_PRIMES_NEAR_SMALL_TRIAL = list(sympy.primerange(900, 1200))


@settings(max_examples=400)
@given(st.one_of(
    st.integers(1, 10**7),
    st.builds(lambda p, q: p * q, st.sampled_from(_PRIMES_NEAR_SMALL_TRIAL),
              st.sampled_from(_PRIMES_NEAR_SMALL_TRIAL)),
))
def test_factorize_and_prime_divisors_match_sympy_up_to_ten_million(n):
    fz = arith.factorize(n)
    assert fz.complete and fz.factors == sympy.factorint(n)
    assert arith.prime_divisors(-n) == sympy.primefactors(n)


@pytest.mark.parametrize("m", [9, 561, 961, 1001, 1003])
def test_symbols_reject_composite_moduli_on_both_sides_of_small_trial(m):
    assert not sympy.isprime(m)
    with pytest.raises(ValueError):
        arith.legendre(2, m)
    with pytest.raises(ValueError):
        arith.hilbert_symbol(2, 3, m)


_SYMBOL_PLACES = [arith.REAL, 2, 3, 5, 7, 11, 997, 1009]


@given(st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=4, max_size=4),
       st.lists(st.integers(1, 10**3), min_size=4, max_size=4),
       st.sampled_from(_SYMBOL_PLACES))
def test_int_and_fraction_inputs_give_the_same_symbols(nums, dens, place):
    # n * d as an int, the same number as a Fraction, and the Fraction
    # n / d = n * d / d**2 all lie in one square class
    ints = [n * d for n, d in zip(nums, dens)]
    same = [Fraction(m) for m in ints]
    quotients = [Fraction(n, d) for n, d in zip(nums, dens)]
    for xs in (same, quotients):
        assert arith.hilbert_symbol(xs[0], xs[1], place) \
            == arith.hilbert_symbol(ints[0], ints[1], place)
        assert arith.is_anisotropic_diag4(xs, place) == arith.is_anisotropic_diag4(ints, place)
        assert arith.qp_is_square(xs[2], place) == arith.qp_is_square(ints[2], place)


def test_factorize_splits_two_large_primes_by_rho():
    # Both primes are above SMALL_TRIAL and the product is below MR_BOUND:
    # rho splits it without trial division to TRIAL_LIMIT (0.16 s before).
    n = 1000003 * 1000033
    start = time.perf_counter()
    fz = arith.factorize(n)
    assert time.perf_counter() - start < 0.02
    assert fz.factors == {1000003: 1, 1000033: 1} and fz.complete


@pytest.mark.parametrize("n, factors", [(1000003**3, {1000003: 3}),
                                        (999983**4, {999983: 4})])
def test_factorize_takes_exact_powers_before_long_trial_division(n, factors):
    # The rest after SMALL_TRIAL is at or above MR_BOUND: an exact-power
    # test hands the base to rho instead of trial division to TRIAL_LIMIT
    # (about 0.075 s each before).
    assert n >= arith.MR_BOUND
    start = time.perf_counter()
    fz = arith.factorize(n)
    assert time.perf_counter() - start < 0.02
    assert fz.complete and fz.factors == factors


def test_factorize_falls_back_to_trial_division_when_rho_stalls(monkeypatch):
    monkeypatch.setattr(arith, "_rho_brent", lambda n: n)
    n = 1009 * 1013 * 999983
    assert n < arith.MR_BOUND
    fz = arith.factorize(n)
    assert fz.complete and fz.factors == sympy.factorint(n)


def test_factorize_gives_up_on_a_large_prime_cofactor():
    # The cofactor is a prime above MR_BOUND: rho cannot split it, and
    # without a step budget it ran about sqrt(n) steps for each parameter.
    big = 1080863910568919
    assert big > arith.MR_BOUND and sympy.isprime(big)
    start = time.perf_counter()
    fz = arith.factorize(5 * big)
    assert time.perf_counter() - start < 1.0
    assert not fz.complete
    assert fz.factors == {5: 1} and fz.cofactor == big
    assert fz.product() == 5 * big
    with pytest.raises(ValueError):
        arith.prime_divisors(5 * big)


def test_prime_divisors():
    assert arith.prime_divisors(628) == [2, 157]
    assert arith.prime_divisors(-628) == [2, 157]
    assert arith.prime_divisors(821) == [821]
    with pytest.raises(ValueError):
        arith.prime_divisors(0)


#: Every rational type the package accepts: bools, ints, integral and
#: non-integral Fractions.
accepted_rationals = st.one_of(
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(max_denominator=10**6),
)


@given(accepted_rationals)
def test_rational_is_canonical_and_idempotent(x):
    r = arith.rational(x)
    assert r == x and arith.rational(r) is r
    assert type(r) is (int if Fraction(x).denominator == 1 else Fraction)


@given(accepted_rationals)
def test_rational_sqrt_of_a_square_is_its_canonical_absolute_value(x):
    root = arith.rational_sqrt(x * x)
    assert root == abs(x) and type(root) is type(arith.rational(abs(x)))


def _is_square_by_fractions(x) -> bool:
    """Squares of Q in Fraction arithmetic alone: a nonnegative x whose
    numerator's and denominator's integer square roots square back to x."""
    f = Fraction(x)
    return f >= 0 and Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator)) ** 2 == f


@given(st.one_of(accepted_rationals, accepted_rationals.map(lambda x: x * x)))
def test_rational_is_square_matches_a_fraction_reference(x):
    assert arith.rational_is_square(x) is _is_square_by_fractions(x)


def test_rational_square_helpers():
    assert arith.rational_is_square(Fraction(49, 64))
    assert arith.rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    assert not arith.rational_is_square(Fraction(-4))
    assert not arith.rational_is_square(Fraction(2))
    with pytest.raises(ValueError):
        arith.rational_sqrt(2)

"""F2 bitmask linear algebra against brute force.

Subspace enumeration is checked against the Gaussian binomial count and
against element sets built by brute-force XOR closure; fixed spaces are
checked against a scan of all 2^k vectors.
"""

from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enriq import f2


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of F2^n."""
    num = reduce(lambda acc, i: acc * (2 ** (n - i) - 1), range(k), 1)
    den = reduce(lambda acc, i: acc * (2 ** (i + 1) - 1), range(k), 1)
    return num // den


def span_set(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def apply(images, x):
    return reduce(lambda acc, j: acc ^ images[j] if (x >> j) & 1 else acc,
                  range(len(images)), 0)


def test_gaussian_binomial_row_five():
    assert [gaussian_binomial(5, k) for k in range(6)] == [1, 31, 155, 155, 31, 1]


@pytest.mark.parametrize("n", range(6))
def test_all_subspaces_each_once(n):
    for k in range(n + 2):
        bases = list(f2.all_subspaces(n, k))
        spans = {span_set(b) for b in bases}
        assert len(bases) == len(spans) == gaussian_binomial(n, k)
        for basis in bases:
            assert f2.rank(basis) == k
            assert all(v < 2 ** n for v in basis)
            assert basis == f2.echelon(basis)


endomorphisms = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(0, 2 ** k - 1), min_size=k, max_size=k),
                 max_size=3),
    )
)


@given(endomorphisms)
def test_fixed_space_matches_brute_force(case):
    k, endos = case
    fixed = f2.fixed_space(endos, k)
    brute = {x for x in range(2 ** k) if all(apply(e, x) == x for e in endos)}
    assert span_set(fixed) == brute
    assert fixed == f2.echelon(fixed) and f2.rank(fixed) == len(fixed)


def test_fixed_space_rejects_images_outside_the_space():
    with pytest.raises(ValueError):
        f2.fixed_space([[0b100, 0b10]], 2)


@given(st.lists(st.integers(0, 2 ** 6 - 1), max_size=8), st.randoms())
def test_echelon_depends_on_the_span_only(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    basis = f2.echelon(vectors)
    assert basis == f2.echelon(shuffled) == f2.echelon(basis)
    assert span_set(basis) == span_set(vectors)
    tops = [1 << (b.bit_length() - 1) for b in basis]
    assert tops == sorted(set(tops), reverse=True)
    # every leading bit is set in its own vector only
    assert all(sum(1 for b in basis if b & t) == 1 for t in tops)


def test_echelon_examples():
    assert f2.echelon([3, 1]) == f2.echelon([1, 3]) == [2, 1]


@given(st.lists(st.integers(0, 2 ** 6 - 1), max_size=8), st.integers(0, 2 ** 6 - 1))
def test_express_matches_brute_force(basis, v):
    coeffs = f2.express(basis, v)
    if v not in span_set(basis):
        assert coeffs is None
    else:
        assert len(coeffs) == len(basis)
        assert reduce(lambda acc, j: acc ^ basis[j] if coeffs[j] else acc,
                      range(len(basis)), 0) == v


# -- the Galois-module type --------------------------------------------------

def swap_module():
    """<e0, e1, e2> modulo <e3> in F2^4: "swap" exchanges e0 and e1 and
    sends e2 to e2 + e3, which is e2 in the quotient."""
    return f2.GaloisModule([0b0001, 0b0010, 0b0100], [0b1000],
                           {"swap": [0b0010, 0b0001, 0b1100], "id": [1, 2, 4]})


def test_galois_module_coordinates_and_action():
    m = swap_module()
    assert m.dimension == 3
    assert m.actions == {"swap": (0b010, 0b001, 0b100), "id": (1, 2, 4)}
    assert m._coordinates(0b1111) == 0b111
    assert m.act("swap", 0b101) == 0b110
    assert m.fixed_subspace() == [0b100, 0b011]
    assert m.fixed_subspace([]) == [0b100, 0b010, 0b001]
    assert [tuple(b) for b in m.invariant_subspaces(1)] == [(0b100,), (0b111,), (0b011,)]
    with pytest.raises(ValueError):
        m._coordinates(0b10000)  # outside basis + relations


def test_galois_module_rejects_overlapping_relations():
    with pytest.raises(ArithmeticError):
        f2.GaloisModule([0b01, 0b10], [0b11], {})


def test_galois_module_rejects_a_non_invertible_row():
    with pytest.raises(ArithmeticError):
        f2.GaloisModule([0b01, 0b10], [], {"collapse": [0b01, 0b01]})


def test_galois_module_rejects_an_unknown_row():
    with pytest.raises(ValueError):
        swap_module().fixed_subspace(["swap", "nope"])


def _invertible_rows(n):
    row = st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n).filter(
        lambda cols: len(span_set(cols)) == 2**n)
    return st.lists(row, min_size=1, max_size=2)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), _invertible_rows(n))))
def test_invariant_subspaces_match_element_set_closure(case):
    # a subspace is invariant iff every row maps each of its elements into
    # its element set, built by brute-force XOR closure
    n, rows = case
    m = f2.GaloisModule([1 << i for i in range(n)], [],
                        {f"g{j}": cols for j, cols in enumerate(rows)})
    for dim in range(n + 1):
        expected = [basis for basis in f2.all_subspaces(n, dim)
                    if all({m.act(name, x) for x in span_set(basis)} <= span_set(basis)
                           for name in m.actions)]
        assert list(m.invariant_subspaces(dim)) == expected

"""Quadratic tower arithmetic, square testing, serialization, morphisms."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import enriq
from enriq import actions, datafiles, presets
from enriq import towers as towers_mod
from enriq.towers import (
    SIEVE_START,
    DegenerateStepError,
    Tower,
    TowerAuto,
    TowerElem,
    tower_expr,
)


@pytest.fixture()
def q2():
    t = Tower("q2")
    t.add_step("sqrt2", 2)
    return t


def test_basic_arithmetic(q2):
    r = q2.gen("sqrt2")
    assert r * r == q2.rational(2)
    x = (1 + r) ** 3
    assert x == 5 * r + 7  # (1+sqrt2)^3 = 7 + 5 sqrt2
    assert x / x == q2.one()
    assert (x - x).is_zero()
    inv = (1 + r).inv()
    assert inv == r - 1  # 1/(1+sqrt2) = sqrt2 - 1


def test_inverse_roundtrip_deep():
    t = presets.k0_tower()
    z = t.gen("i") + 2 * t.gen("sqrt2") - t.gen("sqrt_m2p2r2") / 3 + 7
    assert z * z.inv() == t.one()
    assert (z ** 2) * (z ** -2) == t.one()


def test_square_verdicts(q2):
    v = 2 * q2.gen("sqrt2") + 3  # (1 + sqrt2)^2
    sq = q2.is_square(v)
    assert sq.verdict is True
    assert sq.witness * sq.witness == v
    assert q2.is_square(q2.rational(2)).verdict is True  # sqrt2 lives here
    assert q2.is_square(q2.gen("sqrt2") + 1).verdict is False
    # the verdict refuses to be used as a bare boolean
    with pytest.raises(TypeError):
        bool(sq)


def test_square_in_extension_but_not_base():
    t = Tower("q5")
    t.add_step("sqrt5", 5)
    sq = t.is_square(t.rational(9) / 5)
    assert sq.verdict is True
    assert sq.witness == t.gen("sqrt5") * 3 / 5


def test_square_depth_budget_returns_unknown(q2):
    v = 2 * q2.gen("sqrt2") + 3
    assert q2.is_square(v, depth=0).verdict is None


def test_degenerate_step_handling():
    t = Tower("d")
    t.add_step("sqrt2", 2)
    got = t.add_step("eight", 8, on_degenerate="eliminate")
    assert "eight" in t.degenerate
    assert got == 2 * t.gen("sqrt2")  # witness root of 8
    with pytest.raises(DegenerateStepError):
        t.add_step("nine", 9, on_degenerate="error")
    with pytest.raises(ValueError):
        t.add_step("zero", 0)


def test_serialization_roundtrip():
    t = presets.k0_tower()
    clone = Tower.from_json(t.to_json())
    assert clone.step_names() == t.step_names()
    assert clone.degree() == t.degree()
    for name in t.named:
        assert clone.named[name].coeffs == t.named[name].coeffs
    # elements roundtrip against the clone
    z = t.gen("sqrt_m2m2r2") / (1 + t.gen("i"))
    z2 = TowerElem.from_dict(clone, z.to_dict())
    assert z2.coeffs == z.coeffs
    with pytest.raises(ValueError):
        Tower.from_dict({"format": "quad-tower/999", "steps": []})


def test_extend_and_lift():
    t = presets.k0_tower()
    ext = t.extend("delta", t.gen("sqrt2") + 3)
    d = ext.gen("delta")
    assert d * d == ext.lift(t.gen("sqrt2") + 3)
    z = t.gen("i") * 2 - 5
    assert ext.lift(z * z) == ext.lift(z) * ext.lift(z)
    with pytest.raises(DegenerateStepError):
        t.extend("bad", 4)  # already a square
    other = Tower("other")
    other.add_step("j", -1)
    with pytest.raises(ValueError):
        ext.lift(other.gen("j"))


def test_extend_copies_the_whole_prefix_state():
    """The extension carries the prefix's steps, degenerate witnesses,
    derived elements and unverified names, and only adds its own step."""
    t = Tower("base")
    t.add_step("s2", 2)
    t.add_step("s8", 8)  # degenerate: sqrt 8 = 2 sqrt 2
    t.define("half", t.gen("s2") / 2)
    t.unverified.append("s2")
    ext = t.extend("s3", 3)
    mine, theirs = ext.to_dict(), t.to_dict()
    assert mine["label"] == "base+s3"
    assert mine["steps"][:-1] == theirs["steps"]
    assert mine["steps"][-1] == {"name": "s3", "radicand": {"1": "3"}}
    for key in ("degenerate", "derived", "unverified"):
        assert mine[key] == theirs[key]
    assert ext.gen("s8") == ext.lift(t.gen("s8")) and ext.gen("s8") ** 2 == 8
    assert ext.gen("half") == ext.lift(t.gen("half"))
    assert t.extend("s3", 3, label="named").label == "named"
    assert t.to_dict() == theirs


def test_automorphism_validation():
    t = presets.k0_tower()
    conj = TowerAuto(t, {"i": -t.gen("i")}, label="conj")
    z = (1 + t.gen("i")) * t.gen("sqrt2")
    assert conj(z) == (1 - t.gen("i")) * t.gen("sqrt2")
    assert conj(conj(z)) == z
    conj.validate()
    # construction does not validate: sqrt2 cannot go to sqrt5, and only
    # validate says so
    bad = TowerAuto(t, {"sqrt2": t.gen("sqrt5")}, label="bad")
    with pytest.raises(ValueError):
        bad.validate()


def test_expression_parser(q2):
    assert tower_expr(q2, "(1 + sqrt2)**2") == 2 * q2.gen("sqrt2") + 3
    assert tower_expr(q2, "3/4 - sqrt2/2") == q2.rational(3) / 4 - q2.gen("sqrt2") / 2
    env = {"x": q2.gen("sqrt2") + 1}
    assert tower_expr(q2, "x * x", env) == 2 * q2.gen("sqrt2") + 3
    with pytest.raises((KeyError, ValueError)):
        tower_expr(q2, "nosuchname + 1")
    with pytest.raises(ValueError):
        tower_expr(q2, "__import__('os').system('true')")
    with pytest.raises(ValueError):
        tower_expr(q2, "sqrt2.coeffs")


def test_witness_tower_is_fully_independent(k_tower_witness):
    kt = k_tower_witness
    assert len(kt.steps) == 18
    assert kt.degenerate == {}
    assert kt.unverified == []
    assert kt.degree() == 2**18


def test_degenerate_triplet_frozen_list():
    """(1,1,1) violates the screening conditions; the tower collapses on a
    fixed set of steps (frozen from a verified run)."""
    t = presets.k_tower(1, 1, 1)
    assert sorted(t.degenerate) == [
        "rt4ab", "sqrt_mc_m10rab", "sqrta", "sqrtab",
        "sqrtc", "theta0", "theta2p", "xi0",
    ]


def test_witness_tower_identities(k_tower_witness):
    """Ratio-root identities that close only through several tower levels."""
    kt = k_tower_witness
    env = {"a": kt.rational(12), "b": kt.rational(111), "c": kt.rational(13)}
    eta1p = kt.named["eta1p"]
    assert eta1p * eta1p == tower_expr(kt, "(eta0 - c)/(50*a)", env)
    gamma1p = kt.named["gamma1p"]
    assert gamma1p * gamma1p == tower_expr(
        kt, "10*a**2 - 5*a*b - b*c + 2*a*gamma0", env
    )
    theta1m = kt.named["theta1m"]
    assert theta1m * theta1m == tower_expr(
        kt, "20*a**2 - 10*a*b - 2*b*c - (10*a + 2*c)*theta0", env
    )
    # plus/minus pairs multiply to the stated norms
    assert kt.named["eta1p"] * kt.named["eta1m"] == tower_expr(
        kt, "-sqrtab/(5*a)", env
    )


def test_k1_tower_shape(k1_tower_witness):
    k1 = k1_tower_witness
    assert k1.degree() == 1024
    assert k1.step_names() == [
        "i", "sqrt2", "sqrt5", "sqrt_m2p2r2", "theta0",
        "sqrtab", "eta0", "eta1p", "gamma0", "gamma1p",
    ]
    assert k1.degenerate == {}
    assert k1.unverified == []


def test_lift_refuses_a_tower_that_reuses_a_collected_prefix_id(monkeypatch):
    """Lifting trusts a prefix tower only while that very tower is alive:
    an unrelated tower that gets the collected prefix's ``id`` is checked
    afresh.  Whether CPython hands the freed address to a new object
    depends on the allocator's state, so the reuse is simulated by
    shadowing ``id`` in the tower module."""
    prefix = Tower("prefix")
    prefix.add_step("s", 3)
    ext = prefix.extend("u", 7)
    old_id = id(prefix)
    del prefix
    gc.collect()
    other = Tower("other")
    other.add_step("s", 11)
    monkeypatch.setattr(
        towers_mod, "id", lambda o: old_id if o is other else id(o),
        raising=False,
    )
    assert towers_mod.id(other) == old_id
    with pytest.raises(ValueError):
        ext.lift(other.gen("s"))


def test_certification_errors_survive_optimised_mode(tmp_path):
    """Under ``python -O`` a bad square witness and a short Galois table
    still raise instead of passing silently."""
    data = json.loads(datafiles.data_path("galois_actions.json").read_text())
    data["rows"] = data["rows"][:-1]
    (tmp_path / "galois_actions.json").write_text(json.dumps(data))
    script = """
from enriq import actions
from enriq.towers import SquareVerdict, Tower
assert False, "assertions must be off"
t = Tower("q2")
t.add_step("sqrt2", 2)
t._is_square_at = lambda z, lvl, depth: SquareVerdict(True, t.rational(3))
try:
    t.is_square(t.rational(2))
except ArithmeticError:
    print("witness refused")
try:
    actions.load_rows()
except ArithmeticError:
    print("table refused")
"""
    src = str(Path(enriq.__file__).resolve().parents[1])
    env = dict(os.environ, ENRIQ_DATA_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["witness refused", "table refused"]


# -- the certified filters in front of the square-test descent ---------------

#: sha256 of k_tower(...).to_json() as the plain descent computed them; the
#: filters must not change a step, a degenerate witness or a derived element.
K_TOWER_JSON_SHA256 = {
    (12, 111, 13): "2dfc1297154f6e9cdb6f2e7476bfb96f475cf420e8b7790b4c5231e2007436b3",
    (3, 7, 11): "fbb4a35469f84d933f0571b3f5e051c44a93f191b11bef89e70bd760f1941504",
    (7, 50, 9): "3f96adb25e415c2f8ddf772a3119ba8ea7149bc2261cb92b9ddeda64a4c706d7",
    (1000, 17, 1999): "97703296005cdf69a72c75edf432f5f7a1d593e21c974425466f6ffa25a73b21",
    (2, 3, 5): "3f6a37a1a71cb20dff9b069aab0cfb042d60710a228900ec907c55e7b0a5dde5",
    (5, 5, 5): "3df9f1838d0a4d4558f545d7a54a9756dd35ac815c02b82e4859b1ed5ac2c526",
    (1, 1, 1): "150130fa91026267c8876ff99d852079029061b31d32c08e37d52a27a3e2edef",
}


@pytest.mark.parametrize("triplet", sorted(K_TOWER_JSON_SHA256))
def test_k_tower_json_is_pinned(triplet):
    text = presets.k_tower(*triplet).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == K_TOWER_JSON_SHA256[triplet]


small = st.integers(-12, 12).filter(bool)
rationals = st.builds(Fraction, small, st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def towers(draw):
    """Up to five steps; a step's radicand is rational or involves one or
    two earlier roots.  Radicands that are already squares are eliminated."""
    t = Tower("random")
    for n in range(draw(st.integers(1, 5))):
        rad = t.rational(draw(rationals))
        k = len(t.steps)
        if k and draw(st.booleans()):
            term = t.rational(draw(small))
            for j in draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=2)):
                term = term * t.root(j)
            rad = rad + term
        t.add_step(f"r{n}", rad)
    return t


@st.composite
def elements(draw, t):
    monos = st.sets(st.integers(0, len(t.steps) - 1)) if t.steps else st.just(set())
    coeffs = draw(st.dictionaries(monos.map(frozenset), rationals, max_size=4))
    return TowerElem(t, coeffs)


@st.composite
def towers_with_elements(draw):
    t = draw(towers())
    w = draw(elements(t))
    kind = draw(st.sampled_from(["square", "twisted square", "rational", "any"]))
    if kind == "square":
        z = w * w
    elif kind == "twisted square":
        z = w * w * draw(rationals)
    elif kind == "rational":
        z = t.rational(draw(rationals))
    else:
        z = w
    return t, w, z


def bare_descent(t):
    """A copy of ``t`` whose square test runs the descent alone."""
    bare = Tower.from_dict(t.to_dict())
    bare._kummer_prefix = lambda: 0
    bare._residue_maps = lambda lvl: []
    return bare


@given(towers_with_elements())
def test_squares_are_recognised_with_a_witness(case):
    t, w, _ = case
    got = t.is_square(w * w)
    assert got.verdict is True
    assert got.witness * got.witness == w * w


@given(towers_with_elements())
def test_filters_agree_with_the_bare_descent(case):
    t, _, z = case
    got = t.is_square(z)
    bare = bare_descent(t)
    want = bare.is_square(TowerElem(bare, z.coeffs))
    if want.verdict is not None:
        assert got.verdict is want.verdict
        if want.verdict:
            assert got.witness.coeffs == want.witness.coeffs
    if got.verdict:
        assert got.witness * got.witness == z


@given(towers())
def test_sieve_maps_satisfy_their_conditions(t):
    for lvl in range(len(t.steps)):
        for phi in t._residue_maps(lvl):
            assert phi.p % 4 == 3 and len(phi.images) > lvl
            for i in range(lvl + 1):
                d = t.steps[i].radicand
                assert all(c.denominator % phi.p for c in d.coeffs.values())
                assert phi(d) not in (None, (0, 0))
                x, y = phi.images[i]
                assert ((x * x - y * y) % phi.p, 2 * x * y % phi.p) == phi(d)


@given(towers(), st.sampled_from(["image", "denominator"]), st.integers(0, 3))
def test_sieve_refuses_a_map_at_a_bad_prime(t, how, root):
    """The scan starts at SIEVE_START, a prime = 3 (mod 4): a step whose
    radicand vanishes there or has it in a denominator stops that map."""
    p = SIEVE_START
    rad = t.rational(3) + (t.root(root) if root < len(t.steps) else 0)
    rad = rad * p if how == "image" else rad / p
    assume(t.is_square(rad).verdict is False)
    t.add_step("bad", rad)
    top = len(t.steps) - 1
    assert all(phi.p != p for phi in t._residue_maps(top))
    assert t._sieve_pool[0].p == p and len(t._sieve_pool[0].images) <= top


# -- the ring kernels against a reference product and exact ring maps ---------


def reference_add(x, y):
    out = dict(x.coeffs)
    for mono, c in y.coeffs.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return TowerElem(x.tower, out)


def reference_mul(x, y):
    """A reference product, recursive on whole elements: each pair of
    monomials that share roots becomes its own element, multiplied by the
    product of the shared radicands and added to an accumulator."""
    t = x.tower
    acc, plain = t.zero(), {}
    for s, cs in x.coeffs.items():
        for u, cu in y.coeffs.items():
            common, sym = s & u, s ^ u
            if not common:
                plain[sym] = plain.get(sym, Fraction(0)) + cs * cu
                continue
            rad = t.one()
            for i in sorted(common):
                rad = reference_mul(rad, t.steps[i].radicand)
            acc = reference_add(acc, reference_mul(rad, TowerElem(t, {sym: cs * cu})))
    return reference_add(acc, TowerElem(t, plain))


@st.composite
def towers_with_three(draw):
    t = draw(towers())
    return t, draw(elements(t)), draw(elements(t)), draw(elements(t))


def holds_invariant(z):
    return all(
        type(m) is frozenset and type(c) is Fraction and c for m, c in z.coeffs.items()
    )


@given(towers_with_three())
def test_product_matches_the_reference_coefficient_for_coefficient(case):
    t, x, y, w = case
    for a, b in ((x, y), (x * y, w), (x + w, x - y), (x, t.rational(3)), (x, t.zero())):
        got = a * b
        assert holds_invariant(got)
        assert got.coeffs == reference_mul(a, b).coeffs


@given(towers_with_three())
def test_ring_laws(case):
    t, x, y, w = case
    assert x * y == y * x
    assert (x * y) * w == x * (y * w)
    assert x * (y + w) == x * y + x * w
    assert (x - y) + y == x
    assert x - x == t.zero() and holds_invariant(x - y) and holds_invariant(x + y)
    assert 2 - x == -(x - 2)
    assert x ** 0 == t.one() and x ** 1 == x and x ** 3 == x * x * x
    assume(not x.is_zero() and not t.unverified)
    assert x * x.inv() == t.one()


@given(towers_with_three())
def test_residue_maps_respect_sum_and_product(case):
    """phi(x + y) and phi(x * y) against F_{p^2} arithmetic on phi(x) and
    phi(y): the expected side never calls TowerElem.__mul__."""
    t, x, y, _ = case
    for phi in t._residue_maps(len(t.steps) - 1):
        p = phi.p
        (a, b), (c, d) = phi(x), phi(y)
        assert phi(x + y) == ((a + c) % p, (b + d) % p)
        assert phi(x - y) == ((a - c) % p, (b - d) % p)
        assert phi(x * y) == towers_mod._fp2_mul((a, b), (c, d), p)


@given(towers_with_three())
def test_top_conjugation_is_a_ring_involution(case):
    t, x, y, _ = case
    assume(t.steps)
    top = len(t.steps) - 1
    sigma = TowerAuto(t, {t.steps[top].name: -t.root(top)})
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert holds_invariant(sigma(x)) and sigma(sigma(x)) == x
    a, b = x.split(top)
    assert sigma(x) == a - t.root(top) * b


@given(towers_with_three())
def test_apply_adds_up_the_monomial_images(case):
    """``apply`` is the Q-linear map sending root^s to the product of the
    root images; unvalidated images that are sums make the terms overlap."""
    t, x, y, _ = case
    assume(t.steps)
    rho = TowerAuto(t, {t.steps[0].name: y})
    want = t.zero()
    for mono, c in x.coeffs.items():
        img = t.rational(c)
        for i in sorted(mono):
            img = reference_mul(img, rho.root_images[i])
        want = reference_add(want, img)
    got = rho(x)
    assert holds_invariant(got) and got.coeffs == want.coeffs


@st.composite
def mixed_automorphisms(draw):
    """Unvalidated automorphisms whose roots are fixed, negated or moved to
    a drawn element; a moved image also holds a negated root times the
    moved one, as sqrt_m2p2r2 -> i*sqrt2*sqrt_m2p2r2 + ... in the sqrt2 row."""
    t = draw(towers())
    kinds = draw(st.lists(st.sampled_from(["fixed", "negated", "moved"]),
                          min_size=len(t.steps), max_size=len(t.steps)))
    negated = [i for i, kind in enumerate(kinds) if kind == "negated"]
    images = {}
    for i, kind in enumerate(kinds):
        if kind == "negated":
            images[t.steps[i].name] = -t.root(i)
        elif kind == "moved":
            img = draw(elements(t))
            if negated:
                img = img + t.root(negated[0]) * t.root(i) * draw(rationals)
            images[t.steps[i].name] = img
    return t, TowerAuto(t, images), draw(elements(t))


def reference_apply(rho, x):
    """The sum over x's monomials of c times the product of root images."""
    t = rho.tower
    want = t.zero()
    for mono, c in x.coeffs.items():
        img = t.rational(c)
        for i in sorted(mono):
            img = reference_mul(img, rho.root_images[i])
        want = reference_add(want, img)
    return want


@given(mixed_automorphisms())
def test_apply_on_fixed_negated_and_moved_roots_matches_the_root_images(case):
    t, rho, x = case
    for z in (x, x * x, t.rational(3) - x):
        got = rho(z)
        assert holds_invariant(got) and got.coeffs == reference_apply(rho, z).coeffs


def test_every_table_row_maps_every_named_element_as_its_root_images(k_tower_witness):
    k = k_tower_witness
    for row in actions.load_rows():
        rho = actions.tower_automorphism(k, row)
        for name, z in k.named.items():
            assert rho(z).coeffs == reference_apply(rho, z).coeffs, (row.name, name)


# -- the sieve skips rationals: a premise and its consequence ------------------


@given(st.fractions().filter(bool))
def test_no_kept_map_rules_out_a_rational(k_tower_witness, x):
    """phi(x) lies in F_p, and every element of F_p is a square in F_{p^2}."""
    k = k_tower_witness
    z = k.rational(x)
    for lvl in range(len(k.steps)):
        assert not any(phi.rules_out_square(z) for phi in k._residue_maps(lvl))


@pytest.mark.parametrize("triplet", [(12, 111, 13), (7, 50, 9), (5, 5, 5)])
def test_sieve_skip_keeps_the_built_tower(monkeypatch, triplet):
    want = presets.k_tower(*triplet).to_dict()
    monkeypatch.setattr(towers_mod._ResidueMap, "rules_out_square", lambda self, z: False)
    got = presets.k_tower(*triplet).to_dict()
    for key in ("steps", "degenerate", "unverified"):
        assert got[key] == want[key]

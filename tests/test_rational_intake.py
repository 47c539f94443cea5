"""One intake of Q: ``arith.rational`` is the only way a rational enters
the package, so every public intake refuses a float, a string or a
Decimal with TypeError instead of reading it as some nearby fraction.
Each value below is a rational square that ``Fraction()`` would accept."""

from decimal import Decimal

import pytest

from enriq import arith, geometry, lattice, presets

WITNESS = (12, 111, 13)
BAD = [4.0, "1/4", Decimal("0.25")]
_ZEROS = (0,) * (lattice.RANK - 1)

SCALAR_INTAKES = {
    "arith.rational": arith.rational,
    "arith.rational_is_square": arith.rational_is_square,
    "arith.rational_sqrt": arith.rational_sqrt,
    "lattice.gram(mapping)": lambda x: lattice.gram({"F1": x}, "G1"),
    "lattice.gram(sequence)": lambda x: lattice.gram((x,) + _ZEROS, "G1"),
    "lattice.in_lattice(mapping)": lambda x: lattice.in_lattice({"F1": x}),
    "lattice.in_lattice(sequence)": lambda x: lattice.in_lattice((x,) + _ZEROS),
}

TRIPLET_INTAKES = {
    "presets.k_tower": lambda abc, k, k1: presets.k_tower(*abc),
    "presets.k1_tower": lambda abc, k, k1: presets.k1_tower(*abc),
    "geometry.verify_suite": lambda abc, k, k1: geometry.verify_suite(*abc, tower=k),
    "geometry.weierstrass_report": lambda abc, k, k1: geometry.weierstrass_report(*abc, tower=k1),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("intake", SCALAR_INTAKES)
def test_scalar_intakes_refuse_floats_strings_and_decimals(intake, bad):
    with pytest.raises(TypeError):
        SCALAR_INTAKES[intake](bad)


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("intake", TRIPLET_INTAKES)
def test_triplet_intakes_refuse_floats_strings_and_decimals(
    intake, bad, slot, k_tower_witness, k1_tower_witness
):
    abc = list(WITNESS)
    abc[slot] = bad
    with pytest.raises(TypeError):
        TRIPLET_INTAKES[intake](abc, k_tower_witness, k1_tower_witness)

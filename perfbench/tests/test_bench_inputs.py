"""The generators are pure functions of the seed."""

import itertools
import json

import pytest

import inputs


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    first = inputs.generate(workload, 7)
    assert json.dumps(first) == json.dumps(inputs.generate(workload, 7))


@pytest.mark.parametrize("workload", ["screen-sweep", "residue-calculus"])
def test_other_seed_other_inputs(workload):
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_witness_ignores_the_seed():
    assert inputs.generate("witness", 1) == inputs.generate("witness", 2) == [[12, 111, 13]]


def test_screen_sweep_is_stratified_mod_5_and_3():
    items = inputs.generate("screen-sweep", 3)
    assert len(items) == inputs.SCREEN_ITEMS
    assert all(1 <= x <= inputs.SCREEN_BOX for t in items for x in t)
    assert all(inputs.nonsingular(*t) for t in items)
    assert sorted(tuple(x % 5 for x in t) for t in items) == sorted(
        2 * list(itertools.product(range(5), repeat=3)))
    counts = {}
    for t in items:
        key = tuple(x % 3 for x in t)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 27 and set(counts.values()) <= {9, 10}


def test_residue_specs_have_fixed_shares():
    items = inputs.generate("residue-calculus", 2)
    assert len(items) == inputs.RESIDUE_ITEMS
    assert sum(i["base"] == "Q(sqrt5)" for i in items) == len(items) // 4
    assert sum(i["perturb"] is not None for i in items) == len(items) // 4

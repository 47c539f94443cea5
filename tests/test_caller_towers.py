"""Every check takes its field from the caller and builds no tower itself.

The digests below were recorded from the witness outputs of
``geometry.verify_suite`` and ``lattice.verify_suite`` while the checks
still fell back to towers of their own.  ``inspect`` is imported here,
in a test, not by the package (see ``test_imports.py``).
"""

import hashlib
import inspect
import json

import pytest

from enriq import actions, geometry, lattice, presets, twotorsion

WITNESS = (12, 111, 13)

GEOMETRY_SUITE_SHA256 = "3cf206cd41a05ced6f34b3bf9b4dda0094572cc6f24e21a8b541e5abcee2f285"
LATTICE_SUITE_SHA256 = "03c1d7748996a6e20e7211a77cd05fb94865d68a0830ef356003ebe34387149c"


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("module", [actions, geometry, lattice, twotorsion],
                         ids=lambda m: m.__name__)
def test_no_public_function_has_a_default_tower(module):
    functions = [obj for name, obj in vars(module).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == module.__name__]
    assert functions
    params = {f.__name__: inspect.signature(f).parameters for f in functions}
    defaulted = [name for name, p in params.items()
                 if "tower" in p and p["tower"].default is not inspect.Parameter.empty]
    assert defaulted == []


def test_geometry_does_not_import_presets():
    assert not hasattr(geometry, "presets")


def test_suites_build_no_tower(monkeypatch, k_tower_witness, k1_tower_witness):
    def refuse(*args):
        raise AssertionError("a check built a tower of its own")

    for name in ("k0_tower", "k1_tower", "k_tower"):
        monkeypatch.setattr(presets, name, refuse)
    geo = geometry.verify_suite(*WITNESS, tower=k_tower_witness)
    lat = lattice.verify_suite(k_tower_witness, k1_tower_witness.step_names())
    assert geo["ok"] is True and lat["ok"] is True
    assert _digest(geo) == GEOMETRY_SUITE_SHA256
    assert _digest(lat) == LATTICE_SUITE_SHA256

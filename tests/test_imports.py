"""Runtime import hygiene: sympy and numpy are test oracles, not dependencies."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
import enriq
for mod in pkgutil.iter_modules(enriq.__path__):
    importlib.import_module(f"enriq.{mod.name}")
print(" ".join(m for m in ("sympy", "mpmath", "numpy") if m in sys.modules))
"""


@functools.lru_cache(maxsize=None)
def _heavy_modules_loaded(flags: tuple[str, ...]) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_importing_every_module_pulls_in_no_sympy(flags):
    assert not _heavy_modules_loaded(tuple(flags)) & {"sympy", "mpmath"}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_importing_every_module_pulls_in_no_numpy(flags):
    assert "numpy" not in _heavy_modules_loaded(tuple(flags))

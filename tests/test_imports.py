"""Runtime import hygiene: sympy is a test oracle, not a dependency."""

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
print(sorted(m for m in ("sympy", "mpmath") if m in sys.modules))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_importing_every_module_pulls_in_no_sympy(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

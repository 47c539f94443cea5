"""``pyproject.toml`` matches the package: console scripts exist, and every
module the package imports is in the standard library or declared."""

import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import enriq
for mod in pkgutil.iter_modules(enriq.__path__):
    importlib.import_module(f"enriq.{mod.name}")
print(" ".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_loaded_module_is_stdlib_or_declared():
    requirements = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split()) - {"enriq"}
    assert "fractions" in loaded
    undeclared = {m for m in loaded
                  if m not in sys.stdlib_module_names and m.lower() not in declared}
    assert not undeclared

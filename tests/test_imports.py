"""Runtime import hygiene: sympy and numpy are test oracles, not
dependencies, the package defines its records without the dataclasses
machinery (which also pulls in inspect), screens (1)-(7) import no tower,
and no module imports another module's private name."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules are listed from the directory, not with pkgutil.iter_modules,
# which imports inspect itself.
PROBE = """
import importlib, os, sys
import enriq
for name in sorted(os.listdir(enriq.__path__[0])):
    if name.endswith(".py") and name != "__init__.py":
        importlib.import_module(f"enriq.{name[:-3]}")
print(" ".join(m for m in ("sympy", "mpmath", "numpy", "dataclasses", "inspect")
               if m in sys.modules))
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


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_importing_every_module_pulls_in_no_dataclasses_or_inspect(flags):
    assert not _heavy_modules_loaded(tuple(flags)) & {"dataclasses", "inspect"}


#: what ``import enriq.conditions`` loads of the tower side of the package
SCREENS_PROBE = """
import sys
import enriq.conditions
print(" ".join(m for m in ("enriq.presets", "enriq.towers", "enriq.f2") if m in sys.modules))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_screens_import_no_tower(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", SCREENS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_condition_8_reads_the_preset_tower_at_call_time(monkeypatch):
    from enriq import conditions, presets

    def refuse(a, b, c):
        raise ValueError("no tower here")

    monkeypatch.setattr(presets, "k_tower", refuse)
    report = conditions.galois_generality_proxy(12, 111, 13)
    assert report.detail == "tower construction failed: no tower here"


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for path in sorted((SRC / "enriq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "enriq"
            ):
                source = "." * node.level + (node.module or "")
                offenders += [f"{path.name}: from {source} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []

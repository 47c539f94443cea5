"""The data loader: whole format tags and one data directory per process.

Each check runs in a fresh interpreter, because ``ENRIQ_DATA_DIR`` is read
once per process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import enriq
from enriq import datafiles

SRC = str(Path(enriq.__file__).resolve().parents[1])


def run(script, *args, data_dir=None):
    """stdout words of ``script`` in a fresh interpreter; ``data_dir`` is
    its ENRIQ_DATA_DIR (unset when None)."""
    env = {k: v for k, v in os.environ.items() if k != "ENRIQ_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if data_dir is not None:
        env["ENRIQ_DATA_DIR"] = data_dir
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def edited_table(tmp_path, edit):
    data = json.loads(datafiles.data_path("galois_actions.json").read_text())
    edit(data)
    (tmp_path / "galois_actions.json").write_text(json.dumps(data))
    return str(tmp_path)


def test_a_newer_format_version_is_refused(tmp_path):
    directory = edited_table(tmp_path, lambda d: d.update(format="galois-actions/2"))
    script = """
from enriq import actions
try:
    actions.load_rows()
except ValueError as exc:
    print("refused", "galois-actions/2" in str(exc))
"""
    assert run(script, data_dir=directory) == ["refused", "True"]


def test_the_data_directory_is_fixed_for_the_process(tmp_path):
    def rename_first_row(data):
        data["rows"][0]["name"] = "edited"

    script = """
import os, sys
from enriq import actions, datafiles
before = [r.name for r in actions.load_rows()]
os.environ["ENRIQ_DATA_DIR"] = sys.argv[1]
table = [r["name"] for r in datafiles.load("galois_actions.json", "galois-actions/1")["rows"]]
rows = [r.name for r in actions.load_rows()]
print(table == rows == before, "edited" in table)
"""
    directory = edited_table(tmp_path, rename_first_row)
    assert run(script, directory) == ["True", "False"]

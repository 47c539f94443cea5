"""Loader for the versioned JSON data files bundled with the package.

Data files live in ``enriq/data/`` and each carries a ``format`` tag
("<name>/<version>") that must equal the tag the caller expects.  The
environment variable ``ENRIQ_DATA_DIR`` overrides the bundled directory,
so auditors can point the toolkit at edited copies of the tables and re-run
every check against them.  The variable is read once per process, at the
first lookup: changing it later has no effect, so every table and every
cache derived from one (such as ``actions.load_rows``) comes from the same
directory.  Set it before the process starts.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

_BUNDLED = Path(__file__).parent / "data"

ENV_OVERRIDE = "ENRIQ_DATA_DIR"


@lru_cache(maxsize=1)
def data_dir() -> Path:
    """The data directory of this process: ``ENRIQ_DATA_DIR`` as it was at
    the first call, else the bundled directory."""
    override = os.environ.get(ENV_OVERRIDE)
    return Path(override) if override else _BUNDLED


def data_path(filename: str) -> Path:
    return data_dir() / filename


@lru_cache(maxsize=None)
def load(filename: str, expected_format: str) -> dict:
    """Load a data file and check its whole format tag, name and version.

    Results are cached for the life of the process.
    """
    path = data_path(filename)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    fmt = payload.get("format", "")
    if fmt != expected_format:
        raise ValueError(
            f"{path}: format {fmt!r} does not match expected {expected_format!r}"
        )
    return payload

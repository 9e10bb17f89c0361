"""Report serialization: atomic writes, conventions hash, JSON helpers."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from importlib import resources

__version__ = "0.1.0"


def conventions_text() -> str:
    return resources.files("gravortex").joinpath("CONVENTIONS.md").read_text()


@cache  # the packaged document cannot change under a running process
def conventions_hash() -> str:
    """SHA-256 of the conventions document shipped with the package."""
    return hashlib.sha256(conventions_text().encode("utf-8")).hexdigest()


def report_schema() -> dict:
    text = resources.files("gravortex").joinpath("report_schema.json").read_text()
    return json.loads(text)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename; no partial output survives."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, payload: dict) -> None:
    """One line of sorted-key JSON, encoded in C (``indent`` would force the Python encoder)."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")

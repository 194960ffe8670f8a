"""Lets `pytest tests/` run from a source checkout without installing the
package. pyproject.toml puts `src/` on this process's path; the tests that
start a fresh interpreter see it only through PYTHONPATH, set here."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

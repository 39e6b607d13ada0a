"""Child interpreters started by the tests import the package from src/,
as the tests themselves do through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

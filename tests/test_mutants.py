"""The mutation gate's table stays applicable: ``scripts/mutants.py``
plants each fault by replacing an exact text, which must occur exactly
once in its file under ``src/``. Running the gate itself, a pytest run per
mutant, is not part of the suite."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    path = ROOT / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once_in_src():
    gate = load_gate()
    names = [m.name for m in gate.MUTANTS]
    assert len(set(names)) == len(names)
    assert [(m.name, m.file, gate.occurrences(m)) for m in gate.MUTANTS
            if not m.file.startswith("src/")
            or gate.occurrences(m) != 1] == []

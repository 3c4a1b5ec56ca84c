"""Every committed mutant of ``scripts/mutants.py`` still applies: its snippet
occurs exactly once in its file and differs from its replacement, and every
test file it names exists.  An edit under src/ that strands a mutant fails
here, not only in the harness run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies(m):
    text = (ROOT / "src" / "steincheck" / m.file).read_text()
    assert text.count(m.snippet) == 1
    assert m.snippet != m.replacement
    assert m.tests and all((ROOT / t).is_file() for t in m.tests)

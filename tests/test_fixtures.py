"""The committed fixtures are exactly what scripts/make_fixtures.py builds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_fixtures_match_the_builder():
    built = _make_fixtures().build()
    committed = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    assert sorted(built) == committed
    for name, text in built.items():
        assert (ROOT / "fixtures" / name).read_bytes() == text.encode("utf-8"), name

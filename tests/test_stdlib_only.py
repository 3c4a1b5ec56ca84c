"""The runtime needs only the standard library: every absolute import in
src/steincheck names a stdlib module (relative imports stay in the package)."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "steincheck").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "intlin.py", "quadform.py"}
    outside = {p.name: sorted({n for n in absolute_imports(p) if n.split(".")[0] not in sys.stdlib_module_names})
               for p in SOURCES}
    assert {name: names for name, names in outside.items() if names} == {}

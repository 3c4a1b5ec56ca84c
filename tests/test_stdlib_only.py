"""The runtime needs only the standard library: every absolute import in
src/steincheck names a stdlib module (relative imports stay in the package),
and importing the command line loads none of the introspection modules that
``dataclasses`` brings in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "steincheck").glob("*.py"))

# dataclasses imports inspect, which imports ast, dis and tokenize, and every
# command line call would pay for loading them; the records are named tuples
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def test_cli_import_loads_no_introspection_module():
    # modules that interpreter start-up loaded before steincheck are not its cost
    code = ("import sys; before = set(sys.modules); "
            "import steincheck.cli; steincheck.cli.build_parser(); "
            "print(' '.join(m for m in %r if m in sys.modules and m not in before))" % (INTROSPECTION,))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == []

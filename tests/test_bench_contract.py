"""What the benchmark in perfbench/ needs from steincheck: every function its
tracer wraps by name, and the entry points and constructor arguments its
worker calls.  perfbench/ is read here, never changed."""

import importlib
import sys
from pathlib import Path

import pytest

import steincheck
import steincheck.cli  # noqa: F401  (binds the submodules the worker reads)
import steincheck.handle  # noqa: F401
import steincheck.obstruct  # noqa: F401
import steincheck.quadform  # noqa: F401
import steincheck.surgery  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def home(qualname):
    """(module, name) of a traced "module.function" name."""
    module, name = qualname.split(".")
    return importlib.import_module("steincheck." + module), name


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "worker"):
            sys.modules.pop(name, None)


def test_tracer_wraps_every_traced_name_and_the_worker_calls_run(perfbench):
    tracing, worker = perfbench
    tracer = tracing.Tracer("steincheck", worker.CallTimeout)
    originals = {q: getattr(*home(q)) for q in tracing.FUNCTIONS}
    calls = [
        {"kind": "cli", "argv": ["certificate", "--parity", "odd", "--q-range", "1..3"]},
        {"kind": "solve_square", "args": {"gram": [[0, 1], [1, -2]], "c": -2}},
        {"kind": "class_rigidity", "args": {"gram": [[0, 1], [1, -2]], "s": [0, 1]}},
    ]
    tracer.install()  # reads each traced name: a missing one raises here
    try:
        patched = {(mod, name) for mod, name, _ in tracer.patched}
        for qualname in tracing.FUNCTIONS:
            assert home(qualname) in patched, qualname
        code, out = worker.invoke(steincheck, calls[0])
        solutions = worker.invoke(steincheck, calls[1])
        rigid = worker.invoke(steincheck, calls[2])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert code == 0 and "conclusion: TRUE" in out
    assert solutions.complete and set(solutions.vectors) == {(0, 1), (0, -1)}
    assert rigid is True
    for qualname in ("cli.run", "quadform.solve_square", "obstruct.class_rigidity"):
        assert metrics[qualname + ".calls"] >= 1, qualname
    assert {q: getattr(*home(q)) for q in tracing.FUNCTIONS} == originals

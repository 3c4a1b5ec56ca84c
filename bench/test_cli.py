"""Latency of in-process ``steincheck.cli.run`` calls, one case per subcommand.

    PYTHONPATH=src python -m pytest bench/test_cli.py --benchmark-json out.json

Each case runs one command line on the committed fixtures, the way a caller
that imports steincheck does, so the time is argument parsing plus the
computation, without interpreter start.  Standard output goes to a buffer,
and each case checks the exit code.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from steincheck.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

COMMANDS = {
    "d3": ["d3", str(FIXTURES / "x_shadow_link.json"), "--output", "json"],
    "homology-boundary": ["homology", "boundary", str(FIXTURES / "x_shadow_link.json")],
    "form-iso": ["form", "iso", str(FIXTURES / "x_form.json"), str(FIXTURES / "x2_form.json")],
    "family-x": ["family", "x", "--p-range", "0..10", "--output", "json"],
    "certificate": ["certificate", "--parity", "odd", "--q-range", "1..10"],
}


def call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return run(argv)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_run(benchmark, name):
    benchmark.group = "cli.run"
    benchmark.extra_info["argv"] = COMMANDS[name]
    assert benchmark(call, COMMANDS[name]) == 0

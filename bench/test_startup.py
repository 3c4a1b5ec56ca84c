"""Cold start of the command line: a fresh interpreter that imports
``steincheck.cli`` and builds its parser, the fixed cost every
``python -m steincheck ...`` call pays before any algebra.

    PYTHONPATH=src python -m pytest bench/test_startup.py --benchmark-json out.json

Each round launches one interpreter, so the time includes interpreter start;
one unmeasured launch first warms the file cache.  ``extra_info`` holds the
``-X importtime`` self time of each steincheck module, in microseconds, from
one separate launch, and whether the launch loaded ``dataclasses`` or
``inspect``.  Where ``PYTHONDONTWRITEBYTECODE`` is set, every launch also
compiles all of ``src/``, so source lines cost start-up time there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE = "import steincheck.cli; steincheck.cli.build_parser()"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def launch(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", CODE], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60, check=True)


def import_self_times() -> dict[str, int]:
    """Module name -> self time in microseconds, for every module the launch
    imported, from the lines "import time: <self> | <cumulative> | <name>"."""
    times = {}
    for line in launch("-X", "importtime").stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0])
    return times


def test_cold_start(benchmark):
    benchmark.group = "cold start"
    times = import_self_times()
    benchmark.extra_info["import_self_us"] = {
        name: us for name, us in times.items() if name.startswith("steincheck")}
    benchmark.extra_info["loads_dataclasses_or_inspect"] = bool({"dataclasses", "inspect"} & set(times))
    benchmark.pedantic(launch, rounds=21, iterations=1, warmup_rounds=1)

"""steincheck benchmark.

    python3 perfbench/run.py --workload {family,links,forms} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a steincheck checkout.  The run

  1. times interpreter start plus `import steincheck.cli` and
     `build_parser()` in fresh processes (setup_s);
  2. builds the workload's inputs from the seed, with expected answers
     that do not come from steincheck (gen.py, refs.py);
  3. makes the calls in one worker process, one at a time, each under a
     time limit, repeating passes for S seconds (worker.py);
  4. prints a readable report and, as the last line, one JSON object with
     the end-to-end metrics (--trace 0) or the per-layer metrics from a
     traced run (--trace 1).

Inputs, per-input rows (inputs.csv) and spans go to .perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SETUP_LAUNCHES = 21
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below
    it; for q = 0.9 and n >= 100 values, at least 10 lie above it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def ratios(statuses: list[str]) -> tuple[float, float]:
    """(ok_ratio, decided_ratio).  A call fails when it raises, times out
    or answers wrongly; ok_ratio is the share of calls that did not fail,
    decided_ratio the share of those that gave a definite answer."""
    ok = [s for s in statuses if s in ("decided", "undecided")]
    decided = sum(1 for s in ok if s == "decided")
    return len(ok) / len(statuses), (decided / len(ok) if ok else 0.0)


def measure_setup(root: Path, src: Path) -> float:
    """Median wall time of fresh interpreters that import steincheck.cli
    and build its parser; one unmeasured launch first warms the caches
    (file cache, and bytecode where the environment lets Python write it)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import steincheck.cli as c; c.build_parser()"
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("importing steincheck.cli failed: %s"
                             % proc.stderr.decode(errors="replace").strip()[-300:])
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_worker(spec_path: Path, result_path: Path, root: Path, budget: float) -> dict:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path),
                             str(result_path)], cwd=root)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish within %.0f s" % budget) from None
    if code != 0:
        raise BenchError("worker exited with code %d" % code)
    return json.loads(result_path.read_text())


def summarize(calls: list[dict], result: dict) -> tuple[dict, list[dict]]:
    """End-to-end metrics and per-input rows from the worker's passes.

    Each call's latency is the median of its samples; the batch wall time
    is the sum of those medians.  The ratios count each input once, by its
    first outcome."""
    keys = [str(c["order"]) for c in calls]
    latencies = [statistics.median(result["latencies"][k]) for k in keys]
    statuses = [result["status"][k] for k in keys]
    ok_ratio, decided_ratio = ratios(statuses)
    metrics = {
        "wall_s": sum(latencies),
        "call_p50_ms": 1000 * statistics.median(latencies),
        "call_p90_ms": 1000 * nearest_rank(latencies, 0.9),
        "ok_ratio": ok_ratio,
        "decided_ratio": decided_ratio,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    uv = result["uv_bits_by_call"]
    rows = [{"id": c["id"], "group": c["group"], "size": c["size"],
             "seconds": latencies[i], "samples": len(result["latencies"][keys[i]]),
             "status": statuses[i], "uv_max_bits": uv.get(keys[i], "")}
            for i, c in enumerate(calls)]
    return metrics, rows


def layer_summary(result: dict) -> dict:
    """Counts from the first traced pass (every traced pass makes the same
    calls) and the median self time over traced passes; the tracing
    overhead is the traced minus the untraced wall time of a full pass."""
    layers = result["layers"]
    out = {}
    for name in tracing.metric_names():
        if name.endswith(".self_s"):
            out[name] = statistics.median(layer[name] for layer in layers)
        else:
            out[name] = layers[0][name]
    out["tracing_overhead_s"] = (statistics.median(result["traced_walls"])
                                 - statistics.median(result["full_walls"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["family", "links", "forms"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    try:
        if not (src / "steincheck" / "cli.py").is_file():
            raise BenchError("no steincheck sources under %s; run from the checkout root" % src)
        setup_s = measure_setup(root, src)

        import gen  # sympy is imported here, after the setup timing

        work = Path(".perfbench") / args.workload
        shutil.rmtree(work, ignore_errors=True)
        calls = gen.build(args.workload, args.seed, work)
        spec = {
            "src": str(src),
            "calls": calls,
            "limit_s": gen.TIME_LIMIT_S[args.workload],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out": str(work),
        }
        spec_path, result_path = work / "calls.json", work / "result.json"
        spec_path.write_text(json.dumps(spec))
        budget = RUN_DEADLINE_S - (time.perf_counter() - t_start)
        result = run_worker(spec_path, result_path, root, budget)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics, rows = summarize(calls, result)
    metrics["setup_s"] = setup_s
    with open(work / "inputs.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    statuses = [row["status"] for row in rows]
    samples = [row["samples"] for row in rows]
    print("workload %s, seed %d: %d calls, %d attempts, limit %.1f s per call"
          % (args.workload, args.seed, len(calls), result["attempts"], spec["limit_s"]))
    print("outcomes: %d decided, %d undecided, %d timeout, %d error, %d wrong"
          % tuple(statuses.count(s) for s in
                  ("decided", "undecided", "timeout", "error", "wrong")))
    if result["changed_outcomes"]:
        print("warning: %d repeated calls changed outcome" % result["changed_outcomes"])
    n_ok = statuses.count("decided") + statuses.count("undecided")
    notes = {
        "setup_s": "median of %d launches" % SETUP_LAUNCHES,
        "wall_s": "sum of per-call medians over %d calls" % len(calls),
        "call_p50_ms": "N = %d calls, %d to %d samples each" % (
            len(calls), min(samples), max(samples)),
        "call_p90_ms": "N = %d calls, %d above it" % (
            len(calls), len(calls) - math.ceil(0.9 * len(calls))),
        "ok_ratio": "N = %d calls" % len(calls),
        "decided_ratio": "N = %d calls" % n_ok,
        "peak_rss_mb": "worker process",
    }
    for name, unit in END_TO_END_UNITS.items():
        print("  %-14s %14.6f %-5s (%s)" % (name, metrics[name], unit, notes[name]))

    if args.trace:
        layer = layer_summary(result)
        print("per-layer, traced run (%d traced passes):" % len(result["layers"]))
        for name, value in layer.items():
            print("  %-44s %s" % (name, value))
        report = {name: {"value": value, "unit": layer_unit(name)}
                  for name, value in layer.items()}
    else:
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["bad_attempts"] == 0,
                      "attempted": result["attempts"], "failed": result["bad_attempts"],
                      "metrics": report}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("uv_max_bits") else "count"


if __name__ == "__main__":
    sys.exit(main())

"""Makes a workload's calls into steincheck: one process, one caller, one
call at a time (a closed loop), each under a time limit.

    python3 perfbench/worker.py <calls.json> <result.json>

The calls file holds the calls (see gen.py) and the run settings.  A
first pass makes every call; then passes over the calls that were not cut
off repeat until the measuring time is used up, so each latency is a
median over several passes.  With tracing on, full untraced
and traced passes alternate instead, so the tracing overhead is measured
in the same run; spans of the first traced pass are written out at the
end.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing


class CallTimeout(BaseException):
    """Raised inside a call that exceeds the per-call time limit."""


class Limit:
    """SIGALRM-based time limit that raises only while a call is armed."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CallTimeout()

    @contextlib.contextmanager
    def __call__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def invoke(sc, call: dict):
    """Run one call through steincheck's public entry points; looks the
    functions up at call time so that trace wrappers are used."""
    kind = call["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sc.cli.run(call["argv"])
        return code, out.getvalue()
    args = call["args"]
    form = sc.quadform.QuadraticForm.from_rows(args["gram"])
    if kind == "solve_square":
        return sc.quadform.solve_square(form, args["c"])
    if kind == "class_rigidity":
        manifold = sc.handle.AlgebraicFourManifold(
            form=form, c1=(0, 0), euler=2, sig=0, simply_connected=True,
            boundary_homology_sphere=True, stein=True)
        member = sc.surgery.LogTransformFamilyMember(
            p=1, manifold=manifold, s_class=tuple(args["s"]))
        return sc.obstruct.class_rigidity(member)
    raise ValueError("unknown call kind %r" % kind)


def judge(call: dict, result) -> str:
    """'decided' or 'undecided' for a correct output, else 'wrong'.  A CLI
    call with a definite answer must exit 0; an undecided one must exit 1."""
    check = call["check"]
    kind = check["type"]
    if call["kind"] == "cli":
        code, out = result
        if kind == "iso":
            verdict = json.loads(out)["verdict"] if check["output"] == "json" else out.strip()
            if verdict == "undecided":
                return "undecided" if code == 1 else "wrong"
            return "decided" if (code, verdict) == (0, check["verdict"]) else "wrong"
        if kind == "basis":
            obj = json.loads(out)
            if not obj["complete"]:
                return "undecided" if code == 1 else "wrong"
            ok = obj == check["value"]
        elif kind == "text":
            ok = out == check["value"]
        elif kind == "json":
            ok = json.loads(out) == check["value"]
        elif kind == "csv":
            ok = list(csv.reader(io.StringIO(out))) == check["rows"]
        elif kind == "lines":
            ok = set(check["lines"]) <= set(out.splitlines())
        else:
            raise ValueError("unknown check %r" % kind)
        return "decided" if ok and code == 0 else "wrong"
    if kind == "solutions":
        got = {tuple(v) for v in result.vectors}
        want = {tuple(v) for v in check["value"]}
        if not result.complete:
            return "undecided" if got <= want else "wrong"
        return "decided" if got == want else "wrong"
    return "decided" if result == check["value"] else "wrong"


class Runner:
    def __init__(self, sc, limit: Limit, tracer=None):
        self.sc = sc
        self.limit = limit
        self.tracer = tracer

    def run_pass(self, calls: list[dict]) -> tuple[float, dict[int, tuple[float, str]]]:
        """Make each call once; returns the pass wall time and, per call
        order, its latency and outcome."""
        results = {}
        t_pass = time.perf_counter()
        for call in calls:
            if self.tracer is not None:
                self.tracer.call_id = call["order"]
                self.tracer.stack = []
            result = None
            t0 = time.perf_counter()
            try:
                with self.limit():
                    result = invoke(self.sc, call)
                status = "ok"
            except CallTimeout:
                status = "timeout"
            except Exception as exc:  # a failed call is a measured outcome
                status = "error"
                print("perfbench: %s raised %s" % (call["id"], type(exc).__name__),
                      file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if status == "ok":
                try:
                    status = judge(call, result)
                except (ValueError, KeyError, TypeError, AttributeError):
                    status = "wrong"
                if status == "wrong":
                    print("perfbench: wrong answer: %s" % call["id"], file=sys.stderr)
            results[call["order"]] = (elapsed, status)
        return time.perf_counter() - t_pass, results


class Record:
    """Latency samples per call, its first outcome, and attempt counts."""

    def __init__(self, calls: list[dict]):
        self.latencies: dict[int, list[float]] = {c["order"]: [] for c in calls}
        self.status: dict[int, str] = {}
        self.attempts = 0
        self.bad = 0
        self.changed = 0

    def add(self, results: dict[int, tuple[float, str]]) -> None:
        for order, (latency, status) in results.items():
            self.latencies[order].append(latency)
            first = self.status.setdefault(order, status)
            self.changed += status != first
            self.attempts += 1
            self.bad += status in ("wrong", "error")


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it started.  On Linux
    ru_maxrss also counts the parent's memory copied before exec, so the
    kernel's VmHWM is read instead where it exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, spec["src"])
    import steincheck  # noqa: F401  (binds the submodules below)
    import steincheck.cli
    import steincheck.handle
    import steincheck.obstruct
    import steincheck.quadform
    import steincheck.surgery

    calls = sorted(spec["calls"], key=lambda c: c["order"])
    # The expected answers are many small objects; keep them out of the
    # cyclic collector's scans, which would otherwise bill them to calls.
    gc.collect()
    gc.freeze()
    limit = Limit(spec["limit_s"])
    plain = Runner(steincheck, limit)
    record = Record(calls)
    seconds = spec["seconds"]
    start = time.perf_counter()
    full_walls, traced_walls, layers = [], [], []

    wall, results = plain.run_pass(calls)
    full_walls.append(wall)
    record.add(results)
    if spec["trace"]:
        # alternate full traced and untraced passes
        tracer = tracing.Tracer("steincheck", CallTimeout)
        traced = Runner(steincheck, limit, tracer)
        while True:
            tracer.reset()
            tracer.install()
            try:
                wall, _ = traced.run_pass(calls)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics())
            if len(layers) == 1:
                first_spans = tracer.spans
                uv_by_call = tracer.uv_bits_by_call()
            round_s = statistics.median(full_walls) + statistics.median(traced_walls)
            if time.perf_counter() - start + round_s > seconds:
                break
            wall, results = plain.run_pass(calls)
            full_walls.append(wall)
            record.add(results)
    else:
        # A call cut off by the time limit is not repeated: the limit
        # decides its outcome, and every repeat would cost the whole limit.
        repeat = [c for c in calls if record.status[c["order"]] != "timeout"]
        wall = sum(record.latencies[c["order"]][0] for c in repeat)
        while time.perf_counter() - start + wall <= seconds:
            wall, results = plain.run_pass(repeat)
            record.add(results)

    result = {
        "latencies": record.latencies,
        "status": record.status,
        "attempts": record.attempts,
        "bad_attempts": record.bad,
        "changed_outcomes": record.changed,
        "full_walls": full_walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb(),
        "uv_bits_by_call": uv_by_call if spec["trace"] else {},
    }
    Path(argv[1]).write_text(json.dumps(result))
    if spec["trace"]:
        first_spans.write(Path(spec["out"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around steincheck's public functions, recorded from outside the
program.

Each listed function is replaced, in every steincheck module namespace
that binds it, by a wrapper that records one span: function, start, end,
parent span and the benchmark call it belongs to.  Spans are kept in
flat arrays in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

MODULES = ("cli", "obstruct", "surgery", "quadform", "handle", "intlin")

FUNCTIONS = (
    "cli.run",
    "obstruct.homeo_decide",
    "obstruct.infinitude_report",
    "obstruct.class_rigidity",
    "obstruct.certificate_csv_rows",
    "surgery.x_family",
    "surgery.normalized_form",
    "quadform.classify",
    "quadform.is_isomorphic",
    "quadform.solve_square",
    "handle.boundary_first_homology",
    "handle.d3",
    "handle.c1_square",
    "intlin.smith_normal_form",
    "intlin.inertia",
    "intlin.determinant",
    "intlin.rational_solve",
    "intlin.congruence_transform",
)

COUNTERS = (
    "quadform.is_isomorphic.undecided",
    "quadform.is_isomorphic.det_calls",
    "quadform.solve_square.incomplete",
    "intlin.smith_normal_form.uv_max_bits",
    "intlin.smith_normal_form.timeouts",
)


def metric_names() -> list[str]:
    names = []
    for f in FUNCTIONS:
        names += [f + ".calls", f + ".self_s"]
    return names + list(COUNTERS)


class Spans:
    """Flat span storage: one entry per wrapped call."""

    def __init__(self):
        self.func = array("H")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("q")
        self.end = array("q")

    def __len__(self) -> int:
        return len(self.func)

    def add(self, func: int, parent: int, call: int) -> int:
        self.func.append(func)
        self.parent.append(parent)
        self.call.append(call)
        self.start.append(0)
        self.end.append(0)
        return len(self.func) - 1

    def self_ns(self) -> list[int]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        columns = ("func", "parent", "call", "start", "end")
        with open(directory / "spans.bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        meta = {
            "functions": list(FUNCTIONS),
            "count": len(self),
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize]
                        for c in columns],
            "time_unit": "ns, perf_counter",
        }
        (directory / "spans.json").write_text(json.dumps(meta, indent=1) + "\n")


class Tracer:
    """Installs and removes the span wrappers and owns the counters."""

    def __init__(self, package: str, timeout_exc: type[BaseException]):
        self.package = package
        self.timeout_exc = timeout_exc
        self.modules = [importlib.import_module(package)] + [
            importlib.import_module("%s.%s" % (package, m)) for m in MODULES]
        self.patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans = Spans()
        self.stack: list[int] = []
        self.call_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.snf_results: list = []
        self.open_iso = 0

    def install(self) -> None:
        for fid, qualname in enumerate(FUNCTIONS):
            mod_name, fname = qualname.split(".")
            home = importlib.import_module("%s.%s" % (self.package, mod_name))
            original = getattr(home, fname)
            wrapper = self._wrap(fid, qualname, original)
            for mod in self.modules:
                if getattr(mod, fname, None) is original:
                    self.patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self.patched):
            setattr(mod, fname, original)
        self.patched = []

    def _wrap(self, fid: int, qualname: str, fn):
        t = self
        is_det = qualname == "intlin.determinant"
        is_iso = qualname == "quadform.is_isomorphic"
        is_solve = qualname == "quadform.solve_square"
        is_snf = qualname == "intlin.smith_normal_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_det and t.open_iso:
                t.counters["quadform.is_isomorphic.det_calls"] += 1
            t.open_iso += is_iso
            idx = t.spans.add(fid, t.stack[-1] if t.stack else -1, t.call_id)
            t.stack.append(idx)
            t.spans.start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except t.timeout_exc:
                if is_snf:
                    t.counters["intlin.smith_normal_form.timeouts"] += 1
                raise
            finally:
                t.spans.end[idx] = perf_counter_ns()
                t.stack.pop()
                t.open_iso -= is_iso
            if is_iso and result == "undecided":
                t.counters["quadform.is_isomorphic.undecided"] += 1
            elif is_solve and not result.complete:
                t.counters["quadform.solve_square.incomplete"] += 1
            elif is_snf:
                t.snf_results.append((t.call_id, result))
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per function, plus the counters, for the
        spans recorded since the last reset."""
        calls = [0] * len(FUNCTIONS)
        self_ns = [0] * len(FUNCTIONS)
        for f, s in zip(self.spans.func, self.spans.self_ns()):
            calls[f] += 1
            self_ns[f] += s
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            out[name + ".calls"] = calls[fid]
            out[name + ".self_s"] = self_ns[fid] / 1e9
        out.update(self.counters)
        out["intlin.smith_normal_form.uv_max_bits"] = max(self.uv_bits_by_call().values(),
                                                           default=0)
        return out

    def uv_bits_by_call(self) -> dict[int, int]:
        """Largest U, V bit-length of the Smith forms computed in each call."""
        out: dict[int, int] = {}
        for call, snf in self.snf_results:
            out[call] = max(out.get(call, 0), uv_bits(snf))
        return out


def uv_bits(snf) -> int:
    """Largest bit-length of an entry of the transforms U and V."""
    return max((abs(e).bit_length() for m in (snf.U, snf.V) for row in m.entries for e in row),
               default=0)

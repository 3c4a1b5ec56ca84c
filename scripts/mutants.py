"""Mutation harness: every committed mutant must make its listed tests fail.

    python scripts/mutants.py    # every mutant, in list order

A mutant is a file under src/steincheck, an exact snippet that occurs there
once, its replacement, and the test files that must catch it.  Mutants run
one at a time, never in parallel.  Each copies src/ to a fresh temporary
directory, edits the copy, and runs ``python -m pytest -x -q`` on its test
files from the repository root, with PYTHONPATH set to the copy and a time
limit of TIMEOUT seconds.  Pytest's exit code 1 (a test failed) reads
"killed", 0 "survived", and the time limit "timed out"; any other exit code
(a collection or usage error) reads "error", and a snippet that no longer
occurs exactly once reads "stale".  First the unmodified copy must import from the copy and pass the
union of the listed test files, so a kill is always the mutant's.

The exit status is 0 only when every mutant is killed.  A survivor stays in
the list: it marks a gap in the tests until a test catches it.  Standard
library only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run; the whole list takes about 75 s


class Mutant(NamedTuple):
    name: str
    file: str  # under src/steincheck
    snippet: str
    replacement: str
    tests: tuple[str, ...]


QUADFORM = ("tests/test_quadform.py",)
OBSTRUCT = ("tests/test_obstruct.py",)
INTLIN = ("tests/test_intlin.py",)
SURGERY_AND_CLI = ("tests/test_surgery.py", "tests/test_cli.py")
DISPATCH = ("tests/test_dispatch.py",)
READERS = ("tests/test_intlin.py", "tests/test_readers.py", "tests/test_cli.py")
HANDLE = ("tests/test_handle.py",)

MUTANTS = (
    # form_key and the homeomorphism classes grouped by it
    Mutant("key-without-the-class", "quadform.py",
           "            return fc, least\n", "            return (least,)\n", QUADFORM),
    Mutant("key-without-the-reversed-forms", "quadform.py",
           "least = min(least, form, form[::-1])", "least = min(least, form)", QUADFORM),
    Mutant("walk-stops-before-the-cycle-closes", "quadform.py",
           "        if form == start:\n", "        if _rho(form, D, s) == start:\n", QUADFORM),
    Mutant("one-none-key-undecided", "quadform.py",
           "if kf is None and kg is None", "if kf is None or kg is None", QUADFORM),
    Mutant("failed-hypotheses-share-a-class", "obstruct.py",
           "key = (form_key(M.form) or M.form.gram.entries) if holds else i",
           "key = form_key(M.form) or M.form.gram.entries", OBSTRUCT),
    Mutant("key-none-grouped-by-class", "obstruct.py",
           "(form_key(M.form) or M.form.gram.entries)", "(form_key(M.form) or classify(M.form))",
           OBSTRUCT),
    Mutant("key-none-own-class", "obstruct.py",
           "(form_key(M.form) or M.form.gram.entries)", "(form_key(M.form) or i)", OBSTRUCT),
    Mutant("list-rows-accepted", "intlin.py",
           '            if not isinstance(row, tuple):\n'
           '                raise ValueError("matrix rows must be tuples")\n',
           "", ("tests/test_records.py",)),
    # the per-key memo of infinitude_report and the key (N, w) of family_bounds
    Mutant("rigidity-key-without-w", "obstruct.py",
           "        if (N, w) not in rigid:\n"
           "            rigid[N, w] = class_rigidity(rep), classify(rep.manifold.form)\n"
           "            representatives.append(rep.manifold)\n"
           "        rows.append((p, bound.lower_bound, *rigid[N, w]))\n",
           "        if N not in rigid:\n"
           "            rigid[N] = class_rigidity(rep), classify(rep.manifold.form)\n"
           "            representatives.append(rep.manifold)\n"
           "        rows.append((p, bound.lower_bound, *rigid[N]))\n", OBSTRUCT),
    Mutant("rigidity-key-without-N", "obstruct.py",
           "        if (N, w) not in rigid:\n"
           "            rigid[N, w] = class_rigidity(rep), classify(rep.manifold.form)\n"
           "            representatives.append(rep.manifold)\n"
           "        rows.append((p, bound.lower_bound, *rigid[N, w]))\n",
           "        if w not in rigid:\n"
           "            rigid[w] = class_rigidity(rep), classify(rep.manifold.form)\n"
           "            representatives.append(rep.manifold)\n"
           "        rows.append((p, bound.lower_bound, *rigid[w]))\n", OBSTRUCT),
    Mutant("w-fixed-to-(0, 1)", "obstruct.py",
           "s0), (s0 - s0 * s1, s1)", "s0), (0, 1)", OBSTRUCT),
    Mutant("w-untransported", "obstruct.py",
           "s0), (s0 - s0 * s1, s1)", "s0), (s0, s1)", OBSTRUCT),
    Mutant("memo-kept-across-calls", "obstruct.py",
           "rigid = {}  # (N, w) -> (verdict, FormClass), kept for this call only",
           'rigid = infinitude_report.__dict__.setdefault("memo", {})', OBSTRUCT),
    # the rules the certificate and the genus bound derive from their fields
    Mutant("bound-without-abs", "obstruct.py",
           "abs(self.c1_pairing) + self.self_intersection + 2",
           "self.c1_pairing + self.self_intersection + 2", OBSTRUCT),
    Mutant("bounds-increase-not-strict", "obstruct.py",
           "all(a < b for a, b in zip(self.bounds, self.bounds[1:]))",
           "all(a <= b for a, b in zip(self.bounds, self.bounds[1:]))", OBSTRUCT),
    Mutant("conclusion-without-rigidity", "obstruct.py",
           "self.all_homeomorphic and all(self.rigidity)", "self.all_homeomorphic", OBSTRUCT),
    Mutant("conclusion-from-one-member", "obstruct.py",
           "len(self.parameters) >= 2", "len(self.parameters) >= 1", OBSTRUCT),
    Mutant("family-label-parities-swapped", "obstruct.py",
           '"2q-1" if self.parity == "odd"', '"2q-1" if self.parity == "even"',
           ("tests/test_cli.py",)),
    # each classify field and the two rules FormClass derives from them
    Mutant("signature-negated", "quadform.py",
           "signature=pos - neg,", "signature=neg - pos,", QUADFORM),
    Mutant("parity-test-inverted", "quadform.py",
           'parity="even" if all(', 'parity="even" if not all(', QUADFORM),
    Mutant("determinant-kept-when-a-zero-is-counted", "quadform.py",
           "determinant=0 if zero else det,", "determinant=det,", QUADFORM),
    Mutant("positive-and-negative-swapped", "quadform.py",
           '"positive"\n        return "negative"', '"negative"\n        return "positive"',
           QUADFORM),
    Mutant("unimodular-without-abs", "quadform.py",
           "return abs(self.determinant) == 1", "return self.determinant == 1", QUADFORM),
    # the one member formula, read by no test: the closed forms and goldens catch it
    Mutant("form-entry-minus-four", "surgery.py",
           "-2 * p * p + p - 3", "-2 * p * p + p - 4", SURGERY_AND_CLI),
    Mutant("k-without-plus-one", "surgery.py",
           "(p * p - q + 1, 1)", "(p * p - q, 1)", SURGERY_AND_CLI),
    Mutant("c1-is-(0, 1 - p)", "surgery.py",
           "(0, -1 - p)", "(0, 1 - p)", SURGERY_AND_CLI),
    # the basis of _canonical_binary and solve_square on the reduced form
    Mutant("reduction-basis-unmirrored", "quadform.py",
           "(u, w if b >= 0 else (-w[0], -w[1]))", "(u, w)", QUADFORM),
    Mutant("isotropic-u-unflipped", "quadform.py",
           "            x, y = -x, -y\n", "            pass\n", QUADFORM),
    Mutant("isotropic-w-unsheared", "quadform.py",
           "(ws - t * x, wt - t * y)", "(ws, wt)", QUADFORM),
    Mutant("definite-sweep-bounded-by-d", "quadform.py",
           "ymax = isqrt(a * c // -D)", "ymax = isqrt(d * c // -D)", QUADFORM),
    # the +-s rigidity test
    Mutant("plus-minus-without-complete", "quadform.py",
           "return self.complete and set(self.vectors)", "return set(self.vectors)", QUADFORM),
    # the closed-form 2 x 2 case of _symmetric_bareiss
    Mutant("definite-sign-flipped", "intlin.py",
           "(2, 0, 0, det) if a > 0 else", "(2, 0, 0, det) if a < 0 else", INTLIN),
    Mutant("degenerate-trace-test-at-zero", "intlin.py",
           "(1, 0, 1, 0) if t > 0", "(1, 0, 1, 0) if t >= 0", INTLIN),
    Mutant("det-negated", "intlin.py",
           "return (1, 1, 0, det) if det < 0 else (2, 0, 0, det) if a > 0 else (0, 2, 0, det)",
           "return (1, 1, 0, -det) if det < 0 else (2, 0, 0, -det) if a > 0 else (0, 2, 0, -det)",
           INTLIN),
    Mutant("degenerate-pivot-changed", "intlin.py",
           "return (1, 0, 1, 0) if t > 0", "return (1, 0, 1, t) if t > 0", INTLIN),
    # the closed-form shear and the symmetry check
    Mutant("shear-corner-entry-wrong", "surgery.py",
           "(ak_b + b) * k + c", "(ak_b - b) * k + c", ("tests/test_surgery.py",)),
    # the Bezout row step of cokernel
    Mutant("bezout-y-sign-flipped", "intlin.py",
           "y = (1 - x * a) // b", "y = (x * a - 1) // b", INTLIN),
    Mutant("is-symmetric-always-true", "intlin.py",
           "return self.is_square and self.entries == tuple(zip(*self.entries))",
           "return True", ("tests/test_records.py",)),
    # the one integer reader: each refusal
    Mutant("non-ascii-digits-accepted", "intlin.py",
           "if not (digits.isascii() and digits.isdigit()):", "if not digits.isdigit():",
           READERS),
    Mutant("digit-limit-message-unreplaced", "intlin.py",
           "        try:\n"
           "            return int(value)\n"
           "        except ValueError:  # valid digits, so int() refused them for the digit limit\n"
           '            raise ValueError("integer string of more than %d digits: %s"\n'
           "                             % (sys.get_int_max_str_digits(), _clip(repr(value)))) from None\n",
           "        return int(value)\n", READERS),
    Mutant("boolean-accepted", "intlin.py",
           "    if isinstance(value, bool):\n"
           '        raise ValueError("expected an integer, got a boolean")\n',
           "", READERS),
    Mutant("non-integer-passed-through", "intlin.py",
           'raise ValueError("expected an integer or decimal string, got %s" % _clip(repr(value)))',
           "return value", READERS),
    # each parameter domain, checked in the function that takes the value
    Mutant("member-p-minus-one-accepted", "surgery.py",
           '    if p < 0:\n        raise ValueError("family parameters must be >= 0")',
           '    if p < -1:\n        raise ValueError("family parameters must be >= 0")',
           SURGERY_AND_CLI),
    Mutant("parity-name-unchecked", "surgery.py",
           "    if parity not in (\"odd\", \"even\"):\n"
           "        raise ValueError(\"parity must be 'odd' or 'even'\")\n",
           "", SURGERY_AND_CLI),
    Mutant("q-zero-accepted", "surgery.py", "if q < 1:", "if q < 0:", SURGERY_AND_CLI),
    Mutant("fp-p-minus-one-accepted", "surgery.py",
           '    if p < 0:\n        raise ValueError("mapping-class parameter',
           '    if p < -1:\n        raise ValueError("mapping-class parameter', SURGERY_AND_CLI),
    Mutant("v-family-p-zero-accepted", "surgery.py",
           '    if p < 1:\n        raise ValueError("family parameter must be a positive integer")',
           '    if p < 0:\n        raise ValueError("family parameter must be a positive integer")',
           SURGERY_AND_CLI),
    Mutant("max-p-zero-accepted", "cli.py", "if args.max_p < 1:", "if args.max_p < 0:",
           ("tests/test_cli.py",)),
    # each term of _d3_terms: d3 (its c1^2, sigma and chi), c1^2, sigma and det
    Mutant("c1-square-negated", "handle.py",
           "csq = Fraction(-m[-1][-1], det)", "csq = Fraction(m[-1][-1], det)", HANDLE),
    Mutant("d3-sigma-negated", "handle.py",
           "(csq - 3 * (pos - neg) - 2", "(csq - 3 * (neg - pos) - 2", HANDLE),
    Mutant("d3-chi-without-the-one", "handle.py", "2 * (1 + L.n)", "2 * L.n", HANDLE),
    Mutant("returned-sigma-negated", "handle.py",
           "/ 4, csq, pos - neg, det", "/ 4, csq, neg - pos, det", HANDLE),
    Mutant("returned-det-unsigned", "handle.py",
           "/ 4, csq, pos - neg, det", "/ 4, csq, pos - neg, abs(det)", HANDLE),
    # one parse per call, at the parser where the command words stop
    Mutant("leftover-arguments-accepted", "cli.py",
           "    if extras:\n"
           '        _command_tree()[0].error("unrecognized arguments: %s" % " ".join(extras))\n',
           "", DISPATCH),
    Mutant("leftovers-refused-by-the-leaf", "cli.py",
           "args, extras = parser.parse_known_args(argv[i:])",
           "args, extras = parser.parse_args(argv[i:]), []", DISPATCH),
    Mutant("walk-stops-one-word-early", "cli.py",
           "while i < len(argv) and argv[i] in words:",
           "while i < len(argv) and words.get(argv[i], (None, {}))[1]:", DISPATCH),
    Mutant("every-argv-parsed-at-the-root", "cli.py",
           "while i < len(argv) and argv[i] in words:", "while False:", DISPATCH),
)


def run_pytest(src: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """(verdict, tail of pytest's output) for the given tests against src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # a session of its own, so a timeout also ends what the tests started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timed out", ""
    tail = "\n".join(out.strip().splitlines()[-3:])
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), tail


def fresh_copy(workdir: Path) -> Path:
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def check_baseline(workdir: Path) -> None:
    src = fresh_copy(workdir)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import steincheck; print(steincheck.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()
    if not where.startswith(str(src)):
        sys.exit("steincheck imports from %r, not from the copy" % where)
    tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    verdict, tail = run_pytest(src, tests)
    if verdict != "survived":
        sys.exit("the unmodified source does not pass %s (%s)\n%s" % (" ".join(tests), verdict, tail))


def run_mutant(workdir: Path, m: Mutant) -> tuple[str, str]:
    path = fresh_copy(workdir) / "steincheck" / m.file
    text = path.read_text()
    if text.count(m.snippet) != 1:
        return "stale", "the snippet occurs %d times in %s" % (text.count(m.snippet), m.file)
    path.write_text(text.replace(m.snippet, m.replacement))
    return run_pytest(workdir / "src", m.tests)


def main() -> int:
    counts = dict.fromkeys(("killed", "survived", "timed out", "error", "stale"), 0)
    with tempfile.TemporaryDirectory(prefix="steincheck-mutants-") as tmp:
        check_baseline(Path(tmp))
        for m in MUTANTS:
            started = time.perf_counter()
            verdict, detail = run_mutant(Path(tmp), m)
            counts[verdict] += 1
            print("%-9s %6.1fs  %s" % (verdict, time.perf_counter() - started, m.name), flush=True)
            if verdict in ("error", "stale"):
                print("          " + detail.replace("\n", "\n          "))
    print(", ".join("%s %d" % item for item in counts.items()))
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

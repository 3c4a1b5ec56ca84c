"""Acceptance suite.

Each test checks one criterion end to end, exactly (no tolerances anywhere:
everything is integer or rational arithmetic), and prints a PASS/FAIL line.
Run with ``pytest -s tests/test_acceptance.py`` to see the report.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from steincheck.handle import FramedLinkPresentation, boundary_first_homology, d3
from steincheck.intlin import IntMatrix, congruence_transform, determinant, smith_normal_form
from steincheck.obstruct import adjunction_lower_bound, homeo_decide, infinitude_report
from steincheck.quadform import QuadraticForm, classify, solve_square
from steincheck.surgery import compose, fp_matrix, stabilizes_summand, v_family_homology, x_family

from oracles import (
    perm_determinant,
    random_int_matrix,
    random_symmetric_matrix,
    random_unimodular_matrix,
    sweep_square_solutions,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "certificate_odd_q1_10.json"


def report(number, title, ok):
    print("ACCEPTANCE %2d %-38s %s" % (number, title, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, title)


def test_criterion_01_homeomorphism_parity_rule():
    members = {p: x_family(p) for p in range(0, 31)}
    ok = True
    for p in range(1, 31):
        for q in range(1, 31):
            verdict = homeo_decide(members[p].manifold, members[q].manifold)
            expected = "homeomorphic" if (p - q) % 2 == 0 else "not_homeomorphic"
            ok = ok and verdict == expected
        vs_x = homeo_decide(members[p].manifold, members[0].manifold)
        ok = ok and vs_x == ("homeomorphic" if p % 2 == 1 else "not_homeomorphic")
    report(1, "homeomorphism iff equal parity", ok)


def test_criterion_02_unimodularity_and_boundary():
    ok = True
    for p in range(1, 101):
        gram = IntMatrix.from_rows([[0, 1], [1, -2 * p * p + p - 3]])
        ok = ok and determinant(gram) == -1
        link = FramedLinkPresentation(gram, (0, -1 - p))
        ok = ok and boundary_first_homology(link).is_trivial
    report(2, "unimodular forms, boundary trivial H1", ok)


def test_criterion_03_distinguished_class_solutions():
    ok = True
    for p in range(1, 31):
        member = x_family(p)
        d = member.manifold.form.gram.entries[1][1]
        c = -2 if p % 2 == 1 else -1
        k = member.s_class[0]
        sols = solve_square(member.manifold.form, c)
        ok = ok and sols.complete and set(sols.vectors) == {(k, 1), (-k, -1)}
        # independent cross-check by a sweep over the box
        box = sweep_square_solutions([[0, 1], [1, d]], c, 200)
        exact_in_box = {v for v in sols.vectors if max(abs(v[0]), abs(v[1])) <= 200}
        ok = ok and box == exact_in_box
    report(3, "v.v = -2/-1 solved only by +-S_p", ok)


def test_criterion_04_normalized_forms():
    from steincheck.surgery import normalized_form

    ok = True
    for p in range(1, 101):
        target = ((0, 1), (1, -2)) if p % 2 == 1 else ((0, 1), (1, -1))
        ok = ok and normalized_form(x_family(p)).gram.entries == target
    report(4, "basis change normalizes the forms", ok)


def test_criterion_05_genus_bounds_and_certificates():
    ok = True
    for q in range(1, 51):
        odd = x_family(2 * q - 1)
        even = x_family(2 * q)
        ok = ok and adjunction_lower_bound(odd.manifold, odd.s_class).lower_bound == q
        ok = ok and adjunction_lower_bound(even.manifold, even.s_class).lower_bound == q + 1
    ok = ok and infinitude_report("odd", range(1, 51)).conclusion
    ok = ok and infinitude_report("even", range(1, 51)).conclusion
    report(5, "genus bounds q / q+1, certificates true", ok)


def test_criterion_06_mapping_class_checks():
    ok = True
    for p in range(1, 31):
        fp = fp_matrix(p)
        ok = ok and determinant(fp.matrix) == 1
        ok = ok and stabilizes_summand(fp)
        for q in range(1, 31):
            ok = ok and compose(fp, fp_matrix(q)).matrix.entries == fp_matrix(p + q).matrix.entries
    report(6, "mapping classes: group law, summand", ok)


def test_criterion_07_v_family_homology():
    ok = True
    for p in range(1, 51):
        grp = v_family_homology(p)
        ok = ok and grp.free_rank == 1
        ok = ok and grp.torsion == (() if p == 1 else (p,))
    report(7, "reglued family H1 = Z + Z/p", ok)


def test_criterion_08_d3_values():
    empty = FramedLinkPresentation(IntMatrix.from_rows([]), ())
    ok = d3(empty) == Fraction(-1, 2)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = ok and d3(FramedLinkPresentation(IntMatrix.from_rows([[-2]]), (0,))) == Fraction(-1, 4)
        ok = ok and d3(FramedLinkPresentation(IntMatrix.from_rows([[-3]]), (1,))) == Fraction(-1, 3)
    report(8, "d3 values -1/2, -1/4, -1/3", ok)


def test_criterion_09_oracle_suites():
    ok = True
    rng = random.Random(65537)
    for _ in range(1000):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        A = IntMatrix.from_rows(random_int_matrix(rng, rows, cols, -20, 20))
        snf = smith_normal_form(A)
        ok = ok and (snf.U @ A @ snf.V).entries == snf.D.entries
        ok = ok and determinant(snf.U) in (1, -1) and determinant(snf.V) in (1, -1)
        diag = snf.diagonal()
        ok = ok and all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            ok = ok and (diag[i + 1] == 0 if diag[i] == 0 else diag[i + 1] % diag[i] == 0)
    for _ in range(400):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n, -5, 5)
        ok = ok and determinant(IntMatrix.from_rows(a)) == perm_determinant(a)
    for _ in range(500):
        n = rng.randint(1, 4)
        F = IntMatrix.from_rows(random_symmetric_matrix(rng, n, -9, 9))
        B = IntMatrix.from_rows(random_unimodular_matrix(rng, n))
        G = congruence_transform(F, B)
        ok = ok and classify(QuadraticForm(G)).signature == classify(QuadraticForm(F)).signature
    report(9, "oracle suites: SNF, det, signature", ok)


def test_criterion_10_cli_determinism():
    args = [
        sys.executable,
        "-m",
        "steincheck",
        "certificate",
        "--parity",
        "odd",
        "--q-range",
        "1..10",
        "--output",
        "json",
    ]
    runs = [subprocess.run(args, capture_output=True) for _ in range(2)]
    ok = all(r.returncode == 0 for r in runs)
    ok = ok and runs[0].stdout == runs[1].stdout
    ok = ok and runs[0].stdout == GOLDEN.read_bytes()
    ok = ok and json.loads(runs[0].stdout)["conclusion"] is True
    report(10, "CLI golden-file byte determinism", ok)

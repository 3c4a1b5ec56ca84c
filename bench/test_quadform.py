"""Scaling curves of ``solve_square`` over the size of c.

    PYTHONPATH=src python -m pytest bench/test_quadform.py --benchmark-json out.json

Each case solves v.v = c on a seeded rank-2 form at |c| near 10^2, 10^4, ...,
10^10, for three kinds of form: positive or negative definite (D < 0, the
sweep over y), isotropic [[0, e], [e, d]] and its mirror (D = e^2) and split
with no zero diagonal entry (D = r^2), both solved over the divisors of c on
the reduced form.  Definite and split cases take c = v.v of a random v, so
the set is not empty.  ``extra_info["steps"]`` is the number of loop
iterations, measured in one separate, untimed call as the summed length of
the ranges that ``solve_square`` iterates over; it grows like sqrt(|c|) in
every kind.
``test_solve_square_long_axis`` solves diag(10^6, 1) and its mirror at
c = 10^12, where a sweep along the axis of the larger diagonal entry would
take 10^3 times the steps, and ``test_solve_square_unreduced_definite``
solves [[5, 7], [7, 10]], x^2 + y^2 in another basis, at c = 10^6, where the
sweep on the reduced form takes 2,001 steps and one along the smaller
diagonal entry 4,473.  ``test_solve_square_not_finite`` times the forms
whose sets are not all finite (D = 0, a non-square D > 0, c = 0 on a square
D), where ``solve_square`` answers without a loop step.

``test_is_isomorphic`` times one pass of ``is_isomorphic`` over a seeded list
of pairs per kind: family forms of equal and of different parity (decided by
the classes alone), same-determinant definite rank-2 pairs (decided by
reduction), indefinite rank-2 pairs of non-square D > 0 (decided by walking
the whole cycle of reduced forms of each form, 34 to 6,322 forms long for
x^2 - Dy^2) and rank-3 pairs B^T F B with equal invariants (undecided).
``test_infinitude_report`` builds the odd certificate over q = 1..50, 1..200,
1..800 and 1..10^4; ``extra_info["eliminations"]`` counts the
``_symmetric_bareiss`` calls that ``classify`` makes in one report and
``extra_info["x_family"]`` the members it builds, both measured in one
separate, untimed call.  The odd members share one normal form and one
distinguished class on it, so both are one for every q-range.
``test_is_isomorphic`` reuses its pairs across rounds, so every round after
the first reads the classes kept on those forms.
"""

from __future__ import annotations

import random
from math import isqrt

import pytest

import steincheck.obstruct as obstruct
import steincheck.quadform as quadform
from steincheck.intlin import IntMatrix, congruence_transform
from steincheck.obstruct import infinitude_report
from steincheck.quadform import QuadraticForm, is_isomorphic, solve_square
from steincheck.surgery import x_family

EXPONENTS = (2, 4, 6, 8, 10)
KINDS = ("definite", "isotropic", "split")


def case(kind: str, k: int) -> tuple[list[list[int]], int]:
    """A seeded Gram matrix of the given kind and a c with |c| near 10^k."""
    rng = random.Random("%s-%d" % (kind, k))
    if kind == "isotropic":
        e, d = rng.choice((1, -1, 2, -3)), rng.randint(-9, 9)
        gram = [[0, e], [e, d]] if rng.random() < 0.5 else [[d, e], [e, 0]]
        return gram, rng.choice((1, -1)) * rng.randint(10**k, 2 * 10**k)
    while True:
        a, b, d = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        D = b * b - a * d
        if D < 0 if kind == "definite" else D > 0 and d != 0 and isqrt(D) ** 2 == D:
            break
    sign = rng.choice((1, -1))
    gram = [[sign * a, sign * b], [sign * b, sign * d]]
    while True:
        # |v| of order 10^(k/2) makes |v.v| of order 10^k
        x, y = (rng.randint(-(10 ** (k // 2)), 10 ** (k // 2)) for _ in range(2))
        c = sign * (a * x * x + 2 * b * x * y + d * y * y)
        if c != 0:
            return gram, c


def steps(F: QuadraticForm, c: int, monkeypatch) -> int:
    total = 0

    def counted(*args):
        nonlocal total
        r = range(*args)
        total += len(r)
        return r

    with monkeypatch.context() as m:
        m.setattr(quadform, "range", counted, raising=False)
        solve_square(F, c)
    return total


@pytest.mark.parametrize("k", EXPONENTS, ids=lambda k: "c1e%d" % k)
@pytest.mark.parametrize("kind", KINDS)
def test_solve_square(benchmark, monkeypatch, kind, k):
    gram, c = case(kind, k)
    F = QuadraticForm.from_rows(gram)
    benchmark.group = "solve_square-%s" % kind
    benchmark.extra_info.update(gram=gram, c=c, steps=steps(F, c, monkeypatch))
    result = benchmark(solve_square, F, c)
    assert result.complete


# Forms whose sets of v.v = c are not all finite: D = 0 (lines for c = k m^2,
# here (2x + y)^2 = 4, else empty and complete), a non-square D > 0 (empty or
# infinite for c != 0, the origin alone for c = 0) and c = 0 on a square D.
# Each is (gram, c, vectors, complete), answered without a loop step.
NOT_FINITE = {
    "degenerate": ([[4, 2], [2, 1]], 4, (), False),
    "degenerate-empty": ([[4, 2], [2, 1]], 3, (), True),
    "non-square-D": ([[1, 0], [0, -7]], 2, (), False),
    "non-square-D-c0": ([[1, 0], [0, -7]], 0, ((0, 0),), True),
    "isotropic-c0": ([[0, 1], [1, 3]], 0, (), False),
}


@pytest.mark.parametrize("kind", list(NOT_FINITE))
def test_solve_square_not_finite(benchmark, monkeypatch, kind):
    gram, c, vectors, complete = NOT_FINITE[kind]
    F = QuadraticForm.from_rows(gram)
    benchmark.group = "solve_square-not-finite"
    benchmark.extra_info.update(gram=gram, c=c, steps=steps(F, c, monkeypatch))
    assert benchmark.extra_info["steps"] == 0
    assert benchmark(solve_square, F, c) == (vectors, complete)


@pytest.mark.parametrize("gram", ([[10**6, 0], [0, 1]], [[1, 0], [0, 10**6]]),
                         ids=("large-first-diagonal", "large-second-diagonal"))
def test_solve_square_long_axis(benchmark, monkeypatch, gram):
    F = QuadraticForm.from_rows(gram)
    benchmark.group = "solve_square-long-axis"
    benchmark.extra_info.update(gram=gram, c=10**12, steps=steps(F, 10**12, monkeypatch))
    result = benchmark(solve_square, F, 10**12)
    assert result.complete and len(result.vectors) == 28


def test_solve_square_unreduced_definite(benchmark, monkeypatch):
    gram, c = [[5, 7], [7, 10]], 10**6
    F = QuadraticForm.from_rows(gram)
    benchmark.group = "solve_square-long-axis"
    benchmark.extra_info.update(gram=gram, c=c, steps=steps(F, c, monkeypatch))
    assert benchmark.extra_info["steps"] == 2001
    result = benchmark(solve_square, F, c)
    assert result.complete and len(result.vectors) == 28


def unimodular(rng: random.Random, n: int) -> IntMatrix:
    """A product of random elementary shears, swaps and sign flips."""
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        move, k = rng.randrange(3), rng.choice((-2, -1, 1, 2))
        for row in B:
            if move == 0:
                row[i] += k * row[j]
            elif move == 1:
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = -row[i]
    return IntMatrix.from_rows(B)


def iso_pairs(kind: str) -> list[tuple[QuadraticForm, QuadraticForm]]:
    rng = random.Random("iso-%s" % kind)
    pairs = []
    if kind == "family":
        form = lambda p: x_family(p).manifold.form
        for p in range(1, 101):
            pairs += [(form(p), form(p + 2)), (form(p), form(p + 1))]
    elif kind == "definite-rank-2":
        # reduced forms 2|b| <= a <= c of one determinant ac - b^2, against an
        # image of themselves and of the other classes
        for det in range(20, 80):
            reduced = [(a, b, c) for a in range(1, isqrt(4 * det // 3) + 1)
                       for b in range(-(a // 2), a // 2 + 1)
                       for c in [(det + b * b) // a] if (det + b * b) % a == 0 and a <= c]
            a, b, c = reduced[0]
            F = IntMatrix.from_rows([[a, b], [b, c]])
            for a, b, c in reduced:
                G = congruence_transform(IntMatrix.from_rows([[a, b], [b, c]]), unimodular(rng, 2))
                pairs.append((QuadraticForm(F), QuadraticForm(G)))
    elif kind == "indefinite-rank-2":
        # x^2 - Dy^2 for primes D = 3 mod 4, where x^2 - Dy^2 = -1 has no
        # solution: "yes" against an image of itself, "no" against its negative
        for D in (331, 1471, 10651, 100291, 1000651, 10000819):
            F = IntMatrix.from_rows([[1, 0], [0, -D]])
            pairs.append((QuadraticForm(F), QuadraticForm(congruence_transform(F, unimodular(rng, 2)))))
            pairs.append((QuadraticForm(F), QuadraticForm.from_rows([[-1, 0], [0, D]])))
    else:
        for d in range(2, 52):
            F = IntMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, d]])
            pairs.append((QuadraticForm(F), QuadraticForm(congruence_transform(F, unimodular(rng, 3)))))
    return pairs


@pytest.mark.parametrize("kind", ("family", "definite-rank-2", "indefinite-rank-2", "undecided-rank-3"))
def test_is_isomorphic(benchmark, kind):
    pairs = iso_pairs(kind)
    benchmark.group = "is_isomorphic"
    verdicts = benchmark(lambda: [is_isomorphic(F, G) for F, G in pairs])
    benchmark.extra_info.update(pairs=len(pairs),
                                verdicts={v: verdicts.count(v) for v in sorted(set(verdicts))})
    if kind == "undecided-rank-3":
        assert set(verdicts) <= {"undecided", "yes"}
    elif kind == "indefinite-rank-2":
        assert verdicts == ["yes", "no"] * (len(pairs) // 2)
    else:
        assert "undecided" not in verdicts


@pytest.mark.parametrize("hi", (50, 200, 800, 10**4), ids=lambda hi: "q1-%d" % hi)
def test_infinitude_report(benchmark, monkeypatch, hi):
    eliminations, built = 0, 0
    eliminate, build = quadform._symmetric_bareiss, obstruct.x_family

    def counted(*args):
        nonlocal eliminations
        eliminations += 1
        return eliminate(*args)

    def counted_build(p):
        nonlocal built
        built += 1
        return build(p)

    with monkeypatch.context() as m:
        m.setattr(quadform, "_symmetric_bareiss", counted)
        m.setattr(obstruct, "x_family", counted_build)
        infinitude_report("odd", range(1, hi + 1))
    benchmark.group = "infinitude_report"
    benchmark.extra_info.update(q_range=[1, hi], eliminations=eliminations, x_family=built)
    assert eliminations == built == 1
    assert benchmark(infinitude_report, "odd", range(1, hi + 1)).conclusion

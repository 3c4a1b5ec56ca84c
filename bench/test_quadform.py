"""Scaling curves of ``solve_square`` over the size of c.

    PYTHONPATH=src python -m pytest bench/test_quadform.py --benchmark-json out.json

Each case solves v.v = c on a seeded rank-2 form at |c| near 10^2, 10^4, ...,
10^10, for three kinds of form: positive or negative definite (D < 0, the
sweep over y), isotropic [[0, e], [e, d]] and its mirror (D = e^2, the
divisors of c) and split with no zero diagonal entry (D = r^2, the divisors of
ac).  Definite and split cases take c = v.v of a random v, so the set is not
empty.  ``extra_info["steps"]`` is the number of loop iterations, measured in
one separate, untimed call as the summed length of the ranges that
``solve_square`` iterates over; it grows like sqrt(|c|) in every kind.
``test_solve_square_long_axis`` solves diag(10^6, 1) and its mirror at
c = 10^12, where a sweep along the axis of the larger diagonal entry would
take 10^3 times the steps.
"""

from __future__ import annotations

import random
from math import isqrt

import pytest

import steincheck.quadform as quadform
from steincheck.quadform import QuadraticForm, solve_square

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


@pytest.mark.parametrize("gram", ([[10**6, 0], [0, 1]], [[1, 0], [0, 10**6]]),
                         ids=("large-first-diagonal", "large-second-diagonal"))
def test_solve_square_long_axis(benchmark, monkeypatch, gram):
    F = QuadraticForm.from_rows(gram)
    benchmark.group = "solve_square-long-axis"
    benchmark.extra_info.update(gram=gram, c=10**12, steps=steps(F, 10**12, monkeypatch))
    result = benchmark(solve_square, F, 10**12)
    assert result.complete and len(result.vectors) == 28

"""Scaling curves of the exact linear-algebra kernels.

    PYTHONPATH=src python -m pytest bench --benchmark-json out.json

Each case times one ``intlin`` kernel, or ``handle.d3`` on the framed link
with that linking matrix and rotation numbers 1..n, on a seeded random
symmetric matrix with entries in [-9, 9], at n = 10, 20, 40 and 80.
``extra_info`` holds the largest bit-length of any integer the kernel
computed, measured in one separate, untimed call whose matrix entries record
every arithmetic result, next to the bit-length of the determinant for scale.
``test_solve_over_determinant`` and ``test_d3_over_determinant`` record the
median time of ``rational_solve`` and of ``d3`` at n = 80 as a ratio of
``determinant``'s.  ``rational_solve`` runs one forward elimination, so its
ratio is near 1; ``d3`` runs one symmetric elimination that updates only the
upper triangle of the (n+1) x (n+1) bordered matrix, so its ratio is below 1.
``bench/`` sits outside the tier-1 ``testpaths``, so the plain test run does
not collect it.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

import pytest

from steincheck.handle import FramedLinkPresentation, d3
from steincheck.intlin import IntMatrix, cokernel, determinant, inertia, rational_solve

SIZES = (10, 20, 40, 80)


def symmetric_rows(n: int) -> list[list[int]]:
    rng = random.Random(1000 + n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    return rows


def solve(A: IntMatrix):
    return rational_solve(A, list(range(1, A.rows + 1)))


def link_d3(A: IntMatrix):
    return d3(FramedLinkPresentation(A, tuple(range(1, A.rows + 1))))


KERNELS = {
    "determinant": determinant,
    "inertia": inertia,
    "rational_solve": solve,
    "cokernel": cokernel,
    "d3": link_d3,
}

# d3 warns when the boundary is not a homology sphere, as for most of these links
NOT_A_HOMOLOGY_SPHERE = "ignore:d3 computed for a boundary"


def largest_bits(kernel, rows: list[list[int]]) -> int:
    """Largest bit-length of an integer computed by ``kernel`` on ``rows``.

    The entries are an ``int`` subclass whose arithmetic returns the same
    subclass and records the size of each result, so every integer derived
    from the input by integer arithmetic is seen.  A ``Fraction`` stores
    plain ints, so values inside ``Fraction`` arithmetic are not.
    """
    peak = 0

    class Tracked(int):
        pass

    def track(value):
        nonlocal peak
        if not isinstance(value, int):
            return value  # NotImplemented, or a tuple from divmod
        peak = max(peak, value.bit_length())
        return Tracked(value)

    for name in ("add", "sub", "mul", "floordiv", "mod"):
        for slot in ("__%s__", "__r%s__"):
            op = getattr(int, slot % name)
            setattr(Tracked, slot % name, lambda a, b, op=op: track(op(a, b)))
    Tracked.__neg__ = lambda a: track(int.__neg__(a))
    Tracked.__divmod__ = lambda a, b: tuple(map(track, int.__divmod__(a, b)))
    Tracked.__rdivmod__ = lambda a, b: tuple(map(track, int.__rdivmod__(a, b)))

    n = len(rows)
    kernel(IntMatrix(n, n, tuple(tuple(Tracked(e) for e in row) for row in rows)))
    return peak


@pytest.mark.filterwarnings(NOT_A_HOMOLOGY_SPHERE)
@pytest.mark.parametrize("n", SIZES, ids=lambda n: "n%d" % n)
@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel(benchmark, name, n):
    rows = symmetric_rows(n)
    A = IntMatrix.from_rows(rows)
    kernel = KERNELS[name]
    benchmark.group = name
    benchmark.extra_info["n"] = n
    benchmark.extra_info["max_bits"] = largest_bits(kernel, rows)
    benchmark.extra_info["det_bits"] = abs(determinant(A)).bit_length()
    benchmark(kernel, A)


def over_determinant(benchmark, kernel, group: str) -> None:
    A = IntMatrix.from_rows(symmetric_rows(80))
    det_times = []
    for _ in range(7):
        start = perf_counter()
        determinant(A)
        det_times.append(perf_counter() - start)
    benchmark.group = group
    benchmark(kernel, A)
    benchmark.extra_info.update(n=80, determinant_s=median(det_times))
    benchmark.extra_info["ratio"] = benchmark.stats.stats.median / median(det_times)


def test_solve_over_determinant(benchmark):
    over_determinant(benchmark, solve, "solve-over-determinant")


@pytest.mark.filterwarnings(NOT_A_HOMOLOGY_SPHERE)
def test_d3_over_determinant(benchmark):
    over_determinant(benchmark, link_d3, "d3-over-determinant")

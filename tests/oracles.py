"""Independent oracles for cross-checking the exact linear algebra.

Nothing in this module calls the implementations under test: determinants
come from permutation expansion or elimination over Q, invariant factors
from gcds of minors, inertia from the characteristic polynomial via
Descartes' rule (exact for symmetric matrices, whose eigenvalues are all
real), solution sets of v.v = c from a sweep that solves for x exactly at
each y, and classes of binary forms from a table of reduced forms or from a
search over generators of GL2(Z).
"""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction
from math import gcd, isqrt


def perm_determinant(rows: list[list[int]]) -> int:
    """Determinant by signed permutation expansion (Leibniz formula)."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += _perm_sign(perm) * term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def minor_gcd_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors from determinantal divisors: D_k is the gcd of all
    k x k minors and d_k = D_k / D_{k-1}."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(n_rows), k):
            for csel in itertools.combinations(range(n_cols), k):
                minor = perm_determinant([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def fraction_determinant(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return int(det)


def charpoly(rows: list[list[int]]) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - A) by Faddeev-LeVerrier.

    The divisions by k are exact for integer matrices.
    """
    n = len(rows)
    coeffs = [1]
    M = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        AM = [[sum(rows[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            AM[i][i] += coeffs[-1]
        M = AM
        trace = sum(sum(rows[i][t] * M[t][i] for t in range(n)) for i in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)
    return coeffs


def charpoly_inertia(rows: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, via Descartes' rule of signs on the characteristic polynomial.

    For a polynomial with all real roots the Descartes bound is attained,
    so the sign-change counts are exact here.
    """
    coeffs = charpoly(rows)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c if (len(coeffs) - 1 - i) % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg, zero


def _sign_changes(seq: list[int]) -> int:
    signs = [1 if c > 0 else -1 for c in seq if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sweep_square_solutions(gram: list[list[int]], c: int, bound: int) -> set[tuple[int, int]]:
    """All (x, y) with |x|, |y| <= bound and a x^2 + 2b xy + d y^2 = c, for
    any Gram matrix [[a, b], [b, d]], by one sweep over y: for each y the
    equation a x^2 + lin x + const = 0 in x is solved exactly."""
    (a, b), (_, d) = gram
    xs = range(-bound, bound + 1)
    out = set()
    for y in xs:
        lin, const = 2 * b * y, d * y * y - c
        if a != 0:
            disc = lin * lin - 4 * a * const
            root = isqrt(disc) if disc >= 0 else -1
            if root * root == disc:
                out.update((n // (2 * a), y) for n in (-lin + root, -lin - root) if n % (2 * a) == 0)
        elif lin != 0:
            if const % lin == 0:
                out.add((-const // lin, y))
        elif const == 0:
            out.update((x, y) for x in xs)
    return {(x, y) for x, y in out if -bound <= x <= bound}


def brute_square_solutions(gram: list[list[int]], c: int, bound: int) -> set[tuple[int, int]]:
    """The name the benchmark's tests (perfbench/test_perfbench.py) call."""
    return sweep_square_solutions(gram, c, bound)


def box_square_solutions(d: int, c: int, bound: int) -> set[tuple[int, int]]:
    """Solutions in the box of 2xy + d y^2 = c (the Gram matrix [[0, 1], [1, d]]),
    the form of the family members; the benchmark's tests call this name."""
    return sweep_square_solutions([[0, 1], [1, d]], c, bound)


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_symmetric_matrix(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def random_unimodular_matrix(rng: random.Random, n: int, steps: int = 12) -> list[list[int]]:
    """Product of elementary row operations applied to the identity: swaps,
    sign flips, and integer shears, so the determinant stays +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif op == 2 and i != j:
            q = rng.randint(-3, 3)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


def reduced_definite_forms(det: int) -> list[tuple[int, int, int]]:
    """The GL2(Z) classes of positive definite Gram matrices [[a, b], [b, c]]
    of determinant det, one triple (a, b, c) with 0 <= 2b <= a <= c each.

    Every class has a Lagrange-reduced member with 2|b| <= a <= c, unique up
    to the sign of b, which the mirror diag(1, -1) flips."""
    out = []
    a = 1
    while 3 * a * a <= 4 * det:
        for b in range(0, a // 2 + 1):
            if (det + b * b) % a == 0 and (det + b * b) // a >= a:
                out.append((a, b, (det + b * b) // a))
        a += 1
    return out


def orbit_classes(forms, box: int) -> dict[tuple[int, int, int], int]:
    """Class labels of Gram triples (a, b, c) under GL2(Z), by breadth-first
    search over the generators swap, mirror diag(1, -1) and the shears
    e2 -> e2 +- e1, never leaving |entries| <= box.

    A path that would leave the box is not followed, so two forms only share
    a label when a chain of generators inside the box connects them; the
    box has to be large enough for the forms at hand."""
    label: dict[tuple[int, int, int], int] = {}
    n = 0
    for start in forms:
        if start in label:
            continue
        n += 1
        label[start] = n
        queue = collections.deque([start])
        while queue:
            a, b, c = queue.popleft()
            for nxt in ((c, b, a), (a, -b, c), (a, b + a, c + 2 * b + a), (a, b - a, c - 2 * b + a)):
                if max(map(abs, nxt)) <= box and nxt not in label:
                    label[nxt] = n
                    queue.append(nxt)
    return {f: label[f] for f in forms}

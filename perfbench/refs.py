"""Reference answers computed without steincheck.

Matrix invariants come from sympy's domain matrices (determinant,
characteristic polynomial, invariant factors, rational solves); binary
forms are told apart by their Lagrange-reduced representatives; solution sets of v.v = c
come from divisor enumeration (isotropic forms) or from the ellipse bound
(definite forms).  Nothing here imports steincheck.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from sympy import Matrix, divisors
from sympy.matrices.normalforms import invariant_factors as _sympy_invariant_factors
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix


def _zz(rows):
    return DomainMatrix([[ZZ(int(e)) for e in row] for row in rows], (len(rows), len(rows)), ZZ)


def det(rows) -> int:
    if not rows:
        return 1
    return int(_zz(rows).det())


def sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix: Descartes' rule of signs is exact on its characteristic
    polynomial, whose roots are all real."""
    if not rows:
        return 0, 0, 0
    coeffs = [int(c) for c in _zz(rows).charpoly()]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    n = len(coeffs) - 1
    pos = sign_changes(coeffs)
    neg = sign_changes([c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg, zero


def invariant_factors(rows) -> list[int]:
    """Nonzero invariant factors of a nonsingular square integer matrix."""
    factors = _sympy_invariant_factors(Matrix(rows), domain=ZZ)
    return [abs(int(f)) for f in factors]


def c1_square(rows, rot) -> Fraction:
    """rot . x for the rational solution of rows x = rot."""
    n = len(rows)
    if n == 0:
        return Fraction(0)
    a = DomainMatrix([[QQ(int(e)) for e in row] for row in rows], (n, n), QQ)
    b = DomainMatrix([[QQ(int(r))] for r in rot], (n, 1), QQ)
    x = a.lu_solve(b).to_Matrix()
    return sum((Fraction(int(x[i].p), int(x[i].q)) * r for i, r in enumerate(rot)), Fraction(0))


def d3(rows, rot) -> Fraction:
    pos, neg, _ = inertia(rows)
    return (c1_square(rows, rot) - 3 * (pos - neg) - 2 * (1 + len(rows))) / 4


def classify(rows) -> dict:
    pos, neg, zero = inertia(rows)
    n = len(rows)
    if zero:
        definiteness = "degenerate"
    elif pos == n:
        definiteness = "positive"
    elif neg == n:
        definiteness = "negative"
    else:
        definiteness = "indefinite"
    return {
        "rank": n,
        "signature": pos - neg,
        "parity": "even" if all(rows[i][i] % 2 == 0 for i in range(n)) else "odd",
        "definiteness": definiteness,
        "unimodular": abs(det(rows)) == 1,
    }


def congruent(rows, b):
    """B^T F B."""
    n = len(rows)
    fb = [[sum(rows[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(b[k][i] * fb[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_unimodular(rng: random.Random, n: int, steps: int, shear: int):
    """Identity changed by `steps` random shears, swaps and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(4)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.choice([x for x in range(-shear, shear + 1) if x])
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


def unimodular_with_corner(rng: random.Random, b00: int, cap: int):
    """A 2x2 matrix of determinant +-1 with top-left entry b00 and every
    entry at most max(|b00|, cap) in absolute value."""
    while True:
        b01 = rng.randint(-cap, cap)
        if gcd(b00, b01) != 1:
            continue
        # b00 * b11 - b01 * b10 = 1 has a solution with |b10| <= |b00|,
        # |b11| <= |b01| (extended Euclid); flip the sign of a row at random.
        g, x, y = _egcd(b00, -b01)
        b11, b10 = x, y
        if g < 0:
            b11, b10 = -b11, -b10
        m = [[b00, b01], [b10, b11]]
        if rng.random() < 0.5:
            m[1] = [-v for v in m[1]]
        return m


def _egcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """All GL2(Z) classes of positive definite binary Gram matrices of
    determinant d, as reduced triples (a, h, c) with 0 <= 2h <= a <= c.

    Every class has a Lagrange-reduced Gram matrix [[a, h], [h, c]] with
    2|h| <= a <= c, unique up to the sign of h (which diag(1, -1) flips), so
    distinct triples are inequivalent."""
    out = []
    for a in range(1, isqrt(4 * d // 3) + 2):
        for h in range(0, a // 2 + 1):
            if (d + h * h) % a == 0:
                c = (d + h * h) // a
                if c >= a:
                    out.append((a, h, c))
    return out


def isotropic_solutions(e: int, d: int, c: int, mirrored: bool) -> list[tuple[int, int]]:
    """All integer v with v.v = c != 0 on [[0, e], [e, d]] (or its mirror
    [[d, e], [e, 0]]): b must divide c, and then a is determined."""
    sols = set()
    for b in divisors(abs(c)):
        for bs in (b, -b):
            num = c // bs - d * bs
            if num % (2 * e) == 0:
                sols.add((num // (2 * e), bs))
    if mirrored:
        sols = {(b, a) for a, b in sols}
    return sorted(sols)


def definite_solutions(rows, c: int) -> list[tuple[int, int]]:
    """All integer v with v.v = c on a definite binary form, from the
    bound y^2 <= a c / det and the exact roots of the quadratic in x."""
    (a, h), (_, cc) = rows
    if a < 0:
        a, h, cc, c = -a, -h, -cc, -c
    dt = a * cc - h * h
    sols = []
    if c < 0:
        return sols
    ymax = isqrt(a * c // dt) + 1
    for y in range(-ymax, ymax + 1):
        disc = a * c - dt * y * y
        if disc < 0:
            continue
        r = isqrt(disc)
        if r * r != disc:
            continue
        for num in {-h * y + r, -h * y - r}:
            if num % a == 0:
                sols.append((num // a, y))
    return sorted(set(sols))

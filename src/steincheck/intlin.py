"""Exact integer and rational matrix algebra.

Everything here is computed over Z or Q with Python's unbounded integers
and ``fractions.Fraction``; no floating point is used anywhere.  All values
are immutable, so they are safe to share between threads.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence


class DegenerateLinkingFormError(ValueError):
    """Raised when a singular matrix blocks an exact linear solve."""


class _Record:
    """Base of every named-tuple record: ``_make``, and so ``_replace``, build
    through the constructor, and the tuple ``+`` and ``*`` are refused with
    the record on either side."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __radd__(self, other):
        # NotImplemented here would let tuple + record concatenate
        raise TypeError("unsupported operand type(s) for +: '%s' and '%s'"
                        % (type(other).__name__, type(self).__name__))


class IntMatrix(_Record, namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix, row-major, with unbounded entries."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if not isinstance(row, tuple):
                raise ValueError("matrix rows must be tuples")
            if len(row) != cols:
                raise ValueError("ragged rows in matrix entries")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError("matrix entries must be integers")
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(row) for row in rows)
        n_rows = len(data)
        n_cols = len(data[0]) if data else 0
        return cls(n_rows, n_cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and self.entries == tuple(zip(*self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match for multiplication")
        a, b = self.entries, other.entries
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols))
                for i in range(self.rows)
            ),
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def pretty(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


class SmithDecomposition(_Record, namedtuple("SmithDecomposition", "U D V")):
    """U @ A @ V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ()

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))


class AbelianGroup(_Record, namedtuple("AbelianGroup", "free_rank torsion")):
    """Finitely generated abelian group Z^free_rank + sum of Z/d_i.

    The torsion orders are the invariant factors > 1, in divisibility order.
    """

    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": [str(d) for d in self.torsion],
        }


# ---------------------------------------------------------------------------
# Row/column operations on mutable list-of-list matrices.  These are the only
# primitives the Smith reduction uses; each is unimodular (determinant +-1).

def _row_swap(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _row_addmul(m: list[list[int]], i: int, j: int, q: int) -> None:
    # row_i += q * row_j
    ri, rj = m[i], m[j]
    for k in range(len(ri)):
        ri[k] += q * rj[k]


def _row_negate(m: list[list[int]], i: int) -> None:
    m[i] = [-x for x in m[i]]


def _col_swap(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _col_addmul(m: list[list[int]], i: int, j: int, q: int) -> None:
    # col_i += q * col_j
    for row in m:
        row[i] += q * row[j]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Returns U, D, V with U @ A @ V = D, where D is diagonal with nonnegative
    entries satisfying d1 | d2 | ... and det(U), det(V) in {+1, -1}.  Pivots
    are chosen by smallest nonzero absolute value, which does not bound the
    entries: on random symmetric 10 x 10 matrices with entries in [-9, 9]
    the entries of U and V reach about 28,000 bits.  ``cokernel`` does not
    use this function.
    """
    rows, cols = A.rows, A.cols
    D = A.to_lists()
    U = IntMatrix.identity(rows).to_lists()
    V = IntMatrix.identity(cols).to_lists()

    for t in range(min(rows, cols)):
        # Locate the smallest nonzero entry of the trailing block.
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = D[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break  # trailing block is zero
        if piv[0] != t:
            _row_swap(D, t, piv[0])
            _row_swap(U, t, piv[0])
        if piv[1] != t:
            _col_swap(D, t, piv[1])
            _col_swap(V, t, piv[1])

        while True:
            # Clear column t below the pivot.  A nonzero remainder becomes
            # the new (strictly smaller) pivot, so this terminates.
            col_clear = True
            for i in range(t + 1, rows):
                if D[i][t] == 0:
                    continue
                q = D[i][t] // D[t][t]
                _row_addmul(D, i, t, -q)
                _row_addmul(U, i, t, -q)
                if D[i][t] != 0:
                    _row_swap(D, t, i)
                    _row_swap(U, t, i)
                    col_clear = False
            if not col_clear:
                continue
            # Clear row t right of the pivot.
            row_clear = True
            for j in range(t + 1, cols):
                if D[t][j] == 0:
                    continue
                q = D[t][j] // D[t][t]
                _col_addmul(D, j, t, -q)
                _col_addmul(V, j, t, -q)
                if D[t][j] != 0:
                    _col_swap(D, t, j)
                    _col_swap(V, t, j)
                    row_clear = False
            if not row_clear or any(D[i][t] for i in range(t + 1, rows)):
                continue
            # Enforce divisibility: the pivot must divide the whole trailing
            # block; if not, fold the offending row in and reduce again.
            d = D[t][t]
            offender = None
            if d not in (1, -1):
                for i in range(t + 1, rows):
                    row = D[i]
                    for j in range(t + 1, cols):
                        if row[j] % d != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is not None:
                _row_addmul(D, t, offender, 1)
                _row_addmul(U, t, offender, 1)
                continue
            break

        if D[t][t] < 0:
            _row_negate(D, t)
            _row_negate(U, t)

    return SmithDecomposition(
        U=IntMatrix.from_rows(U),
        D=IntMatrix.from_rows(D),
        V=IntMatrix.from_rows(V),
    )


def _move_pivot(m: list[list[int]], k: int, rows: int, cols: int) -> Optional[int]:
    """Swap a nonzero entry of the trailing block into (k, k), searching
    column by column.  Returns the number of swaps made, or None when the
    trailing block is zero."""
    piv = next(((i, j) for j in range(k, cols) for i in range(k, rows) if m[i][j]), None)
    if piv is None:
        return None
    i, j = piv
    m[k], m[i] = m[i], m[k]
    if j != k:
        for row in m:
            row[k], row[j] = row[j], row[k]
    return (i != k) + (j != k)


def _bareiss(m: list[list[int]], rows: int, cols: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of ``m`` in place, pivoting in its
    first ``cols`` columns, the current one first, and carrying any later ones.
    Step k sets each row i > k to (p * row_i - m[i][k] * row_k) / prev after
    column k, for the pivot p = m[k][k] and the previous pivot prev.  Sylvester's
    determinant identity makes the division exact and every new entry a
    (k+1) x (k+1) minor of the input, so no value outgrows the input's minors.
    Returns the rank r and the last pivot times the sign of the row and column
    swaps: a nonzero r x r minor of the input, equal to the determinant when
    the input is square and nonsingular.
    """
    sign = prev = 1
    for k in range(min(rows, cols)):
        swaps = _move_pivot(m, k, rows, cols)
        if swaps is None:
            return k, sign * prev
        sign *= (-1) ** swaps
        p, tail = m[k][k], m[k][k + 1:]
        for ri in m[k + 1:]:
            a = ri[k]
            ri[k + 1:] = [(x * p - a * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = p
    return min(rows, cols), sign * prev


def cokernel(A: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the column span of A.

    Fraction-free elimination gives the rank r and D = |a nonzero r x r
    minor|.  Every nonzero invariant factor divides the gcd of the r x r
    minors, hence D, so they are the first r invariant factors of A over
    Z/DZ.  Smith elimination over Z/DZ keeps every entry in [0, D); the
    gcds of its pivots with D, normalised to a divisibility chain and
    padded with D, are those invariant factors (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.4.14; Domich, Kannan and
    Trotter 1987).
    """
    rows, cols = A.rows, A.cols
    rank, minor = _bareiss(A.to_lists(), rows, cols)
    N = abs(minor)
    m = [[e % N for e in row] for row in A.entries]
    factors = []
    for t in range(min(rows, cols)):
        if _move_pivot(m, t, rows, cols) is None:
            break
        while True:
            # Clear column t with unimodular 2x2 row steps.  A step whose
            # pivot does not divide the entry replaces the pivot by a proper
            # divisor of it, so the loop ends.
            rt = m[t]
            for i in range(t + 1, rows):
                ri = m[i]
                a, b = rt[t], ri[t]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    ri[t:] = [(y - q * x) % N for x, y in zip(rt[t:], ri[t:])]
                else:
                    g = gcd(a, b)
                    a, b = a // g, b // g
                    x = pow(a, -1, b)  # 0 when b = 1
                    y = (1 - x * a) // b  # x a + y b = 1
                    rt[t:], ri[t:] = (
                        [(x * u + y * v) % N for u, v in zip(rt[t:], ri[t:])],
                        [(a * v - b * u) % N for u, v in zip(rt[t:], ri[t:])],
                    )
            if not any(rt[t + 1:]):
                break
            # Row t is not clear: transpose, which keeps the cokernel's
            # invariant factors, and clear it as a column.
            m = [list(c) for c in zip(*m)]
            rows, cols = cols, rows
        factors.append(gcd(m[t][t], N))
    # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): normalise to a divisibility chain.
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i] = g = gcd(a, b)
            factors[j] = a // g * b
    factors = (factors + [N] * rank)[:rank]
    return AbelianGroup(free_rank=A.rows - rank, torsion=tuple(d for d in factors if d > 1))


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not A.is_square:
        raise ValueError("determinant requires a square matrix")
    rank, minor = _bareiss(A.to_lists(), A.rows, A.cols)
    return minor if rank == A.rows else 0


def _symmetric_bareiss(m: list[list[int]], n: int) -> tuple[int, int, int, int]:
    """Symmetric fraction-free elimination of ``m`` in place, pivoting on its
    leading n x n block only and carrying any trailing rows and columns along.
    Returns the (positive, negative, zero) counts and the last pivot.

    Each pivot is a leading principal minor of a matrix congruent to m by a
    unimodular change of basis; the matching diagonal entry is that pivot over
    the previous one, so it is negative exactly when their signs differ.  A
    vanishing pivot with a nonzero row swaps with a nonzero diagonal partner
    or substitutes e_i -> e_i + e_j, giving the diagonal entry 2*m[i][j]; a
    zero row of the leading block is a radical direction and counts as zero.
    With no zero count the last pivot is the leading block's determinant and a
    trailing m[i][j] ends as the minor bordering it with row i and column j.
    Only the upper triangle is updated; the lower one is restored where a move
    reads it.  A lone 2 x 2 block is answered in closed form from
    det = ac - b^2, which it returns as the last pivot, and from the trace
    a + c, the one nonzero eigenvalue when det = 0."""
    if n == len(m) == 2:
        (a, b), (_, c) = m
        det, t = a * c - b * b, a + c
        if det:
            return (1, 1, 0, det) if det < 0 else (2, 0, 0, det) if a > 0 else (0, 2, 0, det)
        return (1, 0, 1, 0) if t > 0 else (0, 1, 1, 0) if t < 0 else (0, 0, 2, 0)
    neg = zero = 0
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[k][j]), None)
            if j is None:
                zero += 1
                continue
            for i in range(k + 1, j + 1):  # the lower entries the move reads
                m[i][k:i] = [m[c][i] for c in range(k, i)]
            if m[j][j]:
                m[k], m[j] = m[j], m[k]
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for row in m[k:]:
                    row[k] += row[j]
        rk, p = m[k], m[k][k]
        neg += (p > 0) != (prev > 0)
        for i in range(k + 1, len(m)):
            ri, a = m[i], rk[i]
            ri[i:] = [(x * p - a * y) // prev for x, y in zip(ri[i:], rk[i:])]
        prev = p
    return n - neg - zero, neg, zero, prev


def inertia(A: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric matrix's diagonal form."""
    if not A.is_symmetric:
        raise ValueError("inertia requires a symmetric matrix")
    return _symmetric_bareiss(A.to_lists(), A.rows)[:3]


def rational_solve(A: IntMatrix, b: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact solution of A x = b over Q for square nonsingular A.  Bareiss on [A | b]
    pivots in A's columns only (a nonsingular A in column k at step k) and ends at
    p = det(A); X = p x follows by X_i = (p m[i][n] - sum_{j>i} m[i][j] X_j) / m[i][i]."""
    if not A.is_square:
        raise ValueError("rational_solve requires a square matrix")
    n = A.rows
    if len(b) != n:
        raise ValueError("right-hand side length does not match matrix size")
    m = [list(row) + [b[i]] for i, row in enumerate(A.entries)]
    rank, p = _bareiss(m, n, n)
    if rank < n:
        raise DegenerateLinkingFormError("degenerate linking form: matrix is singular")
    for i in reversed(range(n)):  # column n turns into the X_i, last first
        m[i][n] = (p * m[i][n] - sum(m[i][j] * m[j][n] for j in range(i + 1, n))) // m[i][i]
    return tuple(Fraction(row[n], p) for row in m)


def congruence_transform(F: IntMatrix, B: IntMatrix) -> IntMatrix:
    """B^T F B for a unimodular basis change B of the lattice carrying F."""
    if not F.is_symmetric:
        raise ValueError("congruence_transform requires a symmetric matrix")
    if not (B.is_square and B.rows == F.rows):
        raise ValueError("basis change must be square of the same size as the form")
    if determinant(B) not in (1, -1):
        raise ValueError("not a lattice basis change: determinant is not +-1")
    return B.transpose() @ F @ B


# ---------------------------------------------------------------------------
# JSON serialization.  Matrix and vector entries travel as decimal strings so
# arbitrary-precision values survive any JSON parser bit-exactly.

def _clip(text: str) -> str:
    """text echoed in an error message, cut to 40 characters and its length."""
    return text if len(text) <= 40 else "%s... (%d characters)" % (text[:40], len(text))


def _parse_int(value) -> int:
    """The one integer reader for all input: an int that is not a bool, or ASCII
    digits after an optional "-", no more of them than sys.get_int_max_str_digits()
    (CPython's message for more is replaced by a clipped one)."""
    if isinstance(value, str):  # first: file entries are strings
        digits = value.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError("not a decimal integer string: %s" % _clip(repr(value)))
        try:
            return int(value)
        except ValueError:  # valid digits, so int() refused them for the digit limit
            raise ValueError("integer string of more than %d digits: %s"
                             % (sys.get_int_max_str_digits(), _clip(repr(value)))) from None
    if isinstance(value, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    raise ValueError("expected an integer or decimal string, got %s" % _clip(repr(value)))


def matrix_to_json(A: IntMatrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in A.entries]


def matrix_from_json(obj) -> IntMatrix:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError("matrix JSON must be an array of row arrays")
    return IntMatrix.from_rows([[_parse_int(e) for e in row] for row in obj])


def vector_to_json(v: Iterable[int]) -> list[str]:
    return [str(e) for e in v]


def vector_from_json(obj) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise ValueError("vector JSON must be an array")
    return tuple(_parse_int(e) for e in obj)

"""Exact integer and rational matrix algebra.

Everything here is computed over Z or Q with Python's unbounded integers
and ``fractions.Fraction``; no floating point is used anywhere.  All values
are immutable, so they are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class DegenerateLinkingFormError(ValueError):
    """Raised when a singular matrix blocks an exact linear solve."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, with unbounded entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix entries")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(e) for e in row) for row in rows)
        n_rows = len(data)
        n_cols = len(data[0]) if data else 0
        return cls(n_rows, n_cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls.from_rows(
            [[int(diag[i]) if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

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

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match matrix columns")
        return tuple(sum(row[k] * v[k] for k in range(self.cols)) for row in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def pretty(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal() if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^free_rank + sum of Z/d_i.

    The torsion orders are the invariant factors > 1, in divisibility order.
    """

    free_rank: int
    torsion: tuple[int, ...]

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
    are chosen by smallest nonzero absolute value, which keeps intermediate
    entries small in practice.
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


def cokernel(A: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the column span of A, read off the Smith form."""
    snf = smith_normal_form(A)
    factors = snf.invariant_factors()
    return AbelianGroup(
        free_rank=A.rows - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not A.is_square:
        raise ValueError("determinant requires a square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: the Bareiss identity guarantees divisibility.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inertia(A: IntMatrix) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) diagonal entries after exact
    rational congruence diagonalization of a symmetric matrix.

    When a diagonal pivot vanishes but its row does not, either swap with a
    nonzero diagonal partner or substitute e_i -> e_i + e_j, which produces
    the diagonal entry 2*A[i][j] (the standard hyperbolic-pair trick).
    """
    if not A.is_symmetric:
        raise ValueError("inertia requires a symmetric matrix")
    n = A.rows
    m = [[Fraction(e) for e in row] for row in A.entries]

    def sym_swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def sym_addmul(i, j, f):
        # basis change e_i -> e_i + f * e_j, applied to the Gram matrix
        mi, mj = m[i], m[j]
        for k in range(n):
            mi[k] += f * mj[k]
        for row in m:
            row[i] += f * row[j]

    pos = neg = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
            if j is None:
                zero += 1
                continue
            if m[j][j] != 0:
                sym_swap(i, j)
            else:
                sym_addmul(i, j, Fraction(1))
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if m[r][i] != 0:
                sym_addmul(r, i, -m[r][i] / d)
    return pos, neg, zero


def signature(A: IntMatrix) -> int:
    """Signature (positive minus negative inertia) of a symmetric matrix."""
    pos, neg, _ = inertia(A)
    return pos - neg


def rational_solve(A: IntMatrix, b: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact solution of A x = b over the rationals for square nonsingular A."""
    if not A.is_square:
        raise ValueError("rational_solve requires a square matrix")
    n = A.rows
    if len(b) != n:
        raise ValueError("right-hand side length does not match matrix size")
    m = [[Fraction(e) for e in row] + [Fraction(b[i])] for i, row in enumerate(A.entries)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise DegenerateLinkingFormError("degenerate linking form: matrix is singular")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                for j in range(k, n + 1):
                    m[i][j] -= f * m[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / m[k][k]
    return tuple(x)


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

def _parse_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValueError("not a decimal integer string: %r" % (value,)) from None
    raise ValueError("expected an integer or decimal string, got %r" % (value,))


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

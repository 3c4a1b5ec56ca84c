"""Symmetric bilinear forms over Z: evaluation, parity, classification,
isomorphism decisions, and exact solving of v.v = c on rank-2 forms."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Sequence

from .intlin import (
    IntMatrix,
    _symmetric_bareiss,
    determinant,
    matrix_from_json,
    matrix_to_json,
)

EVEN = "even"
ODD = "odd"

# Steps per cycle walk before a rank-2 comparison is left undecided.
_RHO_STEP_CAP = 1 << 20

# |x|, |y| bound of the v.v = c enumeration when the solution set is not finite.
_BOX = 100


@dataclass(frozen=True)
class QuadraticForm:
    """Integral symmetric bilinear form with optional basis labels."""

    gram: IntMatrix
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.gram.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")
        if self.labels is not None and len(self.labels) != self.gram.rows:
            raise ValueError("label count must match the rank")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> "QuadraticForm":
        return cls(IntMatrix.from_rows(rows), tuple(labels) if labels is not None else None)

    @property
    def rank(self) -> int:
        return self.gram.rows

    def to_json_obj(self) -> dict:
        return {
            "gram": matrix_to_json(self.gram),
            "labels": list(self.labels) if self.labels is not None else None,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "QuadraticForm":
        if not isinstance(obj, dict) or "gram" not in obj:
            raise ValueError("form JSON must be an object with a 'gram' key")
        labels = obj.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
                raise ValueError("form labels must be an array of strings")
            labels = tuple(labels)
        return cls(matrix_from_json(obj["gram"]), labels)


@dataclass(frozen=True)
class FormClass:
    """Classification data of an integral symmetric form."""

    rank: int
    signature: int
    parity: str
    definiteness: str
    unimodular: bool

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "signature": self.signature,
            "parity": self.parity,
            "definiteness": self.definiteness,
            "unimodular": self.unimodular,
        }

    def describe(self) -> str:
        uni = "unimodular" if self.unimodular else "non-unimodular"
        return "rank %d, signature %d, %s, %s, %s" % (
            self.rank,
            self.signature,
            self.parity,
            self.definiteness,
            uni,
        )


def parity(F: QuadraticForm) -> str:
    """Even iff v.v is even for every v, i.e. every diagonal entry is even."""
    diag_even = all(F.gram.entries[i][i] % 2 == 0 for i in range(F.rank))
    return EVEN if diag_even else ODD


def classify(F: QuadraticForm) -> FormClass:
    rank = F.rank
    pos, neg, zero, det = _symmetric_bareiss(F.gram.to_lists(), rank)
    if zero > 0:
        definiteness = "degenerate"
    elif pos == rank:
        definiteness = "positive"
    elif neg == rank:
        definiteness = "negative"
    else:
        definiteness = "indefinite"
    return FormClass(
        rank=rank,
        signature=pos - neg,
        parity=parity(F),
        definiteness=definiteness,
        unimodular=not zero and abs(det) == 1,
    )


def pairing(F: QuadraticForm, u: Sequence[int], v: Sequence[int]) -> int:
    """The bilinear pairing u.v = u^T gram v."""
    if len(u) != F.rank or len(v) != F.rank:
        raise ValueError("vector length does not match the rank of the form")
    g = F.gram.entries
    return sum(u[i] * g[i][j] * v[j] for i in range(F.rank) for j in range(F.rank))


def is_isomorphic(F: QuadraticForm, G: QuadraticForm) -> str:
    """Decide integral equivalence; one of "yes", "no", "undecided".

    Rank, determinant, signature, and parity are congruence invariants, so
    any mismatch is a definitive "no".  When the invariants agree and both
    forms are unimodular and indefinite, the classification of indefinite
    unimodular forms by (rank, signature, parity) gives a definitive "yes".
    Rank-2 forms are decided by reduction (_binary_equivalent); anything
    that remains is reported as undecided rather than guessed.
    """
    if F.gram.entries == G.gram.entries:
        return "yes"
    cf, cg = classify(F), classify(G)
    if cf.rank != cg.rank or cf.signature != cg.signature or cf.parity != cg.parity:
        return "no"
    if determinant(F.gram) != determinant(G.gram):
        return "no"
    if cf.unimodular and cf.definiteness == "indefinite":
        return "yes"
    same = _binary_equivalent(F.gram, G.gram) if cf.rank == 2 else None
    return "undecided" if same is None else "yes" if same else "no"


def _binary_equivalent(f: IntMatrix, g: IntMatrix) -> Optional[bool]:
    """GL2(Z)-equivalence of Gram matrices [[a, b], [b, c]] of equal D = b^2 - ac.
    Forms with D <= 0 or D a square have a unique reduced representative.
    Otherwise G ~ F iff a reduced form of G or of its mirror lies on F's cycle
    of reduced forms (Buell, Binary Quadratic Forms, ch. 3; Cohen, 5.6), which
    grows like sqrt(D); None when that walk passes _RHO_STEP_CAP steps."""
    (a, b), (_, c) = f.entries
    (a2, b2), (_, c2) = g.entries
    D = b * b - a * c
    s = isqrt(max(D, 0))
    if D < 0 or s * s == D:
        return _canonical_binary(a, b, c, D) == _canonical_binary(a2, b2, c2, D)
    reduced = []  # O(log |c|) steps reach 0 < b <= s, s - b < |a| <= s + b
    for form in (a, b, c), (a2, b2, c2), (a2, -b2, c2):
        while not (0 < form[1] <= s and s - form[1] < abs(form[0]) <= s + form[1]):
            form = _rho(form, D, s)
        reduced.append(form)
    start = form = reduced[0]
    for _ in range(_RHO_STEP_CAP):
        if form in reduced[1:]:
            return True
        form = _rho(form, D, s)
        if form == start:
            return False
    return None


def _canonical_binary(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    """Reduced GL2(Z) representative of [[a, b], [b, c]] for D <= 0 or D a square."""
    if D < 0:
        # Lagrange reduction to 2|b| <= a <= c; the mirror diag(1, -1) flips b
        sign = 1 if a > 0 else -1
        a, b, c = sign * a, sign * b, sign * c
        while True:
            k = (2 * b + a) // (2 * a)
            b, c = b - k * a, c - k * (2 * b - k * a)
            if a <= c:
                return sign * a, sign * abs(b), sign * c
            a, c = c, a
    if D == 0:
        # k (ux + vy)^2 with gcd(u, v) = 1 is equivalent to k x^2
        return (gcd(a, c) if a + c > 0 else -gcd(a, c)), 0, 0
    # primitive isotropic u, basis (u, w): [[0, +-r], [+-r, w.w]], w.w fixed mod 2r
    r = isqrt(D)
    best = []
    for x, y in [(r - b, a), (-r - b, a)] if a else [(1, 0), (c, -2 * b)]:
        h = gcd(x, y)
        x, y = x // h, y // h
        wt = pow(x, -1, abs(y)) if y else x
        ws = (x * wt - 1) // y if y else 0  # x wt - y ws = 1
        best.append((a * ws * ws + 2 * b * ws * wt + c * wt * wt) % (2 * r))
    return 0, r, min(best)


def _rho(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """Gauss's neighbour (c, b', (b'^2 - D)/c) of (a, b, c), with b' = -b mod c
    in (t - |c|, t] for t = s = isqrt(D) if c^2 < 4D, else t = |c|/2 (Cohen, 5.6)."""
    _, b, c = form
    t = s if c * c < 4 * D else abs(c) // 2
    b2 = t - (t + b) % abs(c)
    return c, b2, (b2 * b2 - D) // c


@dataclass(frozen=True)
class SquareSolutions:
    """Solutions of v.v = c on a rank-2 form.

    ``complete`` marks whether ``vectors`` is the full solution set (the set
    is finite) or only its part in the box |x|, |y| <= 100 (the set is empty
    or infinite and solve_square does not decide which).
    """

    vectors: tuple[tuple[int, int], ...]
    complete: bool

    def as_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.vectors)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def solve_square(F: QuadraticForm, c: int) -> SquareSolutions:
    """All integer solutions (x, y) of v.v = c on a rank-2 form [[a, b], [b, d]].

    D = b^2 - ad picks one exact method, since a Q = (ax + by)^2 - D y^2.  If
    D = r^2 > 0 and c != 0, kQ = (px + qy)(sx + ty): k = 1 and the factors y,
    2bx + dy after moving an isotropic basis vector first, else k = a and the
    factors ax + (b -+ r)y; each signed divisor u of kc gives one linear
    system.  If D < 0, y runs along the axis with the smaller |diagonal| entry,
    y^2 <= min(|a|, |d|) |c| / -D, and x is a root of a quadratic.  Both sets
    are finite and returned complete.  Otherwise the set is empty or infinite,
    and only the box |x|, |y| <= 100 is enumerated, flagged as incomplete.
    """
    if F.rank != 2:
        raise ValueError("solve_square requires a rank-2 form")
    (a, b), (_, d) = F.gram.entries
    D = b * b - a * d
    r = isqrt(max(D, 0))
    if not (D < 0 or D > 0 and r * r == D and c != 0):
        box = range(-_BOX, _BOX + 1)
        sols = [(x, y) for x in box for y in box if a * x * x + 2 * b * x * y + d * y * y == c]
        return SquareSolutions(tuple(sols), complete=False)
    swap = abs(a) > abs(d) if D < 0 else d == 0
    a, d = (d, a) if swap else (a, d)
    sols = set()
    if D > 0:
        k, p, q, s, t = (1, 0, 1, 2 * b, d) if a == 0 else (a, a, b - r, a, b + r)
        det = p * t - q * s
        for u in _divisors(k * c):
            for u in (u, -u):
                w = k * c // u
                x, y = u * t - q * w, p * w - s * u
                if x % det == 0 and y % det == 0:
                    sols.add((x // det, y // det))
    else:
        ymax = isqrt(a * c // -D) if a * c >= 0 else -1
        for y in range(-ymax, ymax + 1):
            disc = a * c + D * y * y
            root = isqrt(disc)
            if root * root == disc:
                sols.update((n // a, y) for n in (root - b * y, -root - b * y) if n % a == 0)
    return SquareSolutions(tuple(sorted(v[::-1] if swap else v for v in sols)), complete=True)

"""Symmetric bilinear forms over Z: evaluation, parity, classification,
isomorphism decisions, and exact solving of v.v = c on rank-2 forms."""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .intlin import (
    IntMatrix,
    _Record,
    _symmetric_bareiss,
    matrix_from_json,
    matrix_to_json,
)

# Steps of form_key's cycle walk before it gives up on a rank-2 form.
_RHO_STEP_CAP = 1 << 20


class QuadraticForm(_Record, namedtuple("QuadraticForm", "gram labels")):
    """Integral symmetric bilinear form with optional basis labels."""

    _class: Optional["FormClass"] = None  # classify sets it on the instance, outside the fields

    def __setattr__(self, *args):
        raise AttributeError("QuadraticForm is immutable")

    __delattr__ = __setattr__

    def __new__(cls, gram: IntMatrix, labels: Optional[tuple[str, ...]] = None):
        if not gram.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")
        if labels is not None and len(labels) != gram.rows:
            raise ValueError("label count must match the rank")
        return tuple.__new__(cls, (gram, labels))

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


class FormClass(_Record, namedtuple("FormClass", "rank signature parity determinant")):
    """Classification data of an integral symmetric form.  ``determinant`` is
    0 exactly for a degenerate form, since a nondegenerate form's determinant
    is never 0; definiteness and unimodularity follow from the fields."""

    __slots__ = ()

    @property
    def definiteness(self) -> str:
        if self.determinant == 0:
            return "degenerate"
        # nondegenerate, so signature = rank exactly when no eigenvalue is negative
        if self.signature == self.rank:
            return "positive"
        return "negative" if self.signature == -self.rank else "indefinite"

    @property
    def unimodular(self) -> bool:
        return abs(self.determinant) == 1

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


def classify(F: QuadraticForm) -> FormClass:
    """FormClass of F by one elimination, kept on F since gram alone determines it."""
    if F._class is not None:
        return F._class
    rank = F.rank
    pos, neg, zero, det = _symmetric_bareiss(F.gram.to_lists(), rank)
    fc = FormClass(
        rank=rank,
        signature=pos - neg,
        # even iff v.v is even for every v, i.e. every diagonal entry is even
        parity="even" if all(F.gram.entries[i][i] % 2 == 0 for i in range(rank)) else "odd",
        determinant=0 if zero else det,
    )
    object.__setattr__(F, "_class", fc)  # the one write past __setattr__
    return fc


def pairing(F: QuadraticForm, u: Sequence[int], v: Sequence[int]) -> int:
    """The bilinear pairing u.v = u^T gram v."""
    if len(u) != F.rank or len(v) != F.rank:
        raise ValueError("vector length does not match the rank of the form")
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, F.gram.entries))


def is_isomorphic(F: QuadraticForm, G: QuadraticForm) -> str:
    """Decide integral equivalence; one of "yes", "no", "undecided".

    Identical Gram matrices are a "yes" and differing classes a "no", since
    every field of classify is a congruence invariant; otherwise the form_key
    values decide.  A None key is a property of the class (a rank >= 3 form,
    or a cycle longer than _RHO_STEP_CAP, which F and its mirror share), so
    one None key against a known one is a "no", and two leave it undecided.
    """
    if F.gram.entries == G.gram.entries:
        return "yes"
    if classify(F) != classify(G):
        return "no"
    kf, kg = form_key(F), form_key(G)
    return "undecided" if kf is None and kg is None else "yes" if kf == kg else "no"


def form_key(F: QuadraticForm) -> Optional[tuple]:
    """A complete congruence invariant of F that starts with classify(F), or
    None where none is known.  Rank <= 1 and indefinite unimodular forms are
    fixed by their class.  A rank-2 [[a, b], [b, c]] with D = b^2 - ac <= 0 or
    D a square has a unique reduced representative.  Otherwise the reduced
    forms of F's class make up one _rho cycle, which grows like sqrt(D), and
    their reversals (c, b, a) that of F's mirror: the least of both over one
    walk is the key, None past _RHO_STEP_CAP steps (Buell, Binary Quadratic
    Forms, ch. 3; Cohen, 5.6)."""
    fc = classify(F)
    if fc.rank < 2 or fc.unimodular and fc.definiteness == "indefinite":
        return (fc,)
    if fc.rank > 2:
        return None
    (a, b), (_, c) = F.gram.entries
    D = b * b - a * c
    s = isqrt(max(D, 0))
    if D < 0 or s * s == D:
        return fc, _canonical_binary(a, b, c, D)[0]
    form = a, b, c  # O(log |c|) steps reach 0 < b <= s, s - b < |a| <= s + b
    while not (0 < form[1] <= s and s - form[1] < abs(form[0]) <= s + form[1]):
        form = _rho(form, D, s)
    start, least = form, min(form, form[::-1])
    for _ in range(_RHO_STEP_CAP):
        form = _rho(form, D, s)
        if form == start:
            return fc, least
        least = min(least, form, form[::-1])
    return None


def _canonical_binary(a: int, b: int, c: int, D: int) -> tuple[tuple[int, int, int], Optional[tuple]]:
    """(reduced, (u, w)) for [[a, b], [b, c]] with D <= 0 or D a square: its reduced
    GL2(Z) representative and B = [u w], det B = +-1, with B^T F B = reduced (None for D = 0)."""
    if D < 0:
        # Lagrange reduction to 2|b| <= a <= c; the mirror diag(1, -1) flips b
        sign = 1 if a > 0 else -1
        a, b, c = sign * a, sign * b, sign * c
        u, w = (1, 0), (0, 1)
        while True:
            k = (2 * b + a) // (2 * a)
            b, c = b - k * a, c - k * (2 * b - k * a)
            w = w[0] - k * u[0], w[1] - k * u[1]
            if a <= c:
                return (sign * a, sign * abs(b), sign * c), (u, w if b >= 0 else (-w[0], -w[1]))
            a, c, u, w = c, a, w, u
    if D == 0:
        # k (ux + vy)^2 with gcd(u, v) = 1 is equivalent to k x^2
        return ((gcd(a, c) if a + c > 0 else -gcd(a, c)), 0, 0), None
    # primitive isotropic u and w with det [u w] = 1 give [[0, +-r], [+-r, w.w]];
    # u -> -u makes u.w = r, then w -> w - t u takes w.w to w.w mod 2r
    r = isqrt(D)
    sides = []
    for x, y in [(r - b, a), (-r - b, a)] if a else [(1, 0), (c, -2 * b)]:
        h = gcd(x, y)
        x, y = x // h, y // h
        wt = pow(x, -1, abs(y)) if y else x
        ws = (x * wt - 1) // y if y else 0  # x wt - y ws = 1
        if x * (a * ws + b * wt) + y * (b * ws + c * wt) < 0:
            x, y = -x, -y
        t, n = divmod(a * ws * ws + 2 * b * ws * wt + c * wt * wt, 2 * r)
        sides.append((n, (x, y), (ws - t * x, wt - t * y)))
    n, u, w = min(sides)
    return (0, r, n), (u, w)


def _rho(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """Gauss's neighbour (c, b', (b'^2 - D)/c) of (a, b, c), with b' = -b mod c
    in (t - |c|, t] for t = s = isqrt(D) if c^2 < 4D, else t = |c|/2 (Cohen, 5.6)."""
    _, b, c = form
    t = s if c * c < 4 * D else abs(c) // 2
    b2 = t - (t + b) % abs(c)
    return c, b2, (b2 * b2 - D) // c


class SquareSolutions(_Record, namedtuple("SquareSolutions", "vectors complete")):
    """Solutions of v.v = c on a rank-2 form.

    ``complete`` marks whether ``vectors`` is the full solution set.  When it
    is False, ``vectors`` is empty: the set is infinite (a union of lines for
    D = 0), or empty or infinite and solve_square does not decide which.
    """

    __slots__ = ()

    def is_plus_minus(self, s: tuple[int, int]) -> bool:
        """Whether the set is provably {s, -s}: complete and nothing else."""
        return self.complete and set(self.vectors) == {s, (-s[0], -s[1])}


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def solve_square(F: QuadraticForm, c: int) -> SquareSolutions:
    """All integer solutions (x, y) of v.v = c on a rank-2 form [[a, b], [b, d]].

    D = b^2 - ad picks one exact method.  If D < 0, or D = r^2 > 0 and c != 0,
    it solves on the reduced form of _canonical_binary and maps each solution
    (x, y) back to x u + y w.  A square D reduces to (0, r, n): y (2rx + ny)
    = c for a signed divisor y of c.  A D < 0 reduces to a form whose a is its
    least value: a Q = (ax + by)^2 - D y^2 bounds y^2 <= ac / -D, and x is a
    root of a quadratic.  If D > 0 is not a square, a Q = 0 only at (0, 0),
    the one solution of c = 0.  If D = 0, Q = k (ux + vy)^2 with gcd(u, v) = 1
    and k from _canonical_binary (0 when Q = 0), and a c that is no k m^2 has
    no solution.  These sets are finite and returned complete.  Any other set
    is empty or infinite, and is returned empty and incomplete.
    """
    if F.rank != 2:
        raise ValueError("solve_square requires a rank-2 form")
    (a, b), (_, d) = F.gram.entries
    D = b * b - a * d
    r = isqrt(max(D, 0))
    if D == 0:
        k = _canonical_binary(a, b, d, D)[0][0]
        lines = c == 0 or k != 0 and c % k == 0 and c // k > 0 and isqrt(c // k) ** 2 == c // k
        return SquareSolutions((), complete=not lines)
    if D > 0 and r * r != D and c == 0:
        return SquareSolutions(((0, 0),), complete=True)
    if not (D < 0 or D > 0 and r * r == D and c != 0):
        return SquareSolutions((), complete=False)
    (a, b, d), (u, w) = _canonical_binary(a, b, d, D)
    if D > 0:  # y (2rx + dy) = c on the reduced (0, r, d)
        sols = {((c // y - d * y) // (2 * r), y) for e in _divisors(c) for y in (e, -e)
                if (c // y - d * y) % (2 * r) == 0}
    else:
        sols = set()
        ymax = isqrt(a * c // -D) if a * c >= 0 else -1
        for y in range(-ymax, ymax + 1):
            disc = a * c + D * y * y
            root = isqrt(disc)
            if root * root == disc:
                sols.update((n // a, y) for n in (root - b * y, -root - b * y) if n % a == 0)
    vectors = sorted((x * u[0] + y * w[0], x * u[1] + y * w[1]) for x, y in sols)
    return SquareSolutions(tuple(vectors), complete=True)

"""Handle-decomposition data: framed-link invariants, boundary homology,
Stein framing checks, first Chern class arithmetic, and the d3 invariant.

A FramedLinkPresentation is a 2-handlebody on a single 0-handle; other
manifolds enter only as AlgebraicFourManifold fixtures carrying their
intersection form and c1, with a stored Euler characteristic and signature
that no decision reads (the family's stored euler = 2 is not 1 + b2).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .intlin import (
    AbelianGroup,
    DegenerateLinkingFormError,
    IntMatrix,
    _Record,
    _symmetric_bareiss,
    cokernel,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from .quadform import QuadraticForm, classify

D3_TORSION_WARNING = ("d3 computed for a boundary that is not a homology sphere; "
                      "the value depends on the chosen lift of c1 over torsion")


class FramedLinkPresentation(_Record, namedtuple("FramedLinkPresentation", "linking rot tb")):
    """Framed link of 2-handle attaching circles.

    ``linking`` holds linking numbers off the diagonal and framings on it;
    ``rot`` holds rotation numbers and ``tb`` (when the link is Legendrian)
    Thurston-Bennequin numbers, one per component.
    """

    __slots__ = ()

    def __new__(cls, linking: IntMatrix, rot: tuple[int, ...], tb: Optional[tuple[int, ...]] = None):
        if not linking.is_symmetric:
            raise ValueError("linking matrix must be symmetric")
        if len(rot) != linking.rows:
            raise ValueError("rotation numbers must match the number of 2-handles")
        if tb is not None and len(tb) != linking.rows:
            raise ValueError("tb numbers must match the number of 2-handles")
        return tuple.__new__(cls, (linking, rot, tb))

    @property
    def n(self) -> int:
        return self.linking.rows

    def to_json_obj(self) -> dict:
        return {
            "linking": matrix_to_json(self.linking),
            "rot": vector_to_json(self.rot),
            "tb": vector_to_json(self.tb) if self.tb is not None else None,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FramedLinkPresentation":
        if not isinstance(obj, dict) or "linking" not in obj or "rot" not in obj:
            raise ValueError("link JSON must be an object with 'linking' and 'rot' keys")
        tb = obj.get("tb")
        return cls(
            linking=matrix_from_json(obj["linking"]),
            rot=vector_from_json(obj["rot"]),
            tb=vector_from_json(tb) if tb is not None else None,
        )


class AlgebraicFourManifold(_Record, namedtuple(
        "AlgebraicFourManifold",
        "form c1 euler sig simply_connected boundary_homology_sphere name stein")):
    """Algebraic shadow of a compact 4-manifold with boundary.

    ``c1`` is the evaluation vector of the first Chern class on the chosen
    basis of the intersection form.  ``stein`` records, as fixture metadata,
    that the manifold carries a Stein structure compatible with ``c1``.
    ``euler``, ``sig`` and ``boundary_homology_sphere`` are stored output
    data that no decision reads: homeo_decide takes the boundary hypothesis
    from the form, which determines all three.
    """

    __slots__ = ()

    def __new__(cls, form: QuadraticForm, c1: tuple[int, ...], euler: int, sig: int,
                simply_connected: bool, boundary_homology_sphere: bool,
                name: str = "", stein: bool = False):
        if len(c1) != form.rank:
            raise ValueError("c1 vector length must match the rank of the form")
        return tuple.__new__(cls, (form, c1, euler, sig, simply_connected,
                                   boundary_homology_sphere, name, stein))

    def is_characteristic(self) -> bool:
        """Whether c1(v) = v.v mod 2 on basis vectors, as for an
        almost-complex structure's first Chern class."""
        g = self.form.gram.entries
        return all((self.c1[i] - g[i][i]) % 2 == 0 for i in range(self.form.rank))

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "form": self.form.to_json_obj(),
            "c1": vector_to_json(self.c1),
            "euler": self.euler,
            "sig": self.sig,
            "simply_connected": self.simply_connected,
            "boundary_homology_sphere": self.boundary_homology_sphere,
            "stein": self.stein,
        }


class SteinFramingReport(_Record, namedtuple("SteinFramingReport", "framing_ok parity_ok")):
    """Per-handle results of the Stein framing and parity checks."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(self.framing_ok) and all(self.parity_ok)


def stein_checks(L: FramedLinkPresentation) -> SteinFramingReport:
    """Check framing = tb - 1 and tb + rot odd for each 2-handle."""
    if L.tb is None:
        raise ValueError("Legendrian data required: link has no tb numbers")
    diag = [L.linking.entries[i][i] for i in range(L.n)]
    return SteinFramingReport(
        framing_ok=tuple(diag[i] == L.tb[i] - 1 for i in range(L.n)),
        parity_ok=tuple((L.tb[i] + L.rot[i]) % 2 == 1 for i in range(L.n)),
    )


def invariants_from_link(L: FramedLinkPresentation) -> AlgebraicFourManifold:
    """Standard invariants of the 2-handlebody built on the framed link.

    With no 1-handles the manifold is simply connected, its intersection
    form is the linking matrix, and the Euler characteristic is 1 + n.  The
    Stein flag is set only when Legendrian data is present and every handle
    passes the framing and parity checks.
    """
    form = QuadraticForm(L.linking)
    fc = classify(form)
    return AlgebraicFourManifold(
        form=form,
        c1=L.rot,
        euler=1 + L.n,
        sig=fc.signature,
        simply_connected=True,
        boundary_homology_sphere=fc.unimodular,
        name="2-handlebody on %d handles" % L.n,
        stein=L.tb is not None and stein_checks(L).all_ok,
    )


def boundary_first_homology(L: FramedLinkPresentation) -> AbelianGroup:
    """H1 of the boundary 3-manifold: the cokernel of the linking matrix.

    A trivial group means the boundary is a homology 3-sphere.
    """
    return cokernel(L.linking)


def chern_eval(M: AlgebraicFourManifold, v: Sequence[int]) -> int:
    """Evaluation of c1 on the class with coordinates v."""
    if len(v) != M.form.rank:
        raise ValueError("vector length does not match the rank of the form")
    return sum(map(mul, M.c1, v))


def _d3_terms(L: FramedLinkPresentation) -> tuple[Fraction, Fraction, int, int]:
    """(d3, c1^2, sigma, det) of the linking matrix A from one elimination of
    M = [[A, rot], [rot^T, 0]]: det M = -det A * c1^2 (Schur complement)."""
    m = [list(row) + [r] for row, r in zip(L.linking.entries, L.rot)] + [list(L.rot) + [0]]
    pos, neg, zero, det = _symmetric_bareiss(m, L.n)
    if zero:
        raise DegenerateLinkingFormError("degenerate linking form: matrix is singular")
    csq = Fraction(-m[-1][-1], det)
    return (csq - 3 * (pos - neg) - 2 * (1 + L.n)) / 4, csq, pos - neg, det


def c1_square(L: FramedLinkPresentation) -> Fraction:
    """c1^2 of the 2-handlebody: rot . x for the exact solution of
    linking x = rot.  Requires a nonsingular linking matrix."""
    return _d3_terms(L)[1]


def d3(L: FramedLinkPresentation) -> Fraction:
    """The d3 invariant (c1^2 - 3*sigma - 2*chi) / 4 of the boundary plane
    field, with chi = 1 + n and sigma the signature of the linking matrix.

    Only offered for nonsingular linking matrices; when the boundary is not
    a homology sphere the value still evaluates but depends on the torsion
    lift of c1, so a warning is emitted.
    """
    value, _, _, det = _d3_terms(L)
    if abs(det) != 1:
        warnings.warn(D3_TORSION_WARNING, stacklevel=2)
    return value

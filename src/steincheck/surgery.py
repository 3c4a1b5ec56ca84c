"""The parametric families: log-transform 4-manifolds X_p with their
distinguished square -2 / -1 classes, torus mapping classes f_p with the
Eliashberg-Polterovich summand criterion, and the rank-1-plus-torsion
homology family V_p."""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .handle import AlgebraicFourManifold
from .intlin import (
    AbelianGroup,
    IntMatrix,
    _Record,
    cokernel,
    determinant,
    vector_to_json,
)
from .quadform import QuadraticForm


class LogTransformFamilyMember(_Record, namedtuple("LogTransformFamilyMember", "p manifold s_class")):
    """One member X_p of the log-transform family.

    The manifold carries the intersection form and c1 of _member_terms(p)
    in the basis (T_p, R_p); ``s_class`` holds the coordinates (k, 1) of the
    distinguished class S_p = R_p + k T_p.  The label p = 0 denotes the
    untransformed manifold X in the basis (T, S), with S itself as
    distinguished class.

    x_family() is the validated constructor; the record itself accepts
    arbitrary data so that degenerate examples can be probed.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.s_class[0]

    @property
    def q(self) -> Optional[int]:
        return (self.p + 1) // 2 if self.p >= 1 else None

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "k": self.k,
            "manifold": self.manifold.to_json_obj(),
            "s_class": vector_to_json(self.s_class),
            "normalized_form": normalized_form(self).to_json_obj(),
        }


def _member_terms(p: int) -> tuple[tuple, tuple[int, int], tuple[int, int]]:
    """(gram entries, c1, s_class) of X_p: the one home of the member
    formulas, in +, - and x of p and q = (p + 1) // 2."""
    if p < 0:
        raise ValueError("family parameters must be >= 0")
    if p == 0:
        return ((0, 1), (1, -2)), (0, 0), (0, 1)
    q = (p + 1) // 2
    return ((0, 1), (1, -2 * p * p + p - 3)), (0, -1 - p), (p * p - q + 1, 1)


def x_family(p: int) -> LogTransformFamilyMember:
    """The member X_p (p >= 1), or X under the p = 0 convention, from _member_terms."""
    gram, c1, s_class = _member_terms(p)
    labels, name = (("T", "S"), "X") if p == 0 else (("T_%d" % p, "R_%d" % p), "X_%d" % p)
    manifold = AlgebraicFourManifold(
        form=QuadraticForm(IntMatrix(2, 2, gram), labels),
        c1=c1,
        euler=2,  # stored, read by no decision; not 1 + b2 = 3
        sig=0,
        simply_connected=True,
        boundary_homology_sphere=True,
        name=name,
        stein=True,
    )
    return LogTransformFamilyMember(p=p, manifold=manifold, s_class=s_class)


def family_parameter(parity: str, q: int) -> int:
    """p of the q-th member of the odd (p = 2q - 1) or even (p = 2q) family;
    the one check of the parity name and of q >= 1."""
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    if q < 1:
        raise ValueError("q values must be positive")
    return 2 * q - 1 if parity == "odd" else 2 * q


def normalized_form(member: LogTransformFamilyMember) -> QuadraticForm:
    """The member's form rewritten in the basis (T_p, S_p).

    The basis change is the shear B = [[1, k], [0, 1]]; the result is
    [[0,1],[1,-2]] for odd p (and for p = 0) and [[0,1],[1,-1]] for even p >= 2.
    """
    if member.p == 0:
        labels = ("T", "S")
    else:
        labels = ("T_%d" % member.p, "S_%d" % member.p)
    return QuadraticForm(IntMatrix(2, 2, _shear(member.manifold.form.gram.entries, member.k)), labels)


def _shear(gram: tuple, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The entries of B^T F B for the shear B = [[1, k], [0, 1]] (det 1) of
    the 2 x 2 gram entries F."""
    (a, b), (_, c) = gram
    ak_b = a * k + b
    return (a, ak_b), (ak_b, (ak_b + b) * k + c)


FIXTURE_NOTES = {
    "euler_sig": (
        "euler = 2 and sig = 0 are stored fixture data for the rank-2 family "
        "that no decision reads; sig = 0 is the signature of the stated "
        "intersection form, but euler = 2 is not 1 + b2 = 3, the Euler "
        "characteristic of a simply connected member with b2 = 2"
    ),
    "stein": (
        "the stein flag records that members carry Stein structures coming "
        "from Legendrian handle pictures; it is fixture metadata, not a "
        "computed fact"
    ),
}


class TorusMappingClass(_Record, namedtuple("TorusMappingClass", "matrix")):
    """Isotopy class of an orientation-preserving self-diffeomorphism of the
    3-torus, recorded by its action on H1 = Z^3.

    Vectors act on the right (v -> v M), so the subspace spanned by the
    first two coordinates is stabilized exactly when the third column has
    zero entries in the first two rows.
    """

    __slots__ = ()

    def __new__(cls, matrix: IntMatrix):
        if not (matrix.rows == 3 and matrix.cols == 3):
            raise ValueError("torus mapping class must be a 3x3 matrix")
        if determinant(matrix) != 1:
            raise ValueError("torus mapping class must have determinant 1")
        return tuple.__new__(cls, (matrix,))

    def to_json_obj(self) -> list[list[int]]:
        return self.matrix.to_lists()


def fp_matrix(p: int) -> TorusMappingClass:
    """The torus mapping class acting on H1 by the unitriangular matrix with
    (3,2) entry p; p = 0 gives the identity."""
    if p < 0:
        raise ValueError("mapping-class parameter must be a nonnegative integer")
    return TorusMappingClass(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, p, 1]]))


def compose(f: TorusMappingClass, g: TorusMappingClass) -> TorusMappingClass:
    return TorusMappingClass(f.matrix @ g.matrix)


def stabilizes_summand(f: TorusMappingClass) -> bool:
    """Whether the action maps the sublattice {(x, y, 0)} into itself.

    Under the right action v -> v M this asks that rows 1 and 2 have zero
    third coordinate.  A mapping class with this property is isotopic to a
    contactomorphism of the standard tight 3-torus (Eliashberg-Polterovich).
    """
    e = f.matrix.entries
    return e[0][2] == 0 and e[1][2] == 0


def v_family_homology(p: int) -> AbelianGroup:
    """H1 of the p-th reglued member of the one-2-handle family: the
    cokernel of the single relator (0, p) on Z^2, i.e. Z + Z/p."""
    if p < 1:
        raise ValueError("family parameter must be a positive integer")
    presentation = IntMatrix.from_rows([[0], [p]])
    return cokernel(presentation)

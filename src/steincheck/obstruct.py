"""Topological conclusions: adjunction genus lower bounds, homeomorphism
decisions via intersection-form classification, distinguished-class
rigidity, and machine-checked certificates that a family realizes
infinitely many smooth structures in one homeomorphism type."""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .handle import AlgebraicFourManifold, chern_eval
from .intlin import IntMatrix, _Record
from .quadform import QuadraticForm, classify, form_key, is_isomorphic, pairing, solve_square
from .surgery import LogTransformFamilyMember, _shear, family_parameter, x_family

CLASS_RIGIDITY_NOTE = (
    "The distinguished class is, up to sign, the only class of its square, "
    "so any diffeomorphism between members carries one distinguished class "
    "to plus or minus the other and therefore preserves its minimal embedded "
    "genus."
)


class GenusBound(_Record, namedtuple(
        "GenusBound", "class_coords self_intersection c1_pairing lower_bound")):
    """Adjunction lower bound for the genus of embedded surfaces in a class.

    lower_bound = max(0, ceil((|c1.v| + v.v + 2) / 2)), from the adjunction
    inequality 2g - 2 >= v.v + |c1.v| for Stein domains.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "class": [str(x) for x in self.class_coords],
            "self_intersection": str(self.self_intersection),
            "c1_pairing": str(self.c1_pairing),
            "lower_bound": self.lower_bound,
        }


class InfinitudeCertificate(_Record, namedtuple(
        "InfinitudeCertificate", "family_label parity parameters bounds rigidity "
        "all_homeomorphic bounds_increasing conclusion members")):
    """Machine-checked record that a family contains infinitely many
    pairwise homeomorphic but mutually distinct smooth structures.

    The conclusion is true only when the family has at least two members,
    all members are pairwise homeomorphic, every member passes the
    class-rigidity check, and the genus lower bounds strictly increase
    along the parameters (``bounds_increasing``).  ``members`` holds the
    checked members; the JSON form leaves out those two fields.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "family_label": self.family_label,
            "parity": self.parity,
            "parameters": list(self.parameters),
            "bounds": list(self.bounds),
            "rigidity": list(self.rigidity),
            "all_homeomorphic": self.all_homeomorphic,
            "class_rigidity_note": CLASS_RIGIDITY_NOTE,
            "conclusion": self.conclusion,
        }


def adjunction_lower_bound(M: AlgebraicFourManifold, v: Sequence[int]) -> GenusBound:
    """Genus lower bound for smoothly embedded closed surfaces representing
    the nonzero class v in a Stein-flagged manifold."""
    if not any(v):
        raise ValueError("adjunction requires a homologically essential class")
    if not M.stein:
        raise ValueError("adjunction bound requires a manifold flagged as Stein")
    vv = pairing(M.form, v, v)
    c1v = chern_eval(M, v)
    num = abs(c1v) + vv + 2
    return GenusBound(
        class_coords=tuple(v),
        self_intersection=vv,
        c1_pairing=c1v,
        lower_bound=max(0, (num + 1) // 2),
    )


def _hypotheses_hold(M: AlgebraicFourManifold) -> bool:
    # for a simply connected M, H1(boundary) = coker Q: a homology sphere iff |det Q| = 1
    return M.simply_connected and classify(M.form).unimodular


def homeo_decide(M: AlgebraicFourManifold, N: AlgebraicFourManifold) -> str:
    """Homeomorphism decision for simply connected 4-manifolds whose
    boundaries are homology spheres, by the topological classification via
    intersection forms (Freedman); one of "homeomorphic",
    "not_homeomorphic", "inapplicable".  The boundary hypothesis is read
    from the form (unimodular), not from the stored
    ``boundary_homology_sphere`` flag."""
    if not (_hypotheses_hold(M) and _hypotheses_hold(N)):
        return "inapplicable"
    verdict = is_isomorphic(M.form, N.form)
    if verdict == "yes":
        return "homeomorphic"
    if verdict == "no":
        return "not_homeomorphic"
    return "inapplicable"


class HomeoClasses(_Record, namedtuple("HomeoClasses", "class_of representatives between")):
    """A list of manifolds split into homeomorphism classes.

    ``class_of[i]`` is the class of the i-th manifold, numbered in order of
    first appearance, ``representatives[c]`` the first manifold of class c,
    and ``between[c, d]`` the verdict between the two representatives: for
    c = d "homeomorphic", or "inapplicable" when the representative fails
    the hypotheses (such a class has no other member), and otherwise their
    homeo_decide verdict.
    """

    __slots__ = ()

    def verdict(self, i: int, j: int) -> str:
        """The verdict for the i-th and j-th manifolds, read off their
        classes; transitivity carries a representatives' verdict over to
        every member."""
        return self.between[self.class_of[i], self.class_of[j]]


def homeo_classes(manifolds: Sequence[AlgebraicFourManifold]) -> HomeoClasses:
    """Split manifolds into homeomorphism classes with one form_key call per
    manifold that meets the hypotheses and one homeo_decide call per pair of
    classes.

    A manifold that meets the hypotheses is grouped by the form_key of its
    form, or by its Gram matrix where that key is None, since identical forms
    are isomorphic; one that fails them keeps a class of its own.
    """
    groups: dict = {}  # grouping key -> class
    class_of: list[int] = []
    representatives: list[AlgebraicFourManifold] = []
    between: dict[tuple[int, int], str] = {}
    for i, M in enumerate(manifolds):
        holds = _hypotheses_hold(M)
        key = (form_key(M.form) or M.form.gram.entries) if holds else i
        c = groups.setdefault(key, len(groups))
        class_of.append(c)
        if c == len(representatives):
            between[c, c] = "homeomorphic" if holds else "inapplicable"
            for d, rep in enumerate(representatives):
                between[c, d] = between[d, c] = homeo_decide(rep, M)
            representatives.append(M)
    return HomeoClasses(tuple(class_of), tuple(representatives), between)


def class_rigidity(member: LogTransformFamilyMember) -> bool:
    """Whether the distinguished class is, up to sign, the unique class of
    its square.  True only when the solution set is provably complete and
    equals {s, -s}."""
    return _is_rigid(member.manifold.form, member.s_class)


def _is_rigid(form: QuadraticForm, s: tuple[int, int]) -> bool:
    return solve_square(form, pairing(form, s, s)).is_plus_minus(s)


def infinitude_report(parity: str, q_range: Iterable[int]) -> InfinitudeCertificate:
    """Build and check the infinitude certificate for one parity family.

    For each q the member has parameter p = 2q - 1 (odd family) or 2q (even
    family).  The checks are exactly the ingredients of the finiteness
    argument: pairwise homeomorphism, class rigidity, and strictly
    increasing genus lower bounds on the distinguished classes.

    Rigidity is decided once per distinct pair (N, w), for N = B^T F B and
    w = B^-1 s with the member's shear B = [[1, k], [0, 1]]: B has det 1, so
    v -> B^-1 v maps {v : v.v = c} on F onto {u : u.u = c} on N and s onto w.
    """
    # family_parameter checks parity and each q as the members are built, so
    # the first bad q raises before the rest of q_range is read
    members = [x_family(family_parameter(parity, q)) for q in q_range]
    if not members:
        raise ValueError("q_range must be nonempty")
    if any(a.p >= b.p for a, b in zip(members, members[1:])):
        raise ValueError("q_range must be strictly increasing")
    bounds = [adjunction_lower_bound(m.manifold, m.s_class).lower_bound for m in members]
    rigid = {}  # (N, w) -> verdict, kept for this call only
    rigidity = []
    for m in members:
        s0, s1 = m.s_class
        N, w = _shear(m.manifold.form.gram, m.k), (s0 - m.k * s1, s1)
        if (N, w) not in rigid:
            rigid[N, w] = _is_rigid(QuadraticForm(IntMatrix(2, 2, N)), w)
        rigidity.append(rigid[N, w])
    classes = homeo_classes([m.manifold for m in members])
    all_homeo = len(classes.representatives) == 1 and classes.verdict(0, 0) == "homeomorphic"
    increasing = all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))
    conclusion = len(members) >= 2 and all_homeo and all(rigidity) and increasing

    return InfinitudeCertificate(
        family_label="log-transform family, %s parameters (p = %s)"
        % (parity, "2q-1" if parity == "odd" else "2q"),
        parity=parity,
        parameters=tuple(m.p for m in members),
        bounds=tuple(bounds),
        rigidity=tuple(rigidity),
        all_homeomorphic=all_homeo,
        bounds_increasing=increasing,
        conclusion=conclusion,
        members=tuple(members),
    )


def certificate_text(cert: InfinitudeCertificate) -> str:
    """Human-readable report with the inference spelled out step by step."""
    lines = []
    lines.append("Infinitude certificate: %s" % cert.family_label)
    lines.append("  parameters p : %s" % ", ".join(str(p) for p in cert.parameters))
    lines.append(
        "  [1] pairwise homeomorphic (same rank, signature, parity, unimodular "
        "indefinite): %s" % ("PASS" if cert.all_homeomorphic else "FAIL")
    )
    lines.append(
        "  [2] class rigidity for every member: %s (%d/%d)"
        % ("PASS" if all(cert.rigidity) else "FAIL", sum(cert.rigidity), len(cert.rigidity))
    )
    lines.append(
        "  [3] adjunction genus lower bounds strictly increasing: %s (%s)"
        % ("PASS" if cert.bounds_increasing else "FAIL", ", ".join(str(b) for b in cert.bounds))
    )
    lines.append("  note: %s" % CLASS_RIGIDITY_NOTE)
    lines.append(
        "  inference: by [2] a diffeomorphism between two members forces their "
        "distinguished-class genera to agree, while [3] bounds those genera by "
        "strictly increasing values; hence each diffeomorphism class contains "
        "only finitely many members, and by [1] the whole family lives in a "
        "single homeomorphism type."
    )
    lines.append("  conclusion: %s" % ("TRUE" if cert.conclusion else "FALSE"))
    return "\n".join(lines)


def certificate_csv_rows(cert: InfinitudeCertificate) -> list[list[str]]:
    """Rows (p, parity, form-class, bound, rigidity) for spreadsheet export."""
    rows = [["p", "parity", "form_class", "bound", "rigidity"]]
    for m, bound, rigid in zip(cert.members, cert.bounds, cert.rigidity):
        fc = classify(m.manifold.form)
        rows.append([str(m.p), cert.parity, fc.describe(), str(bound), str(rigid).lower()])
    return rows

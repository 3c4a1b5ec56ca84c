"""Topological conclusions: adjunction genus lower bounds, homeomorphism
decisions via intersection-form classification, distinguished-class
rigidity, and machine-checked certificates that a family realizes
infinitely many smooth structures in one homeomorphism type."""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Sequence

from .handle import AlgebraicFourManifold, chern_eval
from .intlin import _Record
from .quadform import classify, form_key, is_isomorphic, pairing, solve_square
from .surgery import LogTransformFamilyMember, _member_terms, _shear, family_parameter, x_family

CLASS_RIGIDITY_NOTE = (
    "The distinguished class is, up to sign, the only class of its square, "
    "so any diffeomorphism between members carries one distinguished class "
    "to plus or minus the other and therefore preserves its minimal embedded "
    "genus."
)


class GenusBound(_Record, namedtuple("GenusBound", "class_coords self_intersection c1_pairing")):
    """Adjunction lower bound for the genus of embedded surfaces in a class."""

    __slots__ = ()

    @property
    def lower_bound(self) -> int:
        """max(0, ceil((|c1.v| + v.v + 2) / 2)), from the adjunction
        inequality 2g - 2 >= v.v + |c1.v| for Stein domains."""
        return max(0, -(-(abs(self.c1_pairing) + self.self_intersection + 2) // 2))

    def to_json_obj(self) -> dict:
        return {
            "class": [str(x) for x in self.class_coords],
            "self_intersection": str(self.self_intersection),
            "c1_pairing": str(self.c1_pairing),
            "lower_bound": self.lower_bound,
        }


class InfinitudeCertificate(_Record, namedtuple(
        "InfinitudeCertificate", "parity parameters bounds rigidity all_homeomorphic classes")):
    """Machine-checked record that a family contains infinitely many
    pairwise homeomorphic but mutually distinct smooth structures.

    ``classes`` holds each member's FormClass; the JSON form leaves it and
    ``bounds_increasing`` out.
    """

    __slots__ = ()

    @property
    def family_label(self) -> str:
        return "log-transform family, %s parameters (p = %s)" % (
            self.parity, "2q-1" if self.parity == "odd" else "2q")

    @property
    def bounds_increasing(self) -> bool:
        """Whether the genus lower bounds strictly increase along the parameters."""
        return all(a < b for a, b in zip(self.bounds, self.bounds[1:]))

    @property
    def conclusion(self) -> bool:
        """True only when the family has at least two members, all members
        are pairwise homeomorphic, every member passes the class-rigidity
        check, and the bounds strictly increase."""
        return (len(self.parameters) >= 2 and self.all_homeomorphic and all(self.rigidity)
                and self.bounds_increasing)

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
    return GenusBound(tuple(v), pairing(M.form, v, v), chern_eval(M, v))


def family_bounds(parity: str, q_range: Iterable[int]) -> Iterator[tuple]:
    """Yield (q, p, (N, w), representative, GenusBound) for each q, as read,
    with N = B^T F B and w = B^-1 s for the member's det-1 shear B = [[1, k],
    [0, 1]].  The key's first member, from x_family, is checked by
    adjunction_lower_bound, whose s.s = w.w on N every member of the key
    shares; only c1.s and the bound are computed per member."""
    first = {}  # (N, w) -> (representative, s.s), kept for this call only
    for q in q_range:
        p = family_parameter(parity, q)
        gram, c1, (s0, s1) = _member_terms(p)
        key = _shear(gram, s0), (s0 - s0 * s1, s1)  # the shear's k is s0
        if key not in first:
            rep = x_family(p)
            first[key] = rep, adjunction_lower_bound(rep.manifold, rep.s_class).self_intersection
        rep, vv = first[key]
        yield q, p, key, rep, GenusBound((s0, s1), vv, c1[0] * s0 + c1[1] * s1)


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
    its square, the one rigidity decision: True only when the solution set
    is provably complete and equals {s, -s}."""
    form, s = member.manifold.form, member.s_class
    return solve_square(form, pairing(form, s, s)).is_plus_minus(s)


def infinitude_report(parity: str, q_range: Iterable[int]) -> InfinitudeCertificate:
    """Build and check the infinitude certificate for one parity family.

    For each q the member has parameter p = 2q - 1 (odd family) or 2q (even
    family).  The checks are exactly the ingredients of the finiteness
    argument: pairwise homeomorphism, class rigidity, and strictly
    increasing genus lower bounds on the distinguished classes.

    Rigidity (by class_rigidity), the FormClass and the homeomorphism class
    are decided once per key (N, w) of family_bounds, on its representative:
    a member's det-1 shear maps {v : v.v = c} on F onto {u : u.u = c} on N
    and s onto w, and F is congruent to the key's forms.
    """
    rigid = {}  # (N, w) -> (verdict, FormClass), kept for this call only
    representatives, rows = [], []
    for _, p, (N, w), rep, bound in family_bounds(parity, q_range):
        if (N, w) not in rigid:
            rigid[N, w] = class_rigidity(rep), classify(rep.manifold.form)
            representatives.append(rep.manifold)
        rows.append((p, bound.lower_bound, *rigid[N, w]))
    if not rows:
        raise ValueError("q_range must be nonempty")
    parameters, bounds, rigidity, classes = zip(*rows)
    if any(a >= b for a, b in zip(parameters, parameters[1:])):
        raise ValueError("q_range must be strictly increasing")
    homeo = homeo_classes(representatives)
    all_homeo = len(homeo.representatives) == 1 and homeo.verdict(0, 0) == "homeomorphic"
    return InfinitudeCertificate(parity, parameters, bounds, rigidity, all_homeo, classes)


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
    described = {fc: fc.describe() for fc in set(cert.classes)}
    for p, bound, rigid, fc in zip(cert.parameters, cert.bounds, cert.rigidity, cert.classes):
        rows.append([str(p), cert.parity, described[fc], str(bound), str(rigid).lower()])
    return rows

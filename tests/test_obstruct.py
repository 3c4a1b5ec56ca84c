import json
import math

import pytest

from steincheck import obstruct, quadform, surgery
from steincheck.cli import run
from steincheck.handle import AlgebraicFourManifold
from steincheck.intlin import IntMatrix
from steincheck.obstruct import (
    CLASS_RIGIDITY_NOTE,
    GenusBound,
    adjunction_lower_bound,
    certificate_csv_rows,
    certificate_text,
    class_rigidity,
    family_bounds,
    homeo_classes,
    homeo_decide,
    infinitude_report,
)
from steincheck.quadform import QuadraticForm, classify
from steincheck.surgery import LogTransformFamilyMember, family_parameter, x_family

from oracles import random_unimodular_matrix
import random


def synthetic_member(gram_rows, s_class, c1=(0, 0)):
    manifold = AlgebraicFourManifold(
        form=QuadraticForm.from_rows(gram_rows),
        c1=c1,
        euler=2,
        sig=0,
        simply_connected=True,
        boundary_homology_sphere=True,
        name="synthetic",
        stein=True,
    )
    return LogTransformFamilyMember(p=1, manifold=manifold, s_class=s_class)


class TestAdjunctionLowerBound:
    def test_odd_family_q2(self):
        m = x_family(3)  # p = 2q - 1 with q = 2
        b = adjunction_lower_bound(m.manifold, m.s_class)
        assert b.c1_pairing == -4
        assert b.self_intersection == -2
        assert b.lower_bound == 2

    def test_even_family_q1(self):
        m = x_family(2)
        b = adjunction_lower_bound(m.manifold, m.s_class)
        assert b.c1_pairing == -3
        assert b.self_intersection == -1
        assert b.lower_bound == 2

    def test_untransformed_member_floors_at_zero(self):
        m = x_family(0)
        b = adjunction_lower_bound(m.manifold, m.s_class)
        assert b.c1_pairing == 0 and b.self_intersection == -2
        assert b.lower_bound == 0

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError, match="homologically essential"):
            adjunction_lower_bound(x_family(1).manifold, (0, 0))

    def test_requires_stein_flag(self):
        m = AlgebraicFourManifold(**{**x_family(1).manifold._asdict(), "stein": False})
        with pytest.raises(ValueError, match="Stein"):
            adjunction_lower_bound(m, (1, 1))

    def test_bound_is_exactly_q_or_q_plus_one(self):
        for q in range(1, 51):
            odd = x_family(2 * q - 1)
            even = x_family(2 * q)
            assert adjunction_lower_bound(odd.manifold, odd.s_class).lower_bound == q
            assert adjunction_lower_bound(even.manifold, even.s_class).lower_bound == q + 1

    def test_odd_numerator_rounds_up(self):
        m = synthetic_member([[0, 1], [1, -2]], (0, 1), c1=(0, 3))
        b = adjunction_lower_bound(m.manifold, (0, 1))
        # (|3| - 2 + 2) / 2 = 3/2, so the genus bound is 2
        assert b.lower_bound == 2

    def test_lower_bound_is_the_adjunction_formula(self):
        for c1v in range(-20, 21):
            for vv in range(-20, 21):
                expected = max(0, math.ceil((abs(c1v) + vv + 2) / 2))
                assert GenusBound((1, 0), vv, c1v).lower_bound == expected


class TestHomeoDecide:
    def test_odd_member_vs_untransformed(self):
        assert homeo_decide(x_family(3).manifold, x_family(0).manifold) == "homeomorphic"

    def test_even_member_vs_untransformed(self):
        assert homeo_decide(x_family(2).manifold, x_family(0).manifold) == "not_homeomorphic"

    def test_reflexive(self):
        m = x_family(11).manifold
        assert homeo_decide(m, m) == "homeomorphic"

    def test_family_parity_rule(self):
        members = {p: x_family(p) for p in range(0, 31)}
        for p in range(0, 31):
            for q in range(0, 31):
                even_p = p == 0 or p % 2 == 1
                even_q = q == 0 or q % 2 == 1
                expected = "homeomorphic" if even_p == even_q else "not_homeomorphic"
                assert homeo_decide(members[p].manifold, members[q].manifold) == expected

    def test_inapplicable_without_simply_connected(self):
        m = x_family(1).manifold
        n = AlgebraicFourManifold(**{**m._asdict(), "simply_connected": False})
        assert homeo_decide(m, n) == "inapplicable"

    def test_inapplicable_without_homology_sphere_boundary(self):
        # det 4: H1 of the boundary is coker Q = Z/4
        m = x_family(1).manifold
        n = AlgebraicFourManifold(**{**m._asdict(), "form": QuadraticForm.from_rows([[0, 2], [2, -2]])})
        assert homeo_decide(m, n) == homeo_decide(n, n) == "inapplicable"

    def test_boundary_hypothesis_is_read_from_the_form(self):
        # det 3 forms stored with boundary_homology_sphere=True: the flag is
        # not a fact about them, so Freedman's classification does not apply
        a = synthetic_manifold([[2, 1], [1, 2]])
        b = synthetic_manifold([[2, -1], [-1, 2]])
        assert a.boundary_homology_sphere and b.boundary_homology_sphere
        assert homeo_decide(a, b) == "inapplicable"
        classes = homeo_classes([a, b])
        assert classes.verdict(0, 1) == classes.verdict(0, 0) == "inapplicable"

    def test_inapplicable_when_forms_undecided(self):
        rng = random.Random(5)
        gram = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        B = IntMatrix.from_rows(random_unimodular_matrix(rng, 3))
        other = B.transpose() @ gram @ B
        assert other.entries != gram.entries
        base = dict(
            c1=(1, 1, 1),
            euler=4,
            sig=3,
            simply_connected=True,
            boundary_homology_sphere=True,
            stein=False,
        )
        m = AlgebraicFourManifold(form=QuadraticForm(gram), name="a", **base)
        n = AlgebraicFourManifold(form=QuadraticForm(other), name="b", **base)
        assert homeo_decide(m, n) == "inapplicable"


def synthetic_manifold(gram_rows):
    return synthetic_member(gram_rows, (0, 0), c1=(0,) * len(gram_rows)).manifold


@pytest.fixture
def decisions(monkeypatch):
    """Every homeo_decide call made through the obstruct module."""
    calls = []

    def counting(M, N):
        calls.append((M.name, N.name))
        return homeo_decide(M, N)

    monkeypatch.setattr(obstruct, "homeo_decide", counting)
    return calls


@pytest.fixture
def form_keys(monkeypatch):
    """Every form_key call, made through obstruct or quadform."""
    calls = []
    key = quadform.form_key

    def counting(F):
        calls.append(F)
        return key(F)

    monkeypatch.setattr(obstruct, "form_key", counting)
    monkeypatch.setattr(quadform, "form_key", counting)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """The rank of every classify elimination (quadform._symmetric_bareiss call)."""
    calls = []
    eliminate = quadform._symmetric_bareiss

    def counting(*args):
        calls.append(args[1])
        return eliminate(*args)

    monkeypatch.setattr(quadform, "_symmetric_bareiss", counting)
    return calls


class TestHomeoClasses:
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_certificate_decisions_are_linear(self, capsys, decisions, form_keys, parity):
        # the members of one parity share one (N, w) key, whose representative
        # is the one form grouped, with no pairwise decision
        assert run(["certificate", "--parity", parity, "--q-range", "1..200"]) == 0
        capsys.readouterr()
        assert len(form_keys) == 1
        assert decisions == []

    def test_lemma_homeo_decisions_are_linear(self, capsys, decisions):
        assert run(["lemma", "homeo", "--max-p", "80", "--output", "json"]) == 0
        capsys.readouterr()
        assert 0 < len(decisions) <= 3 * 81

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_certificate_eliminates_each_member_once(self, capsys, eliminations, parity):
        argv = ["certificate", "--parity", parity, "--q-range", "1..200", "--output", "csv"]
        assert run(argv) == 0
        capsys.readouterr()
        assert len(eliminations) == 1  # the one representative's form

    def test_lemma_homeo_eliminates_each_member_once(self, capsys, eliminations):
        assert run(["lemma", "homeo", "--max-p", "80", "--output", "json"]) == 0
        capsys.readouterr()
        assert len(eliminations) == 81

    def test_matches_pairwise_decisions_on_family(self):
        manifolds = [x_family(p).manifold for p in range(0, 31)]
        classes = homeo_classes(manifolds)
        assert len(classes.representatives) == 2
        for i, M in enumerate(manifolds):
            for j, N in enumerate(manifolds):
                assert classes.verdict(i, j) == homeo_decide(M, N), (i, j)

    def test_failed_hypotheses_are_inapplicable_even_on_the_diagonal(self):
        m = x_family(1).manifold
        bad = AlgebraicFourManifold(**{**m._asdict(), "simply_connected": False})
        classes = homeo_classes([m, bad, x_family(3).manifold])
        assert classes.class_of == (0, 1, 0)
        for i in range(3):
            assert classes.verdict(i, 1) == "inapplicable"
            assert classes.verdict(1, i) == "inapplicable"
        assert classes.verdict(0, 2) == "homeomorphic"

    def test_undecided_forms_stay_apart(self):
        # x^2 + 6y^2 and 2x^2 + 3y^2 have det 6, so the boundary is no
        # homology sphere and each form keeps a class of its own
        a = synthetic_manifold([[1, 0], [0, 6]])
        b = synthetic_manifold([[2, 0], [0, 3]])
        classes = homeo_classes([a, b])
        assert classes.class_of == (0, 1)
        assert classes.verdict(0, 1) == classes.verdict(1, 0) == "inapplicable"
        # unimodular rank-3 definite forms stay undecided, so their classes
        # stay apart with an inapplicable verdict between them
        c = synthetic_manifold([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        d = synthetic_manifold([[1, 1, 0], [1, 2, 1], [0, 1, 2]])
        classes = homeo_classes([c, d])
        assert classes.class_of == (0, 1)
        assert classes.verdict(0, 1) == classes.verdict(1, 0) == "inapplicable"
        assert classes.verdict(0, 0) == classes.verdict(1, 1) == "homeomorphic"
        # identical forms share a class even where the key is None
        classes = homeo_classes([c, d, synthetic_manifold([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
        assert classes.class_of == (0, 1, 0)
        assert classes.verdict(0, 2) == "homeomorphic"

    def test_differing_invariants_give_distinct_classes(self):
        manifolds = [
            x_family(1).manifold,  # even, signature 0
            x_family(2).manifold,  # odd, signature 0
            synthetic_manifold([[1, 0], [0, 1]]),  # signature 2
            synthetic_manifold([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),  # rank 3
            x_family(5).manifold,
        ]
        classes = homeo_classes(manifolds)
        assert classes.class_of == (0, 1, 2, 3, 0)
        for i in range(4):
            for j in range(4):
                expected = "homeomorphic" if i == j else "not_homeomorphic"
                assert classes.verdict(i, j) == expected


class TestClassRigidity:
    def test_family_members(self):
        assert class_rigidity(x_family(1))
        assert class_rigidity(x_family(2))

    def test_whole_range(self):
        for p in range(1, 51):
            assert class_rigidity(x_family(p)), "p = %d" % p

    def test_untransformed_member(self):
        assert class_rigidity(x_family(0))

    # solution sets solve_square leaves undecided: empty or infinite, never {s, -s}
    UNDECIDED = {
        "degenerate": ([[1, 0], [0, 0]], (1, 0)),  # D = 0: every (+-1, y)
        "non-square-D": ([[1, 0], [0, -2]], (1, 0)),  # x^2 - 2y^2 = 1: Pell's orbit
        "isotropic-square-zero": ([[0, 1], [1, 0]], (0, 1)),  # c = 0 on D = 1: both axes
    }

    @pytest.mark.parametrize("kind", list(UNDECIDED))
    def test_undecided_set_fails(self, kind):
        member = synthetic_member(*self.UNDECIDED[kind])
        assert not class_rigidity(member)

    def test_zero_class_on_anisotropic_form(self):
        # x^2 - 7y^2 = 0 only at the origin, so the zero class is rigid
        assert class_rigidity(synthetic_member([[1, 0], [0, -7]], (0, 0)))


class TestInfinitudeReport:
    def test_odd_q1_to_10(self):
        cert = infinitude_report("odd", range(1, 11))
        assert cert.parameters == tuple(2 * q - 1 for q in range(1, 11))
        assert cert.bounds == tuple(range(1, 11))
        assert all(cert.rigidity)
        assert cert.all_homeomorphic
        assert cert.bounds_increasing and cert.conclusion
        assert cert.to_json_obj()["class_rigidity_note"] == CLASS_RIGIDITY_NOTE

    def test_even_q1_to_10(self):
        cert = infinitude_report("even", range(1, 11))
        assert cert.bounds == tuple(range(2, 12))
        assert cert.conclusion

    def test_single_member_certifies_nothing(self):
        cert = infinitude_report("odd", [1])
        assert not cert.conclusion

    def test_each_failed_check_makes_the_conclusion_false(self):
        cert = infinitude_report("odd", range(1, 4))
        assert cert.conclusion
        one_member = cert._replace(parameters=cert.parameters[:1], bounds=cert.bounds[:1],
                                   rigidity=cert.rigidity[:1], classes=cert.classes[:1])
        for broken in (one_member, cert._replace(all_homeomorphic=False),
                       cert._replace(rigidity=(True, False, True)),
                       cert._replace(bounds=(1, 2, 2))):
            assert not broken.conclusion

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            infinitude_report("odd", [])
        with pytest.raises(ValueError):
            infinitude_report("odd", [2, 2])
        with pytest.raises(ValueError):
            infinitude_report("odd", [3, 1])
        with pytest.raises(ValueError):
            infinitude_report("odd", [0, 1])
        with pytest.raises(ValueError):
            infinitude_report("spin", [1, 2])

    def test_first_bad_q_raises_before_the_rest_is_read(self):
        def qs():
            yield 0
            raise AssertionError("q_range read past its first value")

        with pytest.raises(ValueError, match="^q values must be positive$"):
            infinitude_report("odd", qs())

    def test_conclusion_monotone_under_contiguous_subranges(self):
        qs = list(range(1, 11))
        assert infinitude_report("even", qs).conclusion
        for i in range(len(qs)):
            for j in range(i + 2, len(qs) + 1):
                assert infinitude_report("even", qs[i:j]).conclusion

    def test_equal_bounds_do_not_increase(self, monkeypatch):
        # with c1 = 0 every odd member has the bound ceil((0 - 2 + 2) / 2) = 0
        terms = surgery._member_terms
        zero_c1 = lambda p: (terms(p)[0], (0, 0), terms(p)[2])
        monkeypatch.setattr(surgery, "_member_terms", zero_c1)
        monkeypatch.setattr(obstruct, "_member_terms", zero_c1)
        cert = infinitude_report("odd", range(1, 4))
        assert cert.bounds == (0, 0, 0)
        assert not cert.bounds_increasing and not cert.conclusion
        assert all(cert.rigidity) and cert.all_homeomorphic

    def test_sparse_increasing_range_accepted(self):
        cert = infinitude_report("odd", [1, 4, 9])
        assert cert.parameters == (1, 7, 17)
        assert cert.conclusion


class TestTransportedRigidity:
    """infinitude_report decides rigidity once per normal form N and class w =
    B^-1 s, and must agree with class_rigidity on each member."""

    # each maps the member terms (gram, c1, s) to mutated ones
    MUTANTS = {
        "s-is-(k, 2)": lambda gram, c1, s: (gram, c1, (s[0], 2)),
        "s-is-(k+1, 1)": lambda gram, c1, s: (gram, c1, (s[0] + 1, 1)),
        "form-entry-plus-one": lambda gram, c1, s: (((0, 1), (1, gram[1][1] + 1)), c1, s),
    }

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_agrees_with_class_rigidity(self, parity):
        cert = infinitude_report(parity, range(1, 201))
        assert cert.rigidity == tuple(class_rigidity(x_family(p)) for p in cert.parameters)
        assert all(cert.rigidity)

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_agrees_on_mutated_members(self, monkeypatch, mutant):
        # the members of odd q are mutated, so one call mixes both kinds; the
        # mutated terms reach both the certificate's loop and x_family
        mutate, terms = self.MUTANTS[mutant], surgery._member_terms

        def mutated(p):
            return mutate(*terms(p)) if (p + 1) // 2 % 2 else terms(p)

        monkeypatch.setattr(surgery, "_member_terms", mutated)
        monkeypatch.setattr(obstruct, "_member_terms", mutated)
        verdicts = []
        for parity in ("odd", "even"):
            cert = infinitude_report(parity, range(1, 201))
            changed = [mutated(p) != terms(p) for p in cert.parameters]
            assert changed == [q % 2 == 1 for q in range(1, 201)]
            direct = tuple(class_rigidity(x_family(p)) for p in cert.parameters)
            assert cert.rigidity == direct
            verdicts += direct
        assert not all(verdicts)

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_one_solve_per_normal_form_and_none_kept_between_calls(self, monkeypatch, parity):
        calls = []
        solve = obstruct.solve_square
        monkeypatch.setattr(obstruct, "solve_square", lambda F, c: calls.append(c) or solve(F, c))
        infinitude_report(parity, range(1, 201))
        first = len(calls)
        assert 1 <= first <= 2
        infinitude_report(parity, range(1, 201))
        assert len(calls) == 2 * first


def member_by_member(parity, qs):
    """The certificate's and genus-bound's values by the per-member path, the
    oracle of the (N, w)-keyed loop: each member built by x_family and
    checked on its own form."""
    members = [x_family(family_parameter(parity, q)) for q in qs]
    bounds = [adjunction_lower_bound(m.manifold, m.s_class) for m in members]
    rigidity = tuple(class_rigidity(m) for m in members)
    classes = homeo_classes([m.manifold for m in members])
    rows = [[str(m.p), parity, classify(m.manifold.form).describe(), str(b.lower_bound),
             str(r).lower()] for m, b, r in zip(members, bounds, rigidity)]
    return {
        "bounds": bounds,
        "rigidity": rigidity,
        "all_homeomorphic": len(classes.representatives) == 1
        and classes.verdict(0, 0) == "homeomorphic",
        "csv": [["p", "parity", "form_class", "bound", "rigidity"]] + rows,
    }


class TestMemberByMemberPath:
    """infinitude_report and genus-bound against the per-member path."""

    Q_RANGES = {
        "1..200": range(1, 201),
        "to-1e6": (1, 2, 5, 999, 10**3, 10**6 - 1, 10**6),
        "to-1e12": (1, 10**6, 10**12 - 1, 10**12),
        "to-1e40": (3, 10**12, 10**20 + 7, 10**40),
    }

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("qs", list(Q_RANGES))
    def test_certificate_and_bounds_agree(self, parity, qs):
        qs = self.Q_RANGES[qs]
        old = member_by_member(parity, qs)
        cert = infinitude_report(parity, qs)
        assert cert.bounds == tuple(b.lower_bound for b in old["bounds"])
        assert cert.rigidity == old["rigidity"]
        assert cert.all_homeomorphic == old["all_homeomorphic"] is True
        assert certificate_csv_rows(cert) == old["csv"]
        assert [b for *_, b in family_bounds(parity, qs)] == old["bounds"]

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("lo, hi", [(1, 200), (10**6 - 2, 10**6), (10**12 - 2, 10**12),
                                        (10**40 - 2, 10**40)])
    def test_genus_bound_rows_agree(self, capsys, parity, lo, hi):
        assert run(["genus-bound", "--parity", parity, "--q-range", "%d..%d" % (lo, hi),
                    "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["bounds"]
        qs = range(lo, hi + 1)
        old = member_by_member(parity, qs)["bounds"]
        ps = [family_parameter(parity, q) for q in qs]
        assert rows == [{"q": q, "p": p, **b.to_json_obj()} for q, p, b in zip(qs, ps, old)]


class TestRendering:
    def test_text_report_mentions_all_steps(self):
        cert = infinitude_report("odd", range(1, 5))
        text = certificate_text(cert)
        assert "[1]" in text and "[2]" in text and "[3]" in text
        assert "conclusion: TRUE" in text
        assert "PASS" in text

    def test_text_report_failure(self):
        cert = infinitude_report("odd", [2])
        assert "conclusion: FALSE" in certificate_text(cert)

    def test_csv_rows(self):
        cert = infinitude_report("even", range(1, 4))
        rows = certificate_csv_rows(cert)
        assert rows[0] == ["p", "parity", "form_class", "bound", "rigidity"]
        assert len(rows) == 4
        assert rows[1][0] == "2" and rows[1][3] == "2" and rows[1][4] == "true"

    def test_json_obj_round_trips_through_json(self):
        import json

        cert = infinitude_report("odd", range(1, 4))
        blob = json.dumps(cert.to_json_obj(), sort_keys=True)
        assert json.loads(blob)["conclusion"] is True

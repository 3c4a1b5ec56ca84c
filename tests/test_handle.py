import random
import warnings
from fractions import Fraction

import pytest

from steincheck.handle import (
    AlgebraicFourManifold,
    FramedLinkPresentation,
    _d3_terms,
    boundary_first_homology,
    c1_square,
    chern_eval,
    d3,
    invariants_from_link,
    stein_checks,
)
from steincheck.intlin import DegenerateLinkingFormError, IntMatrix
from steincheck.quadform import QuadraticForm
from steincheck.surgery import x_family

from oracles import (
    charpoly_inertia,
    fraction_determinant,
    perm_determinant,
    random_symmetric_matrix,
    random_unimodular_matrix,
)


def link(rows, rot, tb=None):
    return FramedLinkPresentation(
        IntMatrix.from_rows(rows),
        tuple(rot),
        tuple(tb) if tb is not None else None,
    )


EMPTY = link([], [])
UNKNOT_M2 = link([[-2]], [0], [-1])
UNKNOT_M3 = link([[-3]], [1], [-2])


class TestInvariantsFromLink:
    def test_empty_link_is_the_four_ball(self):
        m = invariants_from_link(EMPTY)
        assert m.euler == 1
        assert m.sig == 0
        assert m.boundary_homology_sphere
        assert m.simply_connected
        assert m.form.rank == 0

    def test_single_unknot(self):
        m = invariants_from_link(UNKNOT_M2)
        assert m.euler == 2
        assert m.sig == -1
        assert not m.boundary_homology_sphere  # |det| = 2
        assert m.stein  # tb data present and consistent

    def test_two_component_diagonal(self):
        m = invariants_from_link(link([[-1, 0], [0, -2]], [0, 0]))
        assert m.euler == 3
        assert m.sig == -2
        assert not m.boundary_homology_sphere
        assert not m.stein  # no tb data

    def test_c1_is_rot(self):
        m = invariants_from_link(UNKNOT_M3)
        assert m.c1 == (1,)


class TestBoundaryFirstHomology:
    def test_unimodular_linking_gives_homology_sphere(self):
        grp = boundary_first_homology(link([[0, 1], [1, -2]], [0, 0]))
        assert grp.is_trivial

    def test_single_p_framed_unknot(self):
        grp = boundary_first_homology(link([[6]], [0]))
        assert grp.free_rank == 0 and grp.torsion == (6,)

    def test_zero_framed_unknot(self):
        grp = boundary_first_homology(link([[0]], [0]))
        assert grp.free_rank == 1 and grp.torsion == ()

    def test_trivial_iff_unimodular(self):
        rng = random.Random(1234)
        for _ in range(80):
            n = rng.randint(1, 4)
            rows = random_symmetric_matrix(rng, n, -4, 4)
            L = link(rows, [0] * n)
            trivial = boundary_first_homology(L).is_trivial
            assert trivial == (abs(perm_determinant(rows)) == 1)


class TestSteinChecks:
    def test_standard_legendrian_unknot(self):
        report = stein_checks(UNKNOT_M2)
        assert report.framing_ok == (True,)
        assert report.parity_ok == (True,)
        assert report.all_ok

    def test_wrong_framing(self):
        report = stein_checks(link([[-1]], [0], [-1]))
        assert report.framing_ok == (False,)

    def test_stabilized_unknot(self):
        report = stein_checks(UNKNOT_M3)
        assert report.all_ok  # tb + rot = -1 is odd

    def test_requires_tb(self):
        with pytest.raises(ValueError, match="Legendrian data required"):
            stein_checks(link([[-2]], [0]))


class TestChernEval:
    def test_on_distinguished_class(self):
        member = x_family(3)
        assert chern_eval(member.manifold, member.s_class) == -4

    def test_on_torus_class(self):
        assert chern_eval(x_family(3).manifold, (1, 0)) == 0

    def test_untransformed_member_vanishes(self):
        member = x_family(0)
        assert chern_eval(member.manifold, member.s_class) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chern_eval(x_family(1).manifold, (1, 0, 0))

    def test_linearity(self):
        rng = random.Random(42)
        m = x_family(4).manifold
        for _ in range(50):
            u = (rng.randint(-9, 9), rng.randint(-9, 9))
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            w = (u[0] + v[0], u[1] + v[1])
            assert chern_eval(m, w) == chern_eval(m, u) + chern_eval(m, v)


class TestC1Square:
    def test_zero_rot(self):
        assert c1_square(link([[-1, 0], [0, -2]], [0, 0])) == 0

    def test_single_minus_three(self):
        assert c1_square(UNKNOT_M3) == Fraction(-1, 3)

    def test_diagonal_minus_ones(self):
        assert c1_square(link([[-1, 0], [0, -1]], [1, 1])) == -2

    def test_singular_linking_rejected(self):
        with pytest.raises(DegenerateLinkingFormError):
            c1_square(link([[0]], [1]))


class TestD3:
    def test_empty_link(self):
        assert d3(EMPTY) == Fraction(-1, 2)

    def test_unknot_framing_minus_two(self):
        with pytest.warns(UserWarning, match="homology sphere"):
            assert d3(UNKNOT_M2) == Fraction(-1, 4)

    def test_unknot_framing_minus_three(self):
        with pytest.warns(UserWarning):
            assert d3(UNKNOT_M3) == Fraction(-1, 3)

    def test_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            d3(UNKNOT_M3)
        assert [w.filename for w in record] == [__file__]

    def test_no_warning_for_homology_sphere(self):
        import warnings

        L = link([[0, 1], [1, -2]], [0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d3(L) == Fraction((0 - 0 - 2 * 3), 4)

    def test_invariant_under_rot_sign_flip(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 4)
            rows = random_symmetric_matrix(rng, n, -4, 4)
            if perm_determinant(rows) == 0:
                continue
            rot = [rng.randint(-3, 3) for _ in range(n)]
            a = link(rows, rot)
            b = link(rows, [-r for r in rot])
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert d3(a) == d3(b)
            checked += 1

    def test_singular_linking_rejected(self):
        with pytest.raises(DegenerateLinkingFormError):
            d3(link([[0]], [0]))

    def test_terms_match_oracles(self):
        # dense links, and hyperbolic planes plus a diagonal part plus a
        # radical hidden by a unimodular change of basis, so that zero pivots
        # turn up after earlier steps have changed the trailing block
        rng = random.Random(4242)
        cases = [([], [])]
        for n in (1, 2, 3, 4, 6, 9, 13, 20, 30):
            for kind in ("dense", "hyperbolic", "singular"):
                if kind == "dense":
                    rows = random_symmetric_matrix(rng, n, -9, 9)
                else:
                    z = rng.randint(1, min(3, n)) if kind == "singular" else 0
                    k = rng.randint(0, (n - z) // 2)
                    f = [[0] * n for _ in range(n)]
                    for h in range(k):
                        f[2 * h][2 * h + 1] = f[2 * h + 1][2 * h] = rng.choice([1, -1, 2, -3])
                    for i in range(2 * k, n - z):
                        f[i][i] = rng.choice([-3, -1, 1, 2])
                    B = random_unimodular_matrix(rng, n, 3 * n)
                    fb = [[sum(f[i][t] * B[t][j] for t in range(n)) for j in range(n)]
                          for i in range(n)]
                    rows = [[sum(B[t][i] * fb[t][j] for t in range(n)) for j in range(n)]
                            for i in range(n)]
                cases.append((rows, [rng.randint(-5, 5) for _ in range(n)]))
        singular = 0
        for rows, rot in cases:
            n = len(rows)
            det = fraction_determinant(rows)
            bordered = [row + [r] for row, r in zip(rows, rot)] + [rot + [0]]
            if det == 0:
                singular += 1
                with pytest.raises(DegenerateLinkingFormError):
                    _d3_terms(link(rows, rot))
                continue
            pos, neg, _ = charpoly_inertia(rows) if n else (0, 0, 0)
            csq = Fraction(-fraction_determinant(bordered), det)
            terms = _d3_terms(link(rows, rot))
            assert terms == ((csq - 3 * (pos - neg) - 2 * (1 + n)) / 4, csq, pos - neg, det)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert d3(link(rows, rot)) == terms[0]
            assert len(caught) == (abs(det) != 1)
            assert c1_square(link(rows, rot)) == csq
            m = invariants_from_link(link(rows, rot))
            assert (m.sig, m.boundary_homology_sphere) == (pos - neg, abs(det) == 1)
        assert singular >= 9


class TestCharacteristicProperty:
    def test_family_fixtures(self):
        for p in range(0, 101):
            assert x_family(p).manifold.is_characteristic()

    def test_links_passing_stein_checks(self):
        rng = random.Random(90)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = random_symmetric_matrix(rng, n, -5, 5)
            tb = [rows[i][i] + 1 for i in range(n)]
            rot = [rng.choice([-2, 0, 2]) + (1 - (tb[i] % 2)) % 2 for i in range(n)]
            # adjust rot parity so tb + rot is odd
            rot = [r if (tb[i] + r) % 2 == 1 else r + 1 for i, r in enumerate(rot)]
            L = link(rows, rot, tb)
            assert stein_checks(L).all_ok
            assert invariants_from_link(L).is_characteristic()

    def test_van_der_blij_on_d3(self):
        # Q = B^T D B is unimodular for D a block sum of (1), (-1), [[0, 1], [1, 0]] and
        # [[2, 1], [1, 1]]; a characteristic rot gives c1^2 = sigma (mod 8), and with
        # chi = 1 + n that makes 2 d3 an odd integer
        rng = random.Random(8)
        blocks = ([[1]], [[-1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]])
        for _ in range(300):
            n = rng.randint(1, 7)
            D = [[0] * n for _ in range(n)]
            i = 0
            while i < n:
                block = rng.choice([b for b in blocks if len(b) <= n - i])
                for r, row in enumerate(block):
                    D[i + r][i:i + len(row)] = row
                i += len(block)
            B = random_unimodular_matrix(rng, n, 3 * n)
            rows = [[sum(B[s][i] * D[s][t] * B[t][j] for s in range(n) for t in range(n))
                     for j in range(n)] for i in range(n)]
            rot = [rows[i][i] + 2 * rng.randint(-2, 2) for i in range(n)]
            value, csq, sig, det = _d3_terms(link(rows, rot))
            assert abs(det) == 1 and csq.denominator == 1
            assert (csq - sig) % 8 == 0
            assert (2 * value).denominator == 1 and (2 * value).numerator % 2 == 1


class TestValidationAndJson:
    def test_linking_must_be_symmetric(self):
        with pytest.raises(ValueError):
            link([[0, 1], [2, 0]], [0, 0])

    def test_rot_length_checked(self):
        with pytest.raises(ValueError):
            link([[0]], [0, 1])

    def test_tb_length_checked(self):
        with pytest.raises(ValueError):
            link([[0]], [0], [1, 2])

    def test_link_round_trip(self):
        obj = UNKNOT_M3.to_json_obj()
        assert obj == {"linking": [["-3"]], "rot": ["1"], "tb": ["-2"]}
        assert FramedLinkPresentation.from_json_obj(obj) == UNKNOT_M3

    def test_link_round_trip_null_tb(self):
        L = link([[4]], [0])
        obj = L.to_json_obj()
        assert obj["tb"] is None
        assert FramedLinkPresentation.from_json_obj(obj) == L

    def test_c1_length_validated(self):
        with pytest.raises(ValueError):
            AlgebraicFourManifold(
                form=QuadraticForm.from_rows([[0, 1], [1, -2]]),
                c1=(0,),
                euler=2,
                sig=0,
                simply_connected=True,
                boundary_homology_sphere=True,
            )

import json
from pathlib import Path

import pytest

from steincheck.intlin import IntMatrix, determinant
from steincheck.quadform import classify, pairing
from steincheck.handle import chern_eval
from steincheck.surgery import (
    TorusMappingClass,
    compose,
    family_parameter,
    fp_matrix,
    normalized_form,
    stabilizes_summand,
    v_family_homology,
    x_family,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestXFamily:
    def test_p1(self):
        m = x_family(1)
        assert m.manifold.form.gram.entries == ((0, 1), (1, -4))
        assert m.s_class == (1, 1)
        assert pairing(m.manifold.form, m.s_class, m.s_class) == -2

    def test_p2(self):
        m = x_family(2)
        assert m.manifold.form.gram.entries == ((0, 1), (1, -9))
        assert m.s_class == (4, 1)
        assert pairing(m.manifold.form, m.s_class, m.s_class) == -1

    def test_p3(self):
        m = x_family(3)
        assert m.manifold.form.gram.entries == ((0, 1), (1, -18))
        assert m.s_class == (8, 1)
        assert pairing(m.manifold.form, m.s_class, m.s_class) == -2
        assert chern_eval(m.manifold, m.s_class) == -4

    def test_untransformed_member(self):
        m = x_family(0)
        assert m.manifold.name == "X"
        assert m.manifold.form.gram.entries == ((0, 1), (1, -2))
        assert m.manifold.form.labels == ("T", "S")
        assert m.manifold.c1 == (0, 0)
        assert m.s_class == (0, 1)
        assert m.q is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            x_family(-1)

    def test_family_parameter_inverts_q(self):
        for q in range(1, 60):
            odd, even = family_parameter("odd", q), family_parameter("even", q)
            assert (odd, even) == (2 * q - 1, 2 * q)
            assert x_family(odd).q == x_family(even).q == q

    def test_family_parameter_checks_parity_and_q(self):
        for parity, q, message in (("bogus", 1, "parity must be 'odd' or 'even'"),
                                   ("odd", 0, "q values must be positive"),
                                   ("even", -3, "q values must be positive")):
            with pytest.raises(ValueError, match="^%s$" % message):
                family_parameter(parity, q)

    def test_family_invariants(self):
        for p in range(1, 101):
            m = x_family(p)
            form = m.manifold.form
            assert determinant(form.gram) == -1
            assert classify(form).parity == ("even" if p % 2 == 1 else "odd")
            assert m.manifold.sig == 0
            q = m.q
            assert q == ((p + 1) // 2 if p % 2 == 1 else p // 2)
            assert m.s_class == (p * p - q + 1, 1)
            expected_square = -2 if p % 2 == 1 else -1
            assert pairing(form, m.s_class, m.s_class) == expected_square
            assert chern_eval(m.manifold, m.s_class) == -1 - p
            assert m.manifold.euler == 2
            assert m.manifold.simply_connected
            assert m.manifold.boundary_homology_sphere
            assert m.manifold.stein


class TestNormalizedForm:
    def test_p3(self):
        assert normalized_form(x_family(3)).gram.entries == ((0, 1), (1, -2))

    def test_p2(self):
        assert normalized_form(x_family(2)).gram.entries == ((0, 1), (1, -1))

    def test_p0_unchanged(self):
        nf = normalized_form(x_family(0))
        assert nf.gram.entries == ((0, 1), (1, -2))
        assert nf.labels == ("T", "S")

    def test_whole_range(self):
        for p in range(1, 101):
            target = ((0, 1), (1, -2)) if p % 2 == 1 else ((0, 1), (1, -1))
            assert normalized_form(x_family(p)).gram.entries == target


class TestTorusMappingClass:
    def test_fp_matrix_p1(self):
        assert fp_matrix(1).matrix.entries == ((1, 0, 0), (0, 1, 0), (0, 1, 1))

    def test_fp_matrix_p0_identity(self):
        assert fp_matrix(0).matrix.entries == IntMatrix.identity(3).entries

    def test_fp_determinant(self):
        assert determinant(fp_matrix(7).matrix) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fp_matrix(-2)

    def test_compose_adds_parameters(self):
        assert compose(fp_matrix(2), fp_matrix(3)).matrix.entries == fp_matrix(5).matrix.entries
        assert compose(fp_matrix(1), fp_matrix(1)).matrix.entries == fp_matrix(2).matrix.entries

    def test_compose_with_identity(self):
        f = fp_matrix(9)
        assert compose(f, fp_matrix(0)).matrix.entries == f.matrix.entries

    def test_group_law(self):
        for p in range(1, 31):
            for q in range(1, 31):
                assert compose(fp_matrix(p), fp_matrix(q)).matrix.entries == fp_matrix(p + q).matrix.entries

    def test_stabilizes_summand(self):
        assert stabilizes_summand(fp_matrix(0))
        for p in range(1, 31):
            assert stabilizes_summand(fp_matrix(p))

    def test_coordinate_swap_does_not_stabilize(self):
        # (0, 1, 0) maps to (0, 0, 1), which leaves the summand
        swap = TorusMappingClass(IntMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]]))
        assert not stabilizes_summand(swap)

    def test_non_orientation_preserving_rejected(self):
        with pytest.raises(ValueError, match="determinant 1"):
            TorusMappingClass(IntMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            TorusMappingClass(IntMatrix.identity(2))


class TestVFamilyHomology:
    def test_p1_no_torsion(self):
        grp = v_family_homology(1)
        assert grp.free_rank == 1 and grp.torsion == ()

    def test_p6(self):
        grp = v_family_homology(6)
        assert grp.free_rank == 1 and grp.torsion == (6,)

    def test_p5(self):
        grp = v_family_homology(5)
        assert grp.free_rank == 1 and grp.torsion == (5,)

    def test_range(self):
        for p in range(1, 51):
            grp = v_family_homology(p)
            assert grp.free_rank == 1
            assert grp.torsion == (() if p == 1 else (p,))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            v_family_homology(0)


class TestFixtureFiles:
    def test_x_family_fixture_matches_generator(self):
        data = json.loads((FIXTURES / "x_family.json").read_text())
        members = data["members"]
        assert [m["p"] for m in members] == list(range(0, 11))
        for entry in members:
            fresh = x_family(entry["p"])
            assert entry["manifold"] == fresh.manifold.to_json_obj()
            assert entry["s_class"] == [str(x) for x in fresh.s_class]
            assert entry["normalized_form"] == normalized_form(fresh).to_json_obj()

    def test_x_fixture(self):
        data = json.loads((FIXTURES / "x.json").read_text())
        assert data == x_family(0).manifold.to_json_obj()

import random
from fractions import Fraction
from math import gcd

import pytest

from steincheck import quadform
from steincheck.intlin import (
    AbelianGroup,
    DegenerateLinkingFormError,
    IntMatrix,
    _symmetric_bareiss,
    cokernel,
    congruence_transform,
    determinant,
    inertia,
    matrix_from_json,
    matrix_to_json,
    rational_solve,
    smith_normal_form,
    vector_from_json,
)
from steincheck.quadform import QuadraticForm, classify

from oracles import (
    charpoly_inertia,
    fraction_determinant,
    minor_gcd_invariant_factors,
    perm_determinant,
    random_int_matrix,
    random_symmetric_matrix,
    random_unimodular_matrix,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def signature(A):
    return classify(QuadraticForm(A)).signature


def check_snf(A):
    snf = smith_normal_form(A)
    assert (snf.U @ A @ snf.V).entries == snf.D.entries
    assert determinant(snf.U) in (1, -1)
    assert determinant(snf.V) in (1, -1)
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    # off-diagonal entries vanish
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    return snf


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = check_snf(M([[2, 0], [0, 3]]))
        assert snf.diagonal() == (1, 6)

    def test_single_relator_column(self):
        # relator (0, p) on Z^2 gives Z + Z/p
        A = M([[0], [5]])
        snf = check_snf(A)
        assert snf.diagonal() == (5,)
        assert cokernel(A) == AbelianGroup(free_rank=1, torsion=(5,))

    def test_identity(self):
        snf = check_snf(IntMatrix.identity(3))
        assert snf.D.entries == IntMatrix.identity(3).entries

    def test_zero_and_empty(self):
        assert check_snf(M([[0, 0, 0]] * 2)).diagonal() == (0, 0)
        assert check_snf(M([])).diagonal() == ()
        assert check_snf(IntMatrix(0, 4, ())).diagonal() == ()

    def test_random_matrices_exact_invariants(self):
        rng = random.Random(20120601)
        for _ in range(250):
            rows = rng.randint(0, 6)
            cols = rng.randint(0, 6)
            check_snf(M(random_int_matrix(rng, rows, cols, -20, 20)))

    def test_invariant_factors_match_minor_gcds(self):
        rng = random.Random(4417)
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = random_int_matrix(rng, rows, cols, -9, 9)
            snf = check_snf(M(a))
            assert [d for d in snf.diagonal() if d != 0] == minor_gcd_invariant_factors(a)

    def test_cokernel_torsion_order_is_abs_det(self):
        rng = random.Random(977)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_int_matrix(rng, n, n, -6, 6)
            det = perm_determinant(a)
            grp = cokernel(M(a))
            if det != 0:
                order = 1
                for d in grp.torsion:
                    order *= d
                assert grp.free_rank == 0 and order == abs(det)
            else:
                assert grp.free_rank >= 1


def group_from_factors(n_rows, factors):
    nonzero = [abs(d) for d in factors if d != 0]
    return AbelianGroup(free_rank=n_rows - len(nonzero), torsion=tuple(d for d in nonzero if d > 1))


def sympy_cokernel(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    return group_from_factors(len(rows), [int(d) for d in factors])


def product(rows_a, rows_b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*rows_b)] for row in rows_a]


class TestCokernel:
    def test_edge_cases(self):
        assert cokernel(M([])) == AbelianGroup(0, ())
        assert cokernel(IntMatrix(0, 3, ())) == AbelianGroup(0, ())
        assert cokernel(M([[]] * 3)) == AbelianGroup(3, ())
        assert cokernel(M([[0, 0, 0]] * 2)) == AbelianGroup(2, ())
        assert cokernel(M([[0], [5]])) == AbelianGroup(1, (5,))
        assert cokernel(M([[0, 5]])) == AbelianGroup(0, (5,))
        assert cokernel(M([[-6]])) == AbelianGroup(0, (6,))
        # unimodular: the modulus D is 1
        assert cokernel(M([[2, 1], [1, 1]])) == AbelianGroup(0, ())
        rng = random.Random(31)
        for n in (1, 5, 12):
            assert cokernel(M(random_unimodular_matrix(rng, n, 40))).is_trivial

    def test_known_invariant_factors_under_unimodular_change(self):
        # U diag(d) V has invariant factors d, whatever the shape and rank.
        rng = random.Random(4242)
        for _ in range(60):
            rows = rng.randint(1, 14)
            cols = rng.randint(1, 14)
            chain = [1]
            for _ in range(min(rows, cols) - 1):
                chain.append(chain[-1] * rng.choice([1, 1, 2, 3, 6]))
            rank = rng.randint(0, min(rows, cols))
            diag = [[chain[i] if i == j and i < rank else 0 for j in range(cols)] for i in range(rows)]
            a = product(
                product(random_unimodular_matrix(rng, rows, 30), diag),
                random_unimodular_matrix(rng, cols, 30),
            )
            assert cokernel(M(a)) == group_from_factors(rows, chain[:rank])

    def test_rank_one_matrices(self):
        # u v^T has cokernel Z^(rows-1) + Z/g, g the gcd of its entries.
        # Modulo D the elimination can find more pivots than the rank.
        rng = random.Random(1)
        for _ in range(400):
            u = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
            v = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
            if not any(u) or not any(v):
                continue
            a = [[x * y for y in v] for x in u]
            g = 0
            for x in u:
                for y in v:
                    g = gcd(g, x * y)
            assert cokernel(M(a)) == AbelianGroup(len(u) - 1, (g,) if g > 1 else ())

    def test_random_symmetric_against_sympy(self):
        rng = random.Random(1212)
        for n in range(12, 21):
            for _ in range(3):
                a = random_symmetric_matrix(rng, n, -9, 9)
                assert cokernel(M(a)) == sympy_cokernel(a)
                # scaling multiplies every invariant factor
                a3 = [[3 * x for x in row] for row in a]
                assert cokernel(M(a3)) == sympy_cokernel(a3)

    def test_rank_deficient_against_sympy(self):
        rng = random.Random(5150)
        for n in range(12, 21):
            k = rng.randint(1, n - 1)
            b = random_int_matrix(rng, n, k, -4, 4)
            c = random_int_matrix(rng, k, n, -4, 4)
            a = product(b, c)
            grp = cokernel(M(a))
            assert grp == sympy_cokernel(a)
            assert grp.free_rank >= n - k

    def test_rectangular_against_sympy(self):
        rng = random.Random(6021)
        for _ in range(30):
            rows, cols = rng.randint(1, 16), rng.randint(1, 16)
            a = random_int_matrix(rng, rows, cols, -9, 9)
            if rng.random() < 0.5:
                a = [[2 * x for x in row] for row in a]
            assert cokernel(M(a)) == sympy_cokernel(a)


class TestDeterminant:
    def test_hyperbolic_like_block(self):
        assert determinant(M([[0, 1], [1, -2]])) == -1

    def test_family_form_p4(self):
        # cofactor expansion: -(1*1), independent of the (2,2) entry
        p = 4
        assert determinant(M([[0, 1], [1, -2 * p * p + p - 3]])) == -1

    def test_identity_and_empty(self):
        assert determinant(IntMatrix.identity(5)) == 1
        assert determinant(M([])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(M([[0, 0, 0]] * 2))

    def test_matches_permutation_expansion(self):
        rng = random.Random(31337)
        for _ in range(400):
            n = rng.randint(1, 4)
            a = random_int_matrix(rng, n, n, -5, 5)
            assert determinant(M(a)) == perm_determinant(a)

    def test_big_entries_stay_exact(self):
        x = 10**30
        assert determinant(M([[x, 1], [1, 1]])) == x - 1


class TestSignature:
    def test_examples(self):
        assert signature(M([[2, 0], [0, 3]])) == 2
        # eigenvalues -1 +- sqrt(2): one of each sign
        assert signature(M([[0, 1], [1, -2]])) == 0
        assert signature(M([[1, 0], [0, -1]])) == 0
        assert signature(M([])) == 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            signature(M([[0, 1], [2, 0]]))

    def test_matches_charpoly_oracle(self):
        rng = random.Random(2718)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = random_symmetric_matrix(rng, n, -7, 7)
            assert inertia(M(a)) == charpoly_inertia(a)

    def test_zero_diagonals_and_radical(self):
        # k hyperbolic planes + a diagonal part + a z-dimensional radical,
        # hidden by a unimodular change of basis
        rng = random.Random(8080)
        for _ in range(40):
            k, z = rng.randint(0, 3), rng.randint(0, 3)
            diag = [rng.choice([-3, -1, 1, 2]) for _ in range(rng.randint(0, 4))]
            n = 2 * k + len(diag) + z
            if n == 0:
                continue
            f = [[0] * n for _ in range(n)]
            for h in range(k):
                f[2 * h][2 * h + 1] = f[2 * h + 1][2 * h] = rng.choice([1, 2, -3])
            for i, d in enumerate(diag):
                f[2 * k + i][2 * k + i] = d
            B = random_unimodular_matrix(rng, n, 25)
            g = product(product([list(col) for col in zip(*B)], f), B)
            expected = (
                k + sum(d > 0 for d in diag),
                k + sum(d < 0 for d in diag),
                z,
            )
            assert inertia(M(f)) == expected
            assert inertia(M(g)) == expected == charpoly_inertia(g)

    def test_sparse_diagonal_forms_match_charpoly_oracle(self):
        # mostly zero diagonals, so the swap and the hyperbolic step run;
        # the fixed form needs the column half of e_i -> e_i + e_j
        a = [[0, 0, -1, 1, 1], [0, 0, 0, 2, 0], [-1, 0, 0, 3, 0], [1, 2, 3, -5, -1], [1, 0, 0, -1, 0]]
        assert inertia(M(a)) == charpoly_inertia(a) == (2, 2, 1)
        rng = random.Random(909)
        for _ in range(300):
            n = rng.randint(1, 9)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i != j or rng.random() < 0.4:
                        a[i][j] = a[j][i] = rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 7, -5])
            assert inertia(M(a)) == charpoly_inertia(a)

    def test_two_by_two_closed_form_on_a_grid(self, monkeypatch):
        # the lone 2 x 2 block is answered in closed form; bordering it with a
        # zero row and column keeps the general loop on the same leading block
        def loop(m, n):
            return _symmetric_bareiss([row + [0] for row in m] + [[0] * (n + 1)], n)

        grid = [[[a, b], [b, c]] for a in range(-6, 7) for b in range(-6, 7) for c in range(-6, 7)]
        closed = [classify(QuadraticForm(M(g))) for g in grid]
        for g in grid:
            pos, neg, zero, det = _symmetric_bareiss([list(r) for r in g], 2)
            assert (pos, neg, zero) == charpoly_inertia(g) == loop(g, 2)[:3]
            assert det == fraction_determinant(g)
            if not zero:  # the loop's last pivot is det only then
                assert det == loop(g, 2)[3]
        monkeypatch.setattr(quadform, "_symmetric_bareiss", loop)
        assert [classify(QuadraticForm(M(g))) for g in grid] == closed

    def test_invariant_under_unimodular_congruence(self):
        rng = random.Random(1618)
        for _ in range(150):
            n = rng.randint(1, 5)
            F = M(random_symmetric_matrix(rng, n, -9, 9))
            B = M(random_unimodular_matrix(rng, n))
            assert signature(congruence_transform(F, B)) == signature(F)


class TestRationalSolve:
    def test_examples(self):
        assert rational_solve(M([[-3]]), [1]) == (Fraction(-1, 3),)
        assert rational_solve(M([[0, 1], [1, -2]]), [1, 0]) == (2, 1)
        b = [7, -3, 12]
        assert rational_solve(IntMatrix.identity(3), b) == tuple(Fraction(x) for x in b)

    def test_singular_rejected(self):
        with pytest.raises(DegenerateLinkingFormError):
            rational_solve(M([[1, 2], [2, 4]]), [1, 1])

    def test_singular_rejected_when_b_leaves_the_column_span(self):
        # [A | b] has full row rank here, so only A's columns may give pivots
        for a, b in (([[0]], [1]), ([[0, 0], [0, 1]], [1, 0]), ([[1, 2], [2, 4]], [0, 1])):
            with pytest.raises(DegenerateLinkingFormError):
                rational_solve(M(a), b)

    def test_substitution_round_trip(self):
        rng = random.Random(55)
        solved = 0
        while solved < 80:
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n, n, -8, 8)
            b = [rng.randint(-10, 10) for _ in range(n)]
            if perm_determinant(a) == 0:
                continue
            x = rational_solve(M(a), b)
            for i in range(n):
                assert sum(Fraction(a[i][j]) * x[j] for j in range(n)) == b[i]
            solved += 1


    def test_substitution_round_trip_large(self):
        rng = random.Random(3030)
        for n in (10, 20, 30):
            a = random_int_matrix(rng, n, n, -9, 9)
            b = [rng.randint(-10**6, 10**6) for _ in range(n)]
            assert fraction_determinant(a) != 0
            x = rational_solve(M(a), b)
            for i in range(n):
                assert sum(a[i][j] * x[j] for j in range(n)) == b[i]

    def test_row_swaps_set_the_sign(self):
        # the row swap makes the last pivot -det = 1, so x = (3, 2) keeps its sign
        assert rational_solve(M([[0, 1], [1, 0]]), [2, 3]) == (3, 2)
        assert rational_solve(M([[0, 1], [1, 0]]), [-2, 3]) == (3, -2)
        assert rational_solve(M([]), []) == ()

    @pytest.mark.parametrize("n", (10, 20, 40))
    def test_solve_det_against_sympy(self, n):
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(7000 + n)
        for density in (1.0, 0.3):
            det = 0
            while det == 0:
                # the sparse matrices have a zero diagonal, so elimination swaps rows
                a = [[e if rng.random() < density and (density == 1 or i != j) else 0
                      for j, e in enumerate(row)]
                     for i, row in enumerate(random_int_matrix(rng, n, n, -9, 9))]
                A = DomainMatrix([[ZZ(e) for e in row] for row in a], (n, n), ZZ)
                det = int(A.det())
            b = [rng.randint(-10**6, 10**6) for _ in range(n)]
            # sympy: A xnum = xden b
            xnum, xden = A.solve_den(DomainMatrix([[ZZ(e)] for e in b], (n, 1), ZZ))
            assert det == determinant(M(a))
            assert rational_solve(M(a), b) == tuple(
                Fraction(int(row[0]), int(xden)) for row in xnum.to_list()
            )


class TestCongruenceTransform:
    def test_normalizes_family_forms(self):
        # shear by k = p^2 - q + 1 sends [[0,1],[1,d]] to [[0,1],[1,d+2k]]
        assert congruence_transform(M([[0, 1], [1, -18]]), M([[1, 8], [0, 1]])).entries == (
            (0, 1),
            (1, -2),
        )
        assert congruence_transform(M([[0, 1], [1, -9]]), M([[1, 4], [0, 1]])).entries == (
            (0, 1),
            (1, -1),
        )

    def test_identity(self):
        F = M([[2, 1], [1, 2]])
        assert congruence_transform(F, IntMatrix.identity(2)).entries == F.entries

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="not a lattice basis change"):
            congruence_transform(M([[1, 0], [0, 1]]), M([[2, 0], [0, 1]]))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            congruence_transform(M([[0, 1], [2, 0]]), IntMatrix.identity(2))

    def test_preserves_det_signature_parity(self):
        rng = random.Random(808)
        for _ in range(120):
            n = rng.randint(1, 4)
            F = M(random_symmetric_matrix(rng, n, -9, 9))
            B = M(random_unimodular_matrix(rng, n))
            G = congruence_transform(F, B)
            assert G.is_symmetric
            assert determinant(G) == determinant(F)
            assert signature(G) == signature(F)
            f_even = all(F.entries[i][i] % 2 == 0 for i in range(n))
            g_even = all(G.entries[i][i] % 2 == 0 for i in range(n))
            assert f_even == g_even


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2), (3,)))
        with pytest.raises(ValueError):
            IntMatrix(1, 1, ((1.5,),))

    def test_entries_are_checked_not_coerced(self):
        for bad in (2.7, 2.0, True, False, "3"):
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                IntMatrix.from_rows([[1, bad], [bad, 3]])

    def test_matmul_shapes(self):
        a = M([[1, 2, 3]])
        b = M([[1], [0], [-1]])
        assert (a @ b).entries == ((-2,),)
        with pytest.raises(ValueError):
            b @ b


class TestJson:
    def test_matrix_round_trip_keeps_big_ints(self):
        big = 2**200 + 1
        A = M([[big, -1], [0, 3]])
        obj = matrix_to_json(A)
        assert obj[0][0] == str(big)
        assert matrix_from_json(obj).entries == A.entries

    def test_accepts_plain_ints(self):
        assert matrix_from_json([[0, 1], [1, -2]]).entries == ((0, 1), (1, -2))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            matrix_from_json([["x"]])
        with pytest.raises(ValueError):
            matrix_from_json("nope")
        with pytest.raises(ValueError):
            vector_from_json({"a": 1})
        with pytest.raises(ValueError):
            matrix_from_json([[True]])

    def test_errors_cut_long_values(self):
        with pytest.raises(ValueError, match=r"^not a decimal integer string: '12x'$"):
            matrix_from_json([["12x"]])
        for bad, length in (("1" * 4999 + "x", 5002), (list(range(2000)), 10890)):
            with pytest.raises(ValueError) as err:
                vector_from_json([bad])
            assert str(err.value).endswith("... (%d characters)" % length)
            assert len(str(err.value)) < 120

    def test_booleans_and_other_values_are_refused(self):
        # json.load gives true as a bool, an int subclass, so it is refused before ints
        with pytest.raises(ValueError, match="^expected an integer, got a boolean$"):
            matrix_from_json([[True]])
        with pytest.raises(ValueError, match=r"^expected an integer or decimal string, got 1\.5$"):
            vector_from_json([1.5])


def test_abelian_group_rendering():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert AbelianGroup(0, ()).is_trivial

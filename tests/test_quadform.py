import itertools
import random
from math import isqrt

import pytest

import steincheck.quadform as quadform
from steincheck.intlin import IntMatrix, congruence_transform
from steincheck.quadform import (
    QuadraticForm,
    classify,
    is_isomorphic,
    pairing,
    parity,
    solve_square,
)

from oracles import (
    orbit_classes,
    random_unimodular_matrix,
    reduced_definite_forms,
    sweep_square_solutions,
)


def family_form(p):
    return QuadraticForm.from_rows([[0, 1], [1, -2 * p * p + p - 3]])


def Q(rows):
    return QuadraticForm.from_rows(rows)


class TestParity:
    def test_examples(self):
        assert parity(Q([[0, 1], [1, -2]])) == "even"
        assert parity(Q([[0, 1], [1, -9]])) == "odd"
        assert parity(Q([[1]])) == "odd"

    def test_family_even_iff_p_odd(self):
        for p in range(1, 101):
            expected = "even" if p % 2 == 1 else "odd"
            assert parity(family_form(p)) == expected


class TestClassify:
    def test_even_hyperbolic_like(self):
        fc = classify(Q([[0, 1], [1, -2]]))
        assert (fc.rank, fc.signature, fc.parity) == (2, 0, "even")
        assert fc.definiteness == "indefinite"
        assert fc.unimodular

    def test_family_p2(self):
        fc = classify(family_form(2))
        assert (fc.rank, fc.signature, fc.parity) == (2, 0, "odd")
        assert fc.definiteness == "indefinite"
        assert fc.unimodular

    def test_zero_form_degenerate(self):
        fc = classify(Q([[0, 0], [0, 0]]))
        assert fc.definiteness == "degenerate"
        assert fc.signature == 0
        assert not fc.unimodular

    def test_definite_forms(self):
        assert classify(Q([[2, 0], [0, 3]])).definiteness == "positive"
        assert classify(Q([[-1, 0], [0, -5]])).definiteness == "negative"

    def test_family_unimodular_signature_zero(self):
        for p in range(1, 101):
            fc = classify(family_form(p))
            assert fc.unimodular and fc.signature == 0


class TestIsIsomorphic:
    def test_same_parity_family_members(self):
        assert is_isomorphic(family_form(1), family_form(3)) == "yes"

    def test_different_parity(self):
        assert is_isomorphic(family_form(1), family_form(2)) == "no"

    def test_reflexive(self):
        F = family_form(7)
        assert is_isomorphic(F, F) == "yes"

    def test_family_parity_rule(self):
        forms = {p: family_form(p) for p in range(1, 31)}
        for p in range(1, 31):
            for q in range(1, 31):
                expected = "yes" if (p - q) % 2 == 0 else "no"
                assert is_isomorphic(forms[p], forms[q]) == expected

    def test_definite_equivalent_by_reduction(self):
        F = Q([[2, 1], [1, 2]])
        B = IntMatrix.from_rows([[1, 1], [0, 1]])
        G = QuadraticForm(congruence_transform(F.gram, B))
        assert is_isomorphic(F, G) == "yes"

    def test_definite_rank_mismatch(self):
        assert is_isomorphic(Q([[2]]), Q([[2, 0], [0, 2]])) == "no"

    def test_inequivalent_definite_with_equal_invariants(self):
        # the two classes of discriminant -44: x^2 + 11y^2 and 3x^2 + 2xy + 4y^2
        F = Q([[1, 0], [0, 11]])
        G = Q([[3, 1], [1, 4]])
        assert is_isomorphic(F, G) == "no"

    def test_high_rank_definite_undecided(self):
        rng = random.Random(99)
        F = QuadraticForm(IntMatrix.diagonal([2, 2, 2]))
        B = IntMatrix.from_rows(random_unimodular_matrix(rng, 3))
        G = QuadraticForm(congruence_transform(F.gram, B))
        verdict = is_isomorphic(F, G)
        assert verdict in ("yes", "undecided")  # rank 3: no search, only equality
        if G.gram.entries != F.gram.entries:
            assert verdict == "undecided"


def binary(f):
    a, b, c = f
    return Q([[a, b], [b, c]])


def random_image(rng, F):
    B = IntMatrix.from_rows(random_unimodular_matrix(rng, 2, steps=rng.randint(2, 20)))
    return QuadraticForm(congruence_transform(F.gram, B))


class TestBinaryReduction:
    """Rank-2 equivalence by reduction, against oracles that know nothing
    of it: B^T F B for unimodular B, the table of reduced definite forms,
    and a search over generators of GL2(Z)."""

    def test_invariant_under_basis_change_in_every_discriminant_case(self):
        # D = b^2 - ac negative, zero, a positive square, a positive non-square
        rng = random.Random(11)
        seen = {"negative": 0, "zero": 0, "square": 0, "non-square": 0}
        while min(seen.values()) < 50:
            if rng.random() < 0.1:
                k, u, v = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
                a, b, c = k * u * u, k * u * v, k * v * v
            else:
                a, b, c = (rng.randint(-40, 40) for _ in range(3))
            D = b * b - a * c
            case = "negative" if D < 0 else "zero" if D == 0 else "square" if isqrt(D) ** 2 == D else "non-square"
            if seen[case] < 50:
                seen[case] += 1
                F = binary((a, b, c))
                assert is_isomorphic(F, random_image(rng, F)) == "yes", (a, b, c)

    def test_definite_classes_match_reduced_form_table(self):
        # positive definite for even det, negative definite for odd det
        rng = random.Random(12)
        for det in range(1, 101):
            sign = 1 if det % 2 == 0 else -1
            table = [tuple(sign * x for x in f) for f in reduced_definite_forms(det)]
            for i, f in enumerate(table):
                G = random_image(rng, binary(f))
                for j, g in enumerate(table):
                    expected = "yes" if i == j else "no"
                    assert is_isomorphic(G, binary(g)) == expected, (det, f, g)

    def test_small_indefinite_forms_match_orbit_search(self):
        # every [[a, b], [b, c]] with |a|, |c| <= 6, 0 <= b <= 6 and b^2 > ac
        forms = [(a, b, c) for a in range(-6, 7) for b in range(7) for c in range(-6, 7) if b * b > a * c]
        label = orbit_classes(forms, box=40)
        assert len(set(label.values())) == 182
        reps = {}
        for f in forms:
            reps.setdefault(label[f], f)

        def invariants(f):  # determinant and parity; the signature is 0
            return f[1] ** 2 - f[0] * f[2], f[0] % 2 == f[2] % 2 == 0

        for f in forms:
            for k, r in reps.items():
                if invariants(r) == invariants(f):
                    expected = "yes" if label[f] == k else "no"
                    assert is_isomorphic(binary(f), binary(r)) == expected, (f, r)

    def test_long_cycles_are_undecided_past_the_step_cap(self, monkeypatch):
        # x^2 - 181y^2 has 42 reduced forms on its cycle, and (-1, 13, 12) lies
        # 21 steps along it.  x^2 + 12xy - 10y^2 and 5x^2 + 2xy - 9y^2 share
        # every invariant but lie on different cycles of 12 forms each.
        far = (binary((1, 0, -181)), binary((-1, 13, 12)))
        apart = (binary((1, 6, -10)), binary((5, 1, -9)))
        assert is_isomorphic(*far) == "yes"
        assert is_isomorphic(*apart) == "no"
        monkeypatch.setattr(quadform, "_RHO_STEP_CAP", 4)
        assert is_isomorphic(*far) == "undecided"
        assert is_isomorphic(*apart) == "undecided"
        # (-10, 4, 3) is the neighbour of the reduced form (1, 6, -10)
        assert is_isomorphic(binary((1, 6, -10)), binary((-10, 4, 3))) == "yes"


class TestPairing:
    def test_square_of_distinguished_class_p1(self):
        F = Q([[0, 1], [1, -4]])
        assert pairing(F, (1, 1), (1, 1)) == -2

    def test_zero_vector(self):
        assert pairing(family_form(5), (0, 0), (0, 0)) == 0

    def test_off_diagonal_entry(self):
        assert pairing(Q([[0, 1], [1, -2]]), (1, 0), (0, 1)) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairing(family_form(1), (1,), (1, 0))


class TestSolveSquare:
    def test_p1_square_minus_two(self):
        sols = solve_square(Q([[0, 1], [1, -4]]), -2)
        assert sols.complete
        assert sols.as_set() == {(1, 1), (-1, -1)}

    def test_p2_square_minus_one(self):
        sols = solve_square(Q([[0, 1], [1, -9]]), -1)
        assert sols.complete
        assert sols.as_set() == {(4, 1), (-4, -1)}

    def test_no_solutions(self):
        sols = solve_square(Q([[0, 1], [1, 0]]), 1)
        assert sols.complete
        assert sols.as_set() == set()

    def test_isotropic_c_zero_is_bounded_only(self):
        sols = solve_square(Q([[0, 1], [1, 0]]), 0)
        assert not sols.complete
        assert (3, 0) in sols.as_set() and (0, -4) in sols.as_set()
        assert (100, 0) in sols.as_set() and (101, 0) not in sols.as_set()

    def test_mirrored_isotropic_basis_vector(self):
        # same equation with the roles of the two basis vectors swapped
        sols = solve_square(Q([[-4, 1], [1, 0]]), -2)
        assert sols.complete
        assert sols.as_set() == {(1, 1), (-1, -1)}

    def test_normalized_even_form(self):
        sols = solve_square(Q([[0, 1], [1, -2]]), -2)
        assert sols.complete
        assert sols.as_set() == {(0, 1), (0, -1)}

    def test_distinguished_square_in_normalized_coordinates(self):
        # in the (T_p, S_p) basis the solution set is exactly +-(0, 1)
        for p in range(1, 31):
            if p % 2 == 1:
                gram, c = [[0, 1], [1, -2]], -2
            else:
                gram, c = [[0, 1], [1, -1]], -1
            sols = solve_square(Q(gram), c)
            assert sols.complete
            assert sols.as_set() == {(0, 1), (0, -1)}, "p = %d" % p

    def test_exact_mode_agrees_with_brute_force(self):
        # every solution has |y| <= |c| and |x| <= (1 + 9)|c| / 2 <= 50
        for d in (-4, -9, -2, -1, 0, 3):
            for c in range(-10, 11):
                if c == 0:
                    continue
                sols = solve_square(Q([[0, 1], [1, d]]), c)
                assert sols.complete
                assert sols.as_set() == sweep_square_solutions([[0, 1], [1, d]], c, 50), (d, c)
                # the mirrored Gram matrix has the coordinates swapped
                mirrored = solve_square(Q([[d, 1], [1, 0]]), c)
                assert mirrored.complete
                assert mirrored.as_set() == {(y, x) for x, y in sols.as_set()}, (d, c)

    def test_definite_form_is_complete(self):
        gram = [[2, 1], [1, 2]]
        for c in (-2, 0, 2, 6, 14):
            sols = solve_square(Q(gram), c)
            assert sols.complete
            assert sols.as_set() == sweep_square_solutions(gram, c, 20)
        # x^2 + xy + y^2 = 7 has twelve solutions, reaching |y| = 3
        assert len(solve_square(Q(gram), 14).vectors) == 12

    def test_definite_mirror_sweeps_the_shorter_axis(self, monkeypatch):
        rng = random.Random(606)
        cases = [([[10**4, 0], [0, 1]], 10**8), ([[10**4, 3], [3, 1]], 10**4 * 5**2 + 9)]
        while len(cases) < 40:
            a, b, d = rng.randint(-300, 300), rng.randint(-9, 9), rng.randint(-9, 9)
            if b * b - a * d < 0 and abs(a) > abs(d):
                x, y = rng.randint(-20, 20), rng.randint(-20, 20)
                cases.append(([[a, b], [b, d]], a * x * x + 2 * b * x * y + d * y * y))
        for gram, c in cases:
            (a, b), (_, d) = gram
            # x^2 + y^2 <= |c (a + d) / D|, as in the test below
            bound = isqrt(abs(c * (a + d)) // (a * d - b * b))
            sols = solve_square(Q(gram), c)
            mirrored = solve_square(Q([[d, b], [b, a]]), c)
            assert sols.complete and mirrored.complete
            assert sols.as_set() == sweep_square_solutions(gram, c, bound), (gram, c)
            assert mirrored.as_set() == {(y, x) for x, y in sols.as_set()}, (gram, c)
            assert list(mirrored.vectors) == sorted(mirrored.vectors)
        # the sweep runs over the axis of the smaller diagonal entry, whichever comes first
        for gram in ([[10**6, 0], [0, 1]], [[1, 0], [0, 10**6]]):
            steps = []

            def counted(*args):
                steps.append(len(range(*args)))
                return range(*args)

            with monkeypatch.context() as m:
                m.setattr(quadform, "range", counted, raising=False)
                assert len(solve_square(Q(gram), 10**12).vectors) == 28
            assert sum(steps) == 2001, gram  # |y| <= 1000

    def test_completeness_and_solutions_on_all_small_forms(self):
        """Complete exactly when D = b^2 - ad < 0, or D is a nonzero square and
        c != 0, and equal to the sweep oracle; every form with entries in
        [-4, 4] and c in [-15, 15], the infinite or empty sets sampled."""
        rng = random.Random(5)
        infinite = {"D = 0": [], "D > 0 not a square": [], "c = 0, D a nonzero square": []}
        for a, b, d in itertools.product(range(-4, 5), repeat=3):
            D = b * b - a * d
            for c in range(-15, 16):
                finite = D < 0 or (D > 0 and isqrt(D) ** 2 == D and c != 0)
                if not finite:
                    kind = "D = 0" if D == 0 else "c = 0, D a nonzero square" if c == 0 else "D > 0 not a square"
                    infinite[kind].append(([[a, b], [b, d]], c))
                    continue
                sols = solve_square(Q([[a, b], [b, d]]), c)
                # Bounds on every solution: for D < 0 the smaller eigenvalue is
                # at least -D / |a + d|, so x^2 + y^2 <= |c (a + d) / D|.  For
                # D = r^2 the factors u = ax + (b - r)y, w = ax + (b + r)y of ac
                # give |y| = |u - w| / 2r <= (|ac| + 1) / 2, and |x| likewise;
                # when a = 0, y divides c and |x| <= (1 + |d|)|c| / 2.
                bound = isqrt(abs(c * (a + d)) // -D) if D < 0 else (5 * abs(c) + 1) // 2
                assert sols.complete, (a, b, d, c)
                assert sols.as_set() == sweep_square_solutions([[a, b], [b, d]], c, bound), (a, b, d, c)
        for gram, c in (case for cases in infinite.values() for case in rng.sample(cases, 4)):
            sols = solve_square(Q(gram), c)
            assert not sols.complete, (gram, c)
            assert sols.as_set() == sweep_square_solutions(gram, c, 100), (gram, c)

    def test_isotropic_forms_factor_c_not_ac(self, monkeypatch):
        # moving the isotropic basis vector first keeps the divisor search at
        # |c|, also when the Gram matrix is mirrored; other square-D forms
        # search the divisors of ac
        seen = []
        divisors = quadform._divisors
        monkeypatch.setattr(quadform, "_divisors", lambda n: seen.append(n) or divisors(n))
        for gram in ([[0, 1], [1, -7]], [[-7, 1], [1, 0]], [[0, 2], [2, 0]]):
            solve_square(Q(gram), -30)
        assert [abs(n) for n in seen] == [30, 30, 30]
        assert solve_square(Q([[2, 3], [3, 4]]), 5).complete
        assert abs(seen[-1]) == 10

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            solve_square(Q([[2]]), 2)


class TestJsonRoundTrip:
    def test_form_round_trip(self):
        F = QuadraticForm.from_rows([[0, 1], [1, -18]], labels=("T_3", "R_3"))
        obj = F.to_json_obj()
        assert obj["labels"] == ["T_3", "R_3"]
        G = QuadraticForm.from_json_obj(obj)
        assert G == F

    def test_missing_gram_rejected(self):
        with pytest.raises(ValueError):
            QuadraticForm.from_json_obj({"labels": ["a"]})

    def test_label_count_validated(self):
        with pytest.raises(ValueError):
            QuadraticForm.from_rows([[0, 1], [1, -2]], labels=("T",))

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError):
            QuadraticForm.from_rows([[0, 1], [2, 0]])

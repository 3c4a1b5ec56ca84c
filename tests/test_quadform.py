import itertools
import random
from math import gcd, isqrt

import pytest

import steincheck.quadform as quadform
import steincheck.intlin as intlin
from steincheck.intlin import IntMatrix, congruence_transform, determinant
from steincheck.quadform import (
    QuadraticForm,
    classify,
    form_key,
    is_isomorphic,
    pairing,
    solve_square,
)

from oracles import (
    charpoly_inertia,
    fraction_determinant,
    orbit_classes,
    random_symmetric_matrix,
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
        assert classify(Q([[0, 1], [1, -2]])).parity == "even"
        assert classify(Q([[0, 1], [1, -9]])).parity == "odd"
        assert classify(Q([[1]])).parity == "odd"

    def test_family_even_iff_p_odd(self):
        for p in range(1, 101):
            expected = "even" if p % 2 == 1 else "odd"
            assert classify(family_form(p)).parity == expected


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

    def test_rank_zero_form_is_positive_and_unimodular(self):
        fc = classify(Q([]))
        assert fc == (0, 0, "even", 1)
        assert fc.definiteness == "positive" and fc.unimodular

    def test_definite_forms(self):
        assert classify(Q([[2, 0], [0, 3]])).definiteness == "positive"
        assert classify(Q([[-1, 0], [0, -5]])).definiteness == "negative"

    def test_family_unimodular_signature_zero(self):
        for p in range(1, 101):
            fc = classify(family_form(p))
            assert fc.unimodular and fc.signature == 0

    @staticmethod
    def expected_definiteness(rows):
        pos, neg, zero = charpoly_inertia(rows)
        return ("degenerate" if zero else "positive" if not neg
                else "negative" if not pos else "indefinite")

    def test_binary_definiteness_and_unimodularity_match_the_oracles(self):
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            rows = [[a, b], [b, c]]
            fc = classify(Q(rows))
            assert fc.definiteness == self.expected_definiteness(rows), rows
            assert fc.unimodular == (abs(fraction_determinant(rows)) == 1), rows

    def test_determinant_matches_bareiss_determinant(self):
        # dense forms, and forms of rank < n carried by a unimodular B
        rng = random.Random(808)
        degenerate = 0
        for n in range(1, 9):
            for _ in range(12):
                rows = random_symmetric_matrix(rng, n, -5, 5)
                if rng.random() < 0.4:
                    k = rng.randint(0, n - 1)
                    f = [[rows[i][j] if i < k and j < k else 0 for j in range(n)]
                         for i in range(n)]
                    B = IntMatrix.from_rows(random_unimodular_matrix(rng, n))
                    rows = congruence_transform(IntMatrix.from_rows(f), B).to_lists()
                F = Q(rows)
                fc = classify(F)
                assert fc.determinant == determinant(F.gram)
                degenerate += fc.determinant == 0
                assert fc.definiteness == self.expected_definiteness(rows)
                assert fc.unimodular == (abs(fraction_determinant(rows)) == 1)
        assert degenerate >= 20


class TestClassKeptOnForm:
    def test_repeated_classify_returns_the_same_object(self, monkeypatch):
        eliminations = []
        eliminate = quadform._symmetric_bareiss
        monkeypatch.setattr(quadform, "_symmetric_bareiss",
                            lambda *args: eliminations.append(args) or eliminate(*args))
        F = family_form(4)
        fc = classify(F)
        assert classify(F) is fc and is_isomorphic(F, family_form(6)) == "yes"
        assert len(eliminations) == 2

    def test_form_equality_hash_repr_and_json_unchanged(self):
        F, G = family_form(5), family_form(5)
        before = (repr(F), hash(F), F.to_json_obj())
        classify(F)
        assert (repr(F), hash(F), F.to_json_obj()) == before
        assert F == G and hash(F) == hash(G) and repr(F) == repr(G)
        assert "FormClass" not in repr(F) and "_class" not in F.to_json_obj()

    def test_form_refuses_every_assignment(self):
        F = Q([[0, 1], [1, -2]])
        for _ in range(2):  # before and after classify keeps the class on F
            for name, value in (("_class", classify(Q([[1, 0], [0, 1]]))), ("note", "x"),
                                ("gram", Q([[1]]).gram)):
                with pytest.raises(AttributeError):
                    setattr(F, name, value)
                with pytest.raises(AttributeError):
                    delattr(F, name)
            fc = classify(F)
            assert fc == (2, 0, "even", -1)
            assert fc.definiteness == "indefinite" and fc.unimodular
        assert not hasattr(F, "note") and F.gram.entries == ((0, 1), (1, -2))

    def test_replaced_gram_gets_its_own_class(self):
        F = family_form(1)
        assert classify(F).parity == "even"
        G = QuadraticForm(family_form(2).gram, F.labels)
        assert classify(G).parity == "odd" and classify(F).parity == "even"

    def test_distinct_forms_with_equal_entries_classify_equal(self):
        F, G = Q([[2, 1], [1, -3]]), Q([[2, 1], [1, -3]])
        assert F is not G
        assert classify(F) == classify(G)
        assert classify(F) is not classify(G)


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

    def test_one_elimination_per_form_and_no_determinant(self, monkeypatch):
        # classify's elimination already gives det, so is_isomorphic runs no other
        counts = {"_symmetric_bareiss": 0, "determinant": 0}
        for module in (quadform, intlin):
            for name in counts:
                if hasattr(module, name):
                    def counted(*args, _name=name, _fn=getattr(module, name)):
                        counts[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, counted)
        pairs = [
            (family_form(1), family_form(3), "yes"),
            (family_form(1), family_form(2), "no"),
            (Q([[1, 0], [0, 11]]), Q([[3, 1], [1, 4]]), "no"),
            (Q([[2, 1], [1, 2]]), Q([[2, -1], [-1, 2]]), "yes"),
            (Q([[1, 0, 0], [0, -1, 0], [0, 0, 6]]), Q([[2, 0, 0], [0, -1, 0], [0, 0, 3]]),
             "undecided"),
            (Q([[1, 0], [0, 2]]), Q([[1, 0], [0, 3]]), "no"),
        ]
        for F, G, verdict in pairs * 2:
            assert is_isomorphic(F, G) == verdict
        # the second pass reuses the classes kept on the forms
        assert counts == {"_symmetric_bareiss": 2 * len(pairs), "determinant": 0}

    def test_high_rank_definite_undecided(self):
        rng = random.Random(99)
        F = QuadraticForm.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
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
                image = random_image(rng, F)
                assert is_isomorphic(F, image) == "yes", (a, b, c)
                assert form_key(F) == form_key(image) is not None, (a, b, c)

    def test_reduction_basis_reaches_the_reduced_form(self):
        # for D < 0 or D a nonzero square, B = [u w] has det +-1 and B^T F B,
        # computed here, is the reduced form: 2|b| <= |a| <= |c| with b of
        # a's sign for D < 0, (0, r, n) with 0 <= n < 2r for D = r^2
        for a, b, c in itertools.product(range(-8, 9), repeat=3):
            D = b * b - a * c
            r = isqrt(max(D, 0))
            if D == 0 or D > 0 and r * r != D:
                continue
            reduced, (u, w) = quadform._canonical_binary(a, b, c, D)
            assert u[0] * w[1] - u[1] * w[0] in (1, -1), (a, b, c)
            dot = lambda v, x: a * v[0] * x[0] + b * (v[0] * x[1] + v[1] * x[0]) + c * v[1] * x[1]
            assert (dot(u, u), dot(u, w), dot(w, w)) == reduced, (a, b, c)
            ra, rb, rc = reduced
            if D < 0:
                assert 2 * abs(rb) <= abs(ra) <= abs(rc) and ra * rb >= 0, (a, b, c)
            else:
                assert ra == 0 and rb == r and 0 <= rc < 2 * r, (a, b, c)

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
        keys = {form_key(binary(f)) for f in forms}
        assert None not in keys and len(keys) == 182
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
        # (-10, 4, 3) is the neighbour of the reduced form (1, 6, -10).
        far = (binary((1, 0, -181)), binary((-1, 13, 12)))
        apart = (binary((1, 6, -10)), binary((5, 1, -9)))
        near = (binary((1, 6, -10)), binary((-10, 4, 3)))
        assert is_isomorphic(*far) == "yes"
        assert is_isomorphic(*apart) == "no"
        assert is_isomorphic(*near) == "yes"
        monkeypatch.setattr(quadform, "_RHO_STEP_CAP", 4)
        assert is_isomorphic(*far) == "undecided"
        assert is_isomorphic(*apart) == "undecided"
        # the key walks the whole cycle, so neighbours past the cap are undecided too
        assert is_isomorphic(*near) == "undecided"

    def test_one_long_cycle_against_a_short_one_is_no(self, monkeypatch):
        # D = 244, both even: (-18, 8, 10) lies on a cycle of 22 reduced forms
        # and (-12, 10, 12) on one of 6.  A form and its mirror have cycles of
        # one length, so a cap between the two lengths still separates them.
        long, short = binary((-18, 8, 10)), binary((-12, 10, 12))
        assert classify(long) == classify(short)
        assert is_isomorphic(long, short) == is_isomorphic(short, long) == "no"
        monkeypatch.setattr(quadform, "_RHO_STEP_CAP", 10)
        assert form_key(long) is None and form_key(short) is not None
        assert is_isomorphic(long, short) == is_isomorphic(short, long) == "no"
        monkeypatch.setattr(quadform, "_RHO_STEP_CAP", 4)
        assert is_isomorphic(long, short) == is_isomorphic(short, long) == "undecided"

    def test_key_starts_with_the_class(self):
        # None only on rank-3 forms that are not indefinite unimodular
        rng = random.Random(21)
        for n in (1, 2, 3) * 200:
            F = Q(random_symmetric_matrix(rng, n, -9, 9))
            key, fc = form_key(F), classify(F)
            if key is None:
                assert n == 3 and not (fc.unimodular and fc.definiteness == "indefinite")
            else:
                assert key[0] == fc, F


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
        assert set(sols.vectors) == {(1, 1), (-1, -1)}

    def test_p2_square_minus_one(self):
        sols = solve_square(Q([[0, 1], [1, -9]]), -1)
        assert sols.complete
        assert set(sols.vectors) == {(4, 1), (-4, -1)}

    def test_no_solutions(self):
        sols = solve_square(Q([[0, 1], [1, 0]]), 1)
        assert sols.complete
        assert set(sols.vectors) == set()

    def test_isotropic_c_zero_is_undecided(self):
        # the axes are isotropic lines, so the set is infinite and none is listed
        sols = solve_square(Q([[0, 1], [1, 0]]), 0)
        assert not sols.complete and sols.vectors == ()

    def test_anisotropic_c_zero_is_the_origin(self):
        # x^2 - 7 y^2 = 0 only at (0, 0), since 7 is not a square
        sols = solve_square(Q([[1, 0], [0, -7]]), 0)
        assert sols.complete and sols.vectors == ((0, 0),)

    def test_mirrored_isotropic_basis_vector(self):
        # same equation with the roles of the two basis vectors swapped
        sols = solve_square(Q([[-4, 1], [1, 0]]), -2)
        assert sols.complete
        assert set(sols.vectors) == {(1, 1), (-1, -1)}

    def test_normalized_even_form(self):
        sols = solve_square(Q([[0, 1], [1, -2]]), -2)
        assert sols.complete
        assert set(sols.vectors) == {(0, 1), (0, -1)}
        assert sols.is_plus_minus((0, 1)) and sols.is_plus_minus((0, -1))
        # the same vectors in a set not known to be complete prove nothing
        assert not sols._replace(complete=False).is_plus_minus((0, 1))

    def test_distinguished_square_in_normalized_coordinates(self):
        # in the (T_p, S_p) basis the solution set is exactly +-(0, 1)
        for p in range(1, 31):
            if p % 2 == 1:
                gram, c = [[0, 1], [1, -2]], -2
            else:
                gram, c = [[0, 1], [1, -1]], -1
            sols = solve_square(Q(gram), c)
            assert sols.complete
            assert set(sols.vectors) == {(0, 1), (0, -1)}, "p = %d" % p

    def test_exact_mode_agrees_with_brute_force(self):
        # every solution has |y| <= |c| and |x| <= (1 + 9)|c| / 2 <= 50
        for d in (-4, -9, -2, -1, 0, 3):
            for c in range(-10, 11):
                if c == 0:
                    continue
                sols = solve_square(Q([[0, 1], [1, d]]), c)
                assert sols.complete
                assert set(sols.vectors) == sweep_square_solutions([[0, 1], [1, d]], c, 50), (d, c)
                # the mirrored Gram matrix has the coordinates swapped
                mirrored = solve_square(Q([[d, 1], [1, 0]]), c)
                assert mirrored.complete
                assert set(mirrored.vectors) == {(y, x) for x, y in sols.vectors}, (d, c)

    def test_definite_form_is_complete(self):
        gram = [[2, 1], [1, 2]]
        for c in (-2, 0, 2, 6, 14):
            sols = solve_square(Q(gram), c)
            assert sols.complete
            assert set(sols.vectors) == sweep_square_solutions(gram, c, 20)
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
            assert set(sols.vectors) == sweep_square_solutions(gram, c, bound), (gram, c)
            assert set(mirrored.vectors) == {(y, x) for x, y in sols.vectors}, (gram, c)
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

    def test_completeness_and_solutions_on_all_small_forms(self, monkeypatch):
        """Complete exactly when D = b^2 - ad < 0, D is a nonzero square and
        c != 0, c = 0 and D > 0 is not a square, or D = 0 and c is no value
        k t^2, and then equal to the sweep oracle; otherwise empty, found
        without a loop step.  Every form with entries in [-4, 4] and c in
        [-15, 15]."""
        steps = []

        def counted(*args):
            steps.append(len(range(*args)))
            return range(*args)

        monkeypatch.setattr(quadform, "range", counted, raising=False)
        for a, b, d in itertools.product(range(-4, 5), repeat=3):
            D = b * b - a * d
            square = isqrt(max(D, 0)) ** 2 == D
            for c in range(-15, 16):
                steps.clear()
                sols = solve_square(Q([[a, b], [b, d]]), c)
                searched = D < 0 or (D > 0 and square and c != 0)
                anisotropic_zero = D > 0 and not square and c == 0
                if not searched:
                    assert sum(steps) == 0, (a, b, d, c)
                if D == 0:
                    # Q = k (ux + vy)^2 takes the values k t^2, k the signed gcd of its values
                    values = [a * x * x + 2 * b * x * y + d * y * y
                              for x in range(-2, 3) for y in range(-2, 3)]
                    k = gcd(*values) * (1 if max(values) > 0 else -1)
                    lines = any(k * t * t == c for t in range(16))
                    assert sols.complete is not lines and sols.vectors == (), (a, b, d, c)
                    if sols.complete:
                        assert sweep_square_solutions([[a, b], [b, d]], c, 30) == set(), (a, b, d, c)
                    continue
                if not (searched or anisotropic_zero):
                    assert not sols.complete and sols.vectors == (), (a, b, d, c)
                    continue
                # Bounds on every solution: for D < 0 the smaller eigenvalue is
                # at least -D / |a + d|, so x^2 + y^2 <= |c (a + d) / D|.  For
                # D = r^2 the factors u = ax + (b - r)y, w = ax + (b + r)y of ac
                # give |y| = |u - w| / 2r <= (|ac| + 1) / 2, and |x| likewise;
                # when a = 0, y divides c and |x| <= (1 + |d|)|c| / 2.  For
                # c = 0 on a non-square D the sweep checks the box |x|, |y| <= 100.
                if D < 0:
                    bound = isqrt(abs(c * (a + d)) // -D)
                else:
                    bound = 100 if anisotropic_zero else (5 * abs(c) + 1) // 2
                assert sols.complete, (a, b, d, c)
                assert set(sols.vectors) == sweep_square_solutions([[a, b], [b, d]], c, bound), (a, b, d, c)

    def test_isotropic_forms_factor_c_not_ac(self, monkeypatch):
        # every square-D form is solved on its reduced form (0, r, n), so the
        # divisor search is over |c|, mirrored or not, and also when no basis
        # vector is isotropic
        seen = []
        divisors = quadform._divisors
        monkeypatch.setattr(quadform, "_divisors", lambda n: seen.append(n) or divisors(n))
        for gram in ([[0, 1], [1, -7]], [[-7, 1], [1, 0]], [[0, 2], [2, 0]], [[2, 3], [3, 4]],
                     [[3, 7], [7, 15]]):
            solve_square(Q(gram), -30)
        assert [abs(n) for n in seen] == [30] * 5
        assert solve_square(Q([[2, 3], [3, 4]]), 5).complete
        assert abs(seen[-1]) == 5

    def test_definite_sweep_runs_on_the_reduced_form(self, monkeypatch):
        # [[5, 7], [7, 10]] is x^2 + y^2 in disguise: the sweep runs over the
        # reduced (1, 0, 1) with |y| <= 1000, not over |y| <= sqrt(5 c) = 2236
        steps = []

        def counted(*args):
            steps.append(len(range(*args)))
            return range(*args)

        gram, c = [[5, 7], [7, 10]], 10**6
        with monkeypatch.context() as m:
            m.setattr(quadform, "range", counted, raising=False)
            sols = solve_square(Q(gram), c)
        assert sum(steps) == 2001
        # x^2 + y^2 <= |c (a + d) / D| = 15 c, the bound of the all-small-forms test
        assert sols.complete and len(sols.vectors) == 28
        assert set(sols.vectors) == sweep_square_solutions(gram, c, isqrt(15 * c))

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

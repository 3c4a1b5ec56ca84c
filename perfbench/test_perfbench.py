"""Tests of the benchmark's own arithmetic and reference answers.

    python3 -m pytest -q perfbench

The references are cross-checked against tests/oracles.py at small sizes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (HERE, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import gen  # noqa: E402
import oracles  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


# ---------------------------------------------------------------------------
# metric arithmetic


@pytest.mark.parametrize("n", [100, 101, 109, 110, 250])
def test_p90_leaves_at_least_ten_samples_above(n):
    values = list(range(n))
    random.Random(n).shuffle(values)
    p90 = run.nearest_rank(values, 0.9)
    above = sum(1 for v in values if v > p90)
    assert above >= 10
    assert sum(1 for v in values if v <= p90) >= 0.9 * n


def test_p90_of_a_hundred_samples():
    assert run.nearest_rank([float(i) for i in range(1, 101)], 0.9) == 90.0


def test_ratios_count_timeouts_errors_and_wrong_answers_as_failed():
    statuses = ["decided"] * 6 + ["undecided"] * 2 + ["timeout", "wrong"]
    ok_ratio, decided_ratio = run.ratios(statuses)
    assert ok_ratio == pytest.approx(0.8)
    assert decided_ratio == pytest.approx(6 / 8)
    assert run.ratios(["error", "timeout"]) == (0.0, 0.0)


def test_summary_takes_per_call_medians_and_counts_each_input_once():
    calls = [{"order": i, "id": "w-%d" % i, "group": "g", "size": i} for i in range(3)]
    result = {
        "latencies": {"0": [0.001, 0.003, 0.002], "1": [0.005], "2": [0.004, 0.004]},
        "status": {"0": "decided", "1": "timeout", "2": "undecided"},
        "peak_rss_mb": 12.5,
        "uv_bits_by_call": {"2": 77},
    }
    metrics, rows = run.summarize(calls, result)
    assert metrics["wall_s"] == pytest.approx(0.011)
    assert metrics["call_p50_ms"] == pytest.approx(4.0)
    assert metrics["call_p90_ms"] == pytest.approx(5.0)
    assert metrics["ok_ratio"] == pytest.approx(2 / 3)
    assert metrics["decided_ratio"] == pytest.approx(0.5)
    assert [r["samples"] for r in rows] == [3, 1, 2]
    assert [r["uv_max_bits"] for r in rows] == ["", "", 77]


def _spans(rows):
    spans = tracing.Spans()
    for func, parent, start, end in rows:
        i = spans.add(func, parent, 0)
        spans.start[i], spans.end[i] = start, end
    return spans


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        (0, -1, 0, 100),   # root
        (1, 0, 10, 40),    # child
        (2, 1, 20, 30),    # grandchild
        (1, 0, 50, 60),    # second child
    ])
    assert spans.self_ns() == [60, 20, 10, 10]
    assert sum(spans.self_ns()) == 100


def test_traced_calls_nest_and_self_times_add_up():
    import steincheck.quadform as qf

    tracer = tracing.Tracer("steincheck", worker.CallTimeout)
    tracer.install()
    try:
        tracer.call_id = 7
        qf.is_isomorphic(qf.QuadraticForm.from_rows([[0, 1], [1, 0]]),
                         qf.QuadraticForm.from_rows([[0, 1], [1, 2]]))
    finally:
        tracer.uninstall()
    assert qf.classify.__module__ == "steincheck.quadform"
    assert not hasattr(qf.classify, "__wrapped__")
    names = [tracing.FUNCTIONS[f] for f in tracer.spans.func]
    assert names[0] == "quadform.is_isomorphic"
    assert set(names[1:]) == {"quadform.classify", "intlin.inertia", "intlin.determinant"}
    assert list(tracer.spans.call) == [7] * len(names)
    root = tracer.spans.end[0] - tracer.spans.start[0]
    assert sum(tracer.spans.self_ns()) == root
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["quadform.classify.calls"] == 2
    assert metrics["quadform.is_isomorphic.det_calls"] == metrics["intlin.determinant.calls"]
    assert len(tracing.metric_names()) == 41


# ---------------------------------------------------------------------------
# references against the oracles


def test_determinant_and_invariant_factors_match_oracles():
    rng = random.Random(1)
    for n in range(1, 5):
        for _ in range(6):
            m = oracles.random_int_matrix(rng, n, n, -6, 6)
            assert refs.det(m) == oracles.perm_determinant(m)
            if refs.det(m) != 0:
                assert refs.invariant_factors(m) == oracles.minor_gcd_invariant_factors(m)


def test_inertia_matches_characteristic_polynomial_oracle():
    rng = random.Random(2)
    for n in range(1, 7):
        for _ in range(5):
            m = oracles.random_symmetric_matrix(rng, n, -5, 5)
            assert refs.inertia(m) == oracles.charpoly_inertia(m)


def test_d3_of_unknots():
    assert refs.d3([[-2]], [0]) == Fraction(-1, 4)
    assert refs.d3([[-3]], [1]) == Fraction(-1, 3)
    assert refs.d3([], []) == Fraction(-1, 2)


def test_isotropic_solutions_match_box_oracle():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(-6, 6)
        c = rng.choice((-1, 1)) * rng.randint(1, 60)
        bound = abs(c) * (1 + abs(d))
        got = set(refs.isotropic_solutions(1, d, c, False))
        assert got == oracles.box_square_solutions(d, c, bound)
        mirrored = set(refs.isotropic_solutions(1, d, c, True))
        assert mirrored == {(b, a) for a, b in got}


def test_definite_solutions_match_brute_force():
    rng = random.Random(4)
    for _ in range(30):
        f = gen.reduced_generic_form(rng)
        sign = rng.choice((1, -1))
        gram = [[sign * x for x in row] for row in f]
        c = sign * rng.randint(0, 200)
        assert set(refs.definite_solutions(gram, c)) == oracles.brute_square_solutions(gram, c, 30)


def test_family_classes_are_unique_up_to_sign():
    for p in range(1, 12):
        d = gen.member_gram_d(p)
        k = gen.member_k(p)
        sols = oracles.box_square_solutions(d, gen.member_square(p), 400)
        assert sols == {(k, 1), (-k, -1)}


def test_class_table_pairs_are_inequivalent_in_a_box():
    rng = random.Random(6)
    for _ in range(4):
        f, g = gen.class_table_pair(rng)
        assert refs.det(f) == refs.det(g)
        assert refs.classify(f) == refs.classify(g)
        for b in _box(4):
            assert refs.congruent(f, b) != g


def _box(k):
    span = range(-k, k + 1)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    if abs(a * d - b * c) == 1:
                        yield [[a, b], [c, d]]


def test_unimodular_with_corner():
    rng = random.Random(7)
    for corner in range(0, 41):
        m = refs.unimodular_with_corner(rng, corner, 10)
        assert m[0][0] == corner
        assert abs(refs.det(m)) == 1
        assert max(abs(x) for row in m for x in row) <= max(corner, 10)


# ---------------------------------------------------------------------------
# workloads


def test_workloads_are_reproducible_from_the_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in ("family", "links", "forms"):
        a = gen.build(name, 11, tmp_path / "a")
        b = gen.build(name, 11, tmp_path / "b")
        c = gen.build(name, 12, tmp_path / "c")
        strip = lambda calls: json.dumps([{k: v for k, v in x.items() if k != "argv"}
                                          for x in calls])
        assert strip(a) == strip(b)
        assert strip(a) != strip(c)
        assert len(a) >= 100


@pytest.mark.filterwarnings("ignore:d3 computed for a boundary")
def test_probe_calls_are_answered_correctly(tmp_path):
    import steincheck.cli  # noqa: F401
    import steincheck

    b = gen.Builder("probe", tmp_path)
    gen.add_probes(b)
    gen.add_basis_restriction(b, 5, "json")
    gen.add_basis_restriction(b, 6, "text")
    for call in b.calls:
        assert worker.judge(call, worker.invoke(steincheck, call)) == "decided", call["id"]

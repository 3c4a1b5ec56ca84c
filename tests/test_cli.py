import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from steincheck.cli import run

from oracles import fraction_determinant, random_symmetric_matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestD3Command:
    def test_empty_link(self, capsys):
        code, out, _ = invoke(capsys, "d3", str(FIXTURES / "empty_link.json"))
        assert code == 0
        assert out == "-1/2\n"

    def test_unknot_files(self, capsys):
        with pytest.warns(UserWarning):
            code, out, _ = invoke(capsys, "d3", str(FIXTURES / "unknot_fr-2.json"))
        assert code == 0 and out == "-1/4\n"
        with pytest.warns(UserWarning):
            code, out, _ = invoke(capsys, "d3", str(FIXTURES / "unknot_fr-3.json"))
        assert code == 0 and out == "-1/3\n"

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys, "d3", str(FIXTURES / "empty_link.json"), "--output", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["d3"] == "-1/2"
        assert obj["chi"] == 1
        assert obj["sigma"] == 0
        assert obj["boundary_homology_sphere"] is True

    def test_json_computes_each_term_once(self, capsys, monkeypatch):
        # c1^2, sigma and det come from one symmetric elimination of the
        # bordered linking matrix; no other elimination runs
        import steincheck.handle as handle
        import steincheck.intlin as intlin

        counts = dict.fromkeys(
            ("_symmetric_bareiss", "_solve_det", "signature", "determinant", "rational_solve"), 0
        )
        for module in (handle, intlin):
            for name in counts:
                if hasattr(module, name):
                    def counted(*args, _name=name, _fn=getattr(module, name)):
                        counts[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, counted)
        code, out, _ = invoke(
            capsys, "d3", str(FIXTURES / "x_shadow_link.json"), "--output", "json"
        )
        assert code == 0 and json.loads(out)["boundary_homology_sphere"] is True
        assert counts == {
            "_symmetric_bareiss": 1,
            "_solve_det": 0,
            "signature": 0,
            "determinant": 0,
            "rational_solve": 0,
        }

    def test_singular_linking_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text('{"linking": [["0"]], "rot": ["0"], "tb": null}')
        code, _, err = invoke(capsys, "d3", str(bad))
        assert code == 2
        assert "degenerate linking form" in err


class TestInputErrors:
    def test_malformed_json_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"linking": [[\n  oops')
        code, _, err = invoke(capsys, "d3", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "d3", str(FIXTURES / "no_such_file.json"))
        assert code == 2
        assert "no_such_file" in err

    def test_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text('{"rot": ["0"]}')
        code, _, err = invoke(capsys, "d3", str(bad))
        assert code == 2 and "linking" in err

    def test_unknown_subcommand_usage_error(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_csv_rejected_where_not_offered(self, capsys):
        code, _, _ = invoke(
            capsys, "d3", str(FIXTURES / "empty_link.json"), "--output", "csv"
        )
        assert code == 2

    def test_bad_range_syntax(self, capsys):
        code, _, err = invoke(capsys, "certificate", "--parity", "odd", "--q-range", "1-10")
        assert code == 2 and "range" in err

    def test_descending_range(self, capsys):
        code, _, _ = invoke(capsys, "certificate", "--parity", "odd", "--q-range", "5..1")
        assert code == 2

    def test_range_errors_cut_long_values(self, capsys):
        for q_range, length in (("1-" + "9" * 5000, 5004), ("9" * 3000 + "..1", 3003)):
            code, _, err = invoke(capsys, "certificate", "--parity", "odd", "--q-range", q_range)
            assert code == 2 and "... (%d characters)" % length in err
            assert len(err) < 160

    def test_int_options_cut_long_values(self, capsys):
        digits = "9" * 4302  # past CPython's 4,300-digit int/str conversion limit
        for argv in (
            ["family", "x", "--p", digits],
            ["lemma", "homeo", "--max-p", digits],
            ["lemma", "basis-restriction", "--p", digits],
            ["homology", "v-family", "--p", digits],
            ["mapping-class", "fp", "--p", "1", "--compose", digits],
        ):
            code, _, err = invoke(capsys, *argv)
            message = err.splitlines()[-1].split(" error: ", 1)[1]
            assert code == 2 and message.endswith("... (4304 characters)")
            assert len(message) <= 100

    def test_values_whose_output_passes_the_digit_limit(self, capsys):
        # family x prints -2p^2 + p - 3 and basis-restriction p^2 - q + 1,
        # past 4,300 digits from p = 8*10^2149 and p = 4*10^2150 respectively
        fits, family_too_big, both_too_big = ("%d" % d + "0" * e for d, e in
                                              ((4, 2149), (8, 2149), (4, 2150)))
        for argv, ok in (
            (["family", "x", "--p", fits], True),
            (["family", "x", "--p", family_too_big], False),
            (["family", "x", "--p-range", "%s..%s" % (family_too_big, family_too_big)], False),
            (["lemma", "basis-restriction", "--p", family_too_big], True),
            (["lemma", "basis-restriction", "--p", both_too_big], False),
        ):
            for output in ("text", "json"):
                code, out, err = invoke(capsys, *argv, "--output", output)
                if ok:
                    assert code in (0, 1) and out and not err
                    continue
                assert code == 2 and not out
                option, value = argv[-2:]
                assert err == (
                    "error: %s %s... (%d characters) is too large: the output would print "
                    "an integer of more than 4300 digits\n" % (option, value[:40], len(value))
                )

    def test_int_option_errors_read_as_argparse_wrote_them(self, capsys):
        code, _, err = invoke(capsys, "family", "x", "--p", "x7")
        assert code == 2
        assert err.splitlines()[-1] == (
            "steincheck family x: error: argument --p: invalid int value: 'x7'"
        )


class TestFormCommands:
    def test_classify(self, capsys, tmp_path):
        f = tmp_path / "form.json"
        f.write_text(json.dumps({"gram": [["0", "1"], ["1", "-2"]], "labels": ["T", "S"]}))
        code, out, _ = invoke(capsys, "form", "classify", str(f))
        assert code == 0
        assert out.strip() == "rank 2, signature 0, even, indefinite, unimodular"

    def test_classify_json(self, capsys, tmp_path):
        f = tmp_path / "form.json"
        f.write_text(json.dumps({"gram": [["0", "1"], ["1", "-9"]]}))
        code, out, _ = invoke(capsys, "form", "classify", str(f), "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "definiteness": "indefinite",
            "parity": "odd",
            "rank": 2,
            "signature": 0,
            "unimodular": True,
        }

    def test_iso_yes_and_no(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        a.write_text(json.dumps({"gram": [["0", "1"], ["1", "-4"]]}))
        b.write_text(json.dumps({"gram": [["0", "1"], ["1", "-18"]]}))
        c.write_text(json.dumps({"gram": [["0", "1"], ["1", "-9"]]}))
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(b))
        assert code == 0 and out.strip() == "yes"
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(c))
        assert code == 0 and out.strip() == "no"

    def test_iso_undecided_exit_code(self, capsys, tmp_path):
        # rank-3 definite forms: diag(2, 2, 2) and B^T F B for
        # B = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"gram": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]}))
        b.write_text(json.dumps({"gram": [["2", "2", "0"], ["2", "4", "2"], ["0", "2", "4"]]}))
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(b))
        assert code == 1 and out.strip() == "undecided"

    def test_iso_decides_rank_two_definite_pairs(self, capsys, tmp_path):
        # the two classes of discriminant -44
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"gram": [["1", "0"], ["0", "11"]]}))
        b.write_text(json.dumps({"gram": [["3", "1"], ["1", "4"]]}))
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(b))
        assert code == 0 and out.strip() == "no"


class TestFamilyCommand:
    def test_single_member_json_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "family", "x", "--p", "3", "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["p"] == 3 and obj["q"] == 2 and obj["k"] == 8
        assert obj["manifold"]["form"]["gram"] == [["0", "1"], ["1", "-18"]]
        assert obj["normalized_form"]["gram"] == [["0", "1"], ["1", "-2"]]

    def test_range_matches_fixture_file(self, capsys):
        code, out, _ = invoke(capsys, "family", "x", "--p-range", "0..10", "--output", "json")
        assert code == 0
        assert json.loads(out) == json.loads((FIXTURES / "x_family.json").read_text())

    def test_negative_parameter_rejected(self, capsys):
        assert invoke(capsys, "family", "x", "--p", "-1")[0] == 2

    def test_requires_exactly_one_selector(self, capsys):
        assert invoke(capsys, "family", "x")[0] == 2
        assert invoke(capsys, "family", "x", "--p", "1", "--p-range", "1..2")[0] == 2


class TestLemmaCommands:
    def test_homeo_table_passes(self, capsys):
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "6")
        assert code == 0
        assert "PASS" in out

    def test_homeo_json(self, capsys):
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "3", "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["parity_rule_holds"] is True
        pair = next(d for d in obj["pairs"] if d["p"] == 0 and d["q"] == 2)
        assert pair["homeomorphic"] is False

    def test_homeo_csv(self, capsys):
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,homeomorphic,expected"
        assert "0,2,false,false" in lines

    def test_basis_restriction(self, capsys):
        code, out, _ = invoke(capsys, "lemma", "basis-restriction", "--p", "4", "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["square"] == -1
        assert obj["complete"] is True
        assert obj["solutions"] == [["-15", "-1"], ["15", "1"]]
        assert obj["matches_distinguished_class"] is True


class TestGenusBoundCommand:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "genus-bound", "--parity", "odd", "--q-range", "1..3")
        assert code == 0
        assert "genus >= 1" in out and "genus >= 3" in out

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "genus-bound", "--parity", "even", "--q-range", "1..2", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,p,self_intersection,c1_pairing,lower_bound"
        assert lines[1] == "1,2,-1,-3,2"


class TestCertificateCommand:
    def test_conclusion_true_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "certificate", "--parity", "even", "--q-range", "1..5")
        assert code == 0
        assert "conclusion: TRUE" in out

    def test_single_member_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "certificate", "--parity", "odd", "--q-range", "2..2")
        assert code == 1
        assert "conclusion: FALSE" in out

    def test_json_is_deterministic_and_matches_golden(self, capsys):
        args = ("certificate", "--parity", "odd", "--q-range", "1..10", "--output", "json")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.encode() == (GOLDEN / "certificate_odd_q1_10.json").read_bytes()

    def test_csv_output(self, capsys):
        code, out, _ = invoke(
            capsys, "certificate", "--parity", "odd", "--q-range", "1..3", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,parity,form_class,bound,rigidity"
        assert len(lines) == 4

    def test_csv_builds_each_member_once(self, capsys, monkeypatch):
        import steincheck.obstruct as obstruct

        built = []
        x_family = obstruct.x_family
        monkeypatch.setattr(obstruct, "x_family", lambda p: built.append(p) or x_family(p))
        code, out, _ = invoke(
            capsys, "certificate", "--parity", "odd", "--q-range", "1..10", "--output", "csv"
        )
        assert code == 0 and len(out.splitlines()) == 11
        assert built == list(range(1, 20, 2))


GOLDEN_COMMANDS = {
    "lemma_homeo_p12.txt": ("lemma", "homeo", "--max-p", "12"),
    "lemma_homeo_p12.json": ("lemma", "homeo", "--max-p", "12", "--output", "json"),
    "lemma_homeo_p12.csv": ("lemma", "homeo", "--max-p", "12", "--output", "csv"),
    "certificate_even_q1_12.txt": ("certificate", "--parity", "even", "--q-range", "1..12"),
    "certificate_even_q1_12.csv": (
        "certificate", "--parity", "even", "--q-range", "1..12", "--output", "csv"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden(capsys, name):
    code, out, _ = invoke(capsys, *GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


class TestHomologyCommands:
    def test_boundary_homology_sphere(self, capsys):
        code, out, _ = invoke(capsys, "homology", "boundary", str(FIXTURES / "x_shadow_link.json"))
        assert code == 0
        assert "homology 3-sphere" in out

    def test_boundary_json(self, capsys):
        code, out, _ = invoke(
            capsys, "homology", "boundary", str(FIXTURES / "unknot_fr-2.json"), "--output", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"free_rank": 0, "homology_sphere": False, "invariant_factors": ["2"]}

    @pytest.mark.parametrize("n", [14, 40])
    def test_boundary_of_large_links(self, capsys, tmp_path, n):
        rows = random_symmetric_matrix(random.Random(n), n, -9, 9)
        path = tmp_path / "link.json"
        path.write_text(json.dumps({"linking": rows, "rot": [0] * n, "tb": None}))
        code, out, _ = invoke(capsys, "homology", "boundary", str(path), "--output", "json")
        assert code == 0
        obj = json.loads(out)
        order = 1
        for d in obj["invariant_factors"]:
            order *= int(d)
        det = fraction_determinant(rows)
        assert det != 0 and obj["free_rank"] == 0 and order == abs(det)

    def test_v_family(self, capsys):
        code, out, _ = invoke(capsys, "homology", "v-family", "--p", "6")
        assert code == 0
        assert out.strip() == "H1 = Z + Z/6"

    def test_v_family_invalid(self, capsys):
        assert invoke(capsys, "homology", "v-family", "--p", "0")[0] == 2


class TestMappingClassCommand:
    def test_matrix_output(self, capsys):
        code, out, _ = invoke(capsys, "mapping-class", "fp", "--p", "1")
        assert code == 0
        assert out.strip() == "[[1, 0, 0], [0, 1, 0], [0, 1, 1]]"

    def test_compose_and_check(self, capsys):
        code, out, _ = invoke(
            capsys,
            "mapping-class", "fp", "--p", "2", "--compose", "3", "--check-stabilizes",
            "--output", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 5, 1]]
        assert obj["stabilizes_standard_summand"] is True

    def test_negative_parameter(self, capsys):
        assert invoke(capsys, "mapping-class", "fp", "--p", "-1")[0] == 2


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "steincheck", "d3", str(FIXTURES / "empty_link.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "-1/2\n"


def test_repeated_module_runs_are_byte_identical():
    args = [
        sys.executable,
        "-m",
        "steincheck",
        "certificate",
        "--parity",
        "odd",
        "--q-range",
        "1..10",
        "--output",
        "json",
    ]
    first = subprocess.run(args, capture_output=True).stdout
    second = subprocess.run(args, capture_output=True).stdout
    assert first == second
    assert first == (GOLDEN / "certificate_odd_q1_10.json").read_bytes()


# Pairs of calls made one after the other through the parser that ``run``
# reuses within a process: a value, flag or usage error from the first call
# must not show in the second.
SEQUENTIAL_CALLS = {
    "compose-then-plain": (
        ["mapping-class", "fp", "--p", "1", "--compose", "2", "--output", "json"],
        ["mapping-class", "fp", "--p", "1", "--output", "json"],
    ),
    "flag-then-no-flag": (
        ["mapping-class", "fp", "--p", "2", "--check-stabilizes"],
        ["mapping-class", "fp", "--p", "2"],
    ),
    "usage-error-then-valid": (
        ["family", "x", "--p", "1", "--p-range", "1..2"],
        ["family", "x", "--p", "1"],
    ),
    "p-then-p-range": (
        ["family", "x", "--p", "3"],
        ["family", "x", "--p-range", "0..2"],
    ),
}


@pytest.mark.parametrize("name", list(SEQUENTIAL_CALLS))
def test_reused_parser_matches_fresh_processes(capsys, name):
    calls = SEQUENTIAL_CALLS[name]
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "steincheck", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in calls
    ]
    in_process = [invoke(capsys, *argv) for argv in calls]
    for proc, result in zip(fresh, in_process):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == result
    if name == "compose-then-plain":
        assert json.loads(in_process[1][1])["composed_with"] is None
    if name == "flag-then-no-flag":
        assert "stabilizes" in in_process[0][1] and "stabilizes" not in in_process[1][1]
    if name == "usage-error-then-valid":
        assert [code for code, _, _ in in_process] == [2, 0]

import contextlib
import io
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import steincheck.cli as cli
import steincheck.obstruct as obstruct
from steincheck.cli import run

from oracles import fraction_determinant, random_symmetric_matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
D3_WARNING_LINE = (
    "warning: d3 computed for a boundary that is not a homology sphere; "
    "the value depends on the chosen lift of c1 over torsion\n"
)


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
        code, out, err = invoke(capsys, "d3", str(FIXTURES / "unknot_fr-2.json"))
        assert code == 0 and out == "-1/4\n" and err == D3_WARNING_LINE
        code, out, err = invoke(capsys, "d3", str(FIXTURES / "unknot_fr-3.json"))
        assert code == 0 and out == "-1/3\n" and err == D3_WARNING_LINE

    def test_warning_is_the_same_stderr_line_in_both_formats(self, capsys):
        # repeated calls in one process warn each time
        for _ in range(2):
            errs = [invoke(capsys, "d3", str(FIXTURES / "unknot_fr-2.json"), "--output", output)[2]
                    for output in ("text", "json")]
            assert errs == [D3_WARNING_LINE, D3_WARNING_LINE]
        for output in ("text", "json"):
            code, out, err = invoke(capsys, "d3", str(FIXTURES / "x_shadow_link.json"),
                                    "--output", output)
            assert code == 0 and out and err == ""

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
            ("_symmetric_bareiss", "_solve_det", "determinant", "rational_solve"), 0
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
            "determinant": 0,
            "rational_solve": 0,
        }

    def test_singular_linking_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text('{"linking": [["0"]], "rot": ["0"], "tb": null}')
        code, _, err = invoke(capsys, "d3", str(bad))
        assert code == 2
        assert "degenerate linking form" in err


# parsed values outside a parameter's domain, with the message of the one function
# that checks it (x_family, family_parameter, fp_matrix, v_family_homology, or the
# --max-p check, the one left in cli)
REJECTED_VALUES = {
    ("family", "x", "--p-range=-1..3"): "family parameters must be >= 0",
    ("family", "x", "--p-range", "-1..3"): "family parameters must be >= 0",
    ("lemma", "homeo", "--max-p", "0"): "--max-p must be >= 1",
    ("family", "x", "--p", "-1"): "family parameters must be >= 0",
    ("lemma", "basis-restriction", "--p", "-1"): "family parameters must be >= 0",
    ("homology", "v-family", "--p", "0"): "family parameter must be a positive integer",
    ("mapping-class", "fp", "--p", "-1"): "mapping-class parameter must be a nonnegative integer",
    ("genus-bound", "--parity", "odd", "--q-range", "0..3"): "q values must be positive",
    ("genus-bound", "--parity", "odd", "--q-range", "-2..3"): "q values must be positive",
    ("certificate", "--parity", "odd", "--q-range", "0..3"): "q values must be positive",
    ("certificate", "--parity", "odd", "--q-range", "-2..3"): "q values must be positive",
    ("family", "x", "--p-r", "-1..3"): "family parameters must be >= 0",
    ("genus-bound", "--parity", "odd", "--q", "-2..3"): "q values must be positive",
    ("certificate", "--parity", "odd", "--q-ran", "-2..3"): "q values must be positive",
    ("mapping-class", "fp", "--p", "1", "--compose", "-1"):
        "mapping-class parameter must be a nonnegative integer",
}

# commands whose output would print an integer past CPython's 4,300-digit limit,
# with the output formats to try: family x prints -2p^2 + p - 3, basis-restriction
# p^2 - q + 1, mapping-class fp P + Q, genus-bound and certificate 2q or 2q - 1
NINES = "9" * 4300
LINK = object()  # stands for a link file with 2,000-digit framings
PAST_THE_DIGIT_LIMIT = {
    "family x --p": (["family", "x", "--p", "8" + "0" * 2149], ("text", "json")),
    "family x --p-range": (["family", "x", "--p-range", "8%s..8%s" % ("0" * 2149, "0" * 2149)],
                           ("text", "json")),
    "lemma basis-restriction": (["lemma", "basis-restriction", "--p", "4" + "0" * 2150],
                                ("text", "json")),
    "mapping-class fp --compose": (["mapping-class", "fp", "--p", "1", "--compose", NINES],
                                   ("text", "json")),
    "mapping-class fp --p --compose": (["mapping-class", "fp", "--p", NINES, "--compose", NINES],
                                       ("text", "json")),
    "genus-bound": (["genus-bound", "--parity", "odd", "--q-range",
                     "4%s..5%s" % ("9" * 4299, "0" * 4299)], ("text", "json", "csv")),
    "certificate": (["certificate", "--parity", "even", "--q-range", "%s..%s" % (NINES, NINES)],
                    ("text", "json", "csv")),
    "homology boundary": (["homology", "boundary", LINK], ("text", "json")),
}

# accepted by int() but not integers under the input policy
MALFORMED_INTEGERS = {
    "underscore": "1_0",
    "spaces": " 7 ",
    "plus": "+5",
    "fullwidth": "\uff13",
    "arabic-indic": "\u0663",
    "long-fullwidth": "\uff11" * 50,
}


def clipped(text):
    """repr(text) as error messages echo it: 40 characters and the length."""
    r = repr(text)
    return r if len(r) <= 40 else "%s... (%d characters)" % (r[:40], len(r))


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

    @pytest.mark.parametrize("argv", [("form", "classify"), ("form", "iso", str(FIXTURES / "x_form.json"))])
    def test_form_file_nested_too_deeply(self, capsys, tmp_path, argv):
        deep = tmp_path / "form.json"
        deep.write_text('{"gram": ' + "[" * 100_000)
        assert invoke(capsys, *argv, str(deep)) == (2, "", "error: %s: JSON nested too deeply\n" % deep)

    @pytest.mark.parametrize("argv", [("d3",), ("homology", "boundary")])
    def test_link_file_nested_too_deeply(self, capsys, tmp_path, argv):
        deep = tmp_path / "link.json"
        deep.write_text('{"linking": ' + "[" * 100_000)
        assert invoke(capsys, *argv, str(deep)) == (2, "", "error: %s: JSON nested too deeply\n" % deep)

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "link.json"
        bad.write_bytes(b'{"linking": [[-1]], "rot": [0], "tb": [0]}\xff')
        assert invoke(capsys, "d3", str(bad)) == (
            2, "", "error: %s: not UTF-8 text: invalid start byte at byte 42\n" % bad)

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
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                "steincheck %s %s: error: argument %s: integer string of more than 4300 digits: %s"
                % (argv[0], argv[1], argv[-2], clipped(digits))
            )

    @pytest.mark.parametrize("name", list(PAST_THE_DIGIT_LIMIT))
    def test_output_past_the_digit_limit(self, capsys, tmp_path, name):
        argv, outputs = PAST_THE_DIGIT_LIMIT[name]
        link = tmp_path / "link.json"
        f = "1" + "0" * 1999  # det of this 3x3 linking matrix has about 6,000 digits
        link.write_text(json.dumps({"linking": [[f, "1", "0"], ["1", f, "1"], ["0", "1", f]],
                                    "rot": ["0"] * 3, "tb": None}))
        for output in outputs:
            result = invoke(capsys, *(str(link) if a == LINK else a for a in argv),
                            "--output", output)
            assert result == (
                2, "", "error: the output would print an integer of more than 4300 digits\n"
            )

    def test_output_at_the_digit_limit_still_prints(self, capsys):
        # each largest printed integer has 4,300 digits: -2p^2 + p - 3, p^2 - q + 1,
        # P + Q, and 2q with p = 2q - 1 (genus-bound json would print p^2)
        q = "4" + "9" * 4299
        for argv, outputs in (
            (["family", "x", "--p", "4" + "0" * 2149], ("text", "json")),
            (["lemma", "basis-restriction", "--p", "8" + "0" * 2149], ("text", "json")),
            (["mapping-class", "fp", "--p", NINES, "--compose", "0"], ("text", "json")),
            (["genus-bound", "--parity", "odd", "--q-range", "%s..%s" % (q, q)], ("text",)),
        ):
            for output in outputs:
                code, out, err = invoke(capsys, *argv, "--output", output)
                assert code in (0, 1) and out and not err

    def test_int_option_errors_read_as_argparse_wrote_them(self, capsys):
        code, _, err = invoke(capsys, "family", "x", "--p", "x7")
        assert code == 2
        assert err.splitlines()[-1] == (
            "steincheck family x: error: argument --p: not a decimal integer string: 'x7'"
        )

    @pytest.mark.parametrize("argv", list(REJECTED_VALUES), ids=" ".join)
    def test_out_of_range_values(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", "error: %s\n" % REJECTED_VALUES[argv])

    @pytest.mark.parametrize("name", list(MALFORMED_INTEGERS))
    def test_malformed_integers(self, capsys, tmp_path, name):
        text = MALFORMED_INTEGERS[name]
        # one integer reader: -?[0-9]+ in ASCII, in JSON strings, ranges and options
        form, link = tmp_path / "form.json", tmp_path / "link.json"
        form.write_text(json.dumps({"gram": [[text]]}))
        link.write_text(json.dumps({"linking": [[text]], "rot": ["0"]}))
        for argv, message in (
            (["form", "classify", str(form)], "not a decimal integer string: %s" % clipped(text)),
            (["d3", str(link)], "not a decimal integer string: %s" % clipped(text)),
            (["certificate", "--parity", "odd", "--q-range", "1.." + text],
             "not a decimal integer string: %s" % clipped(text)),
        ):
            assert invoke(capsys, *argv) == (2, "", "error: %s\n" % message)
        code, out, err = invoke(capsys, "lemma", "basis-restriction", "--p", text)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            "steincheck lemma basis-restriction: error: argument --p: "
            "not a decimal integer string: %s" % clipped(text)
        )

    def test_range_bounds_past_the_digit_limit(self, capsys):
        # the integer reader's own message, as for options and file entries
        digits = "9" * 4301
        message = "integer string of more than 4300 digits: %s" % clipped(digits)
        for argv in (["certificate", "--parity", "odd", "--q-range", "1..%s" % digits],
                     ["genus-bound", "--parity", "even", "--q-range", "%s..%s" % (digits, digits)],
                     ["family", "x", "--p-range", "0..%s" % digits]):
            assert invoke(capsys, *argv) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ["certificate", "--parity", "odd", "--q-range", "-5..1000000000000"],
        ["genus-bound", "--parity", "even", "--q-range", "0..1000000000000"],
        ["family", "x", "--p-range", "-1..1000000000000"],
    ], ids=lambda argv: argv[0])
    def test_first_bound_outside_the_domain_fails_at_once(self, capsys, argv):
        # the first member's check raises before any other member is built
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert time.perf_counter() - start < 1

    def test_json_integers_past_the_digit_limit(self, capsys, tmp_path):
        digits = "9" * 4302
        for entry in (digits, '"%s"' % digits):
            path = tmp_path / "form.json"
            path.write_text('{"gram": [[%s]]}' % entry)
            assert invoke(capsys, "form", "classify", str(path)) == (
                2, "", "error: integer string of more than 4300 digits: %s\n" % clipped(digits)
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
        for other, verdict in ((b, "yes"), (c, "no")):
            code, out, _ = invoke(capsys, "form", "iso", str(a), str(other), "--output", "json")
            assert code == 0 and json.loads(out) == {"verdict": verdict}

    def test_iso_undecided_exit_code(self, capsys, tmp_path):
        # rank-3 definite forms: diag(2, 2, 2) and B^T F B for
        # B = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"gram": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]}))
        b.write_text(json.dumps({"gram": [["2", "2", "0"], ["2", "4", "2"], ["0", "2", "4"]]}))
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(b))
        assert code == 1 and out.strip() == "undecided"
        code, out, _ = invoke(capsys, "form", "iso", str(a), str(b), "--output", "json")
        assert code == 1 and json.loads(out) == {"verdict": "undecided"}

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

    @pytest.mark.parametrize("fault", ["wrong rule", "inapplicable across classes"])
    def test_homeo_rule_check_fails(self, capsys, monkeypatch, fault):
        if fault == "wrong rule":
            monkeypatch.setattr(cli, "_has_even_form", lambda p: p % 2 == 1)
        else:
            # the members stay split by parity, but no verdict across the classes is decided
            decide = obstruct.homeo_decide
            monkeypatch.setattr(obstruct, "homeo_decide", lambda M, N: (
                "homeomorphic" if decide(M, N) == "homeomorphic" else "inapplicable"))
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "5")
        assert code == 1 and out.endswith("parity): FAIL\n")
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "5", "--output", "json")
        assert code == 1 and json.loads(out)["parity_rule_holds"] is False
        code, out, _ = invoke(capsys, "lemma", "homeo", "--max-p", "5", "--output", "csv")
        assert code == 1 and len(out.splitlines()) == 1 + 6 * 7 // 2

    @pytest.mark.parametrize("argv", [
        ("lemma", "homeo", "--max-p", "200"),
        ("lemma", "homeo", "--max-p", "200", "--output", "csv"),
        ("lemma", "homeo", "--max-p", "200", "--output", "json"),
        ("family", "x", "--p-range", "0..2000"),
    ], ids=" ".join)
    def test_peak_memory_is_a_small_multiple_of_the_output(self, argv):
        # the handlers keep no copy of the answer beyond the text they return
        cli._command_tree()  # built once per process, so outside the measurement
        out = io.StringIO()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(out):
                code = run(list(argv))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert code == 0 and peak < 8 * len(out.getvalue())

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

    def test_json_closed_forms(self, capsys):
        # the member p = 2q - 1 (odd) or 2q (even) has distinguished class
        # (p^2 - q + 1, 1) with v.v = -2 or -1, c1.v = -2q or -2q - 1, and
        # adjunction bound q or q + 1
        for parity, shift, vv in (("odd", 0, -2), ("even", 1, -1)):
            code, out, _ = invoke(
                capsys, "genus-bound", "--parity", parity, "--q-range", "1..12", "--output", "json"
            )
            assert code == 0
            obj = json.loads(out)
            assert obj["parity"] == parity and len(obj["bounds"]) == 12
            for q, row in enumerate(obj["bounds"], start=1):
                p = 2 * q - 1 + shift
                assert row == {
                    "q": q,
                    "p": p,
                    "class": [str(p * p - q + 1), "1"],
                    "self_intersection": str(vv),
                    "c1_pairing": str(-2 * q - shift),
                    "lower_bound": q + shift,
                }


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
        # one representative per normal form and distinguished class, and the
        # odd members share one
        assert built == [1]


GOLDEN_COMMANDS = {
    "lemma_homeo_p12.txt": ("lemma", "homeo", "--max-p", "12"),
    "lemma_homeo_p12.json": ("lemma", "homeo", "--max-p", "12", "--output", "json"),
    "lemma_homeo_p12.csv": ("lemma", "homeo", "--max-p", "12", "--output", "csv"),
    "certificate_even_q1_12.txt": ("certificate", "--parity", "even", "--q-range", "1..12"),
    "certificate_even_q1_12.csv": (
        "certificate", "--parity", "even", "--q-range", "1..12", "--output", "csv"
    ),
    "family_x_p0_3.txt": ("family", "x", "--p-range", "0..3"),
    "family_x_p0_3.json": ("family", "x", "--p-range", "0..3", "--output", "json"),
    "family_x_p3.json": ("family", "x", "--p", "3", "--output", "json"),
    "genus_bound_odd_q1_6.txt": ("genus-bound", "--parity", "odd", "--q-range", "1..6"),
    "genus_bound_odd_q1_6.json": (
        "genus-bound", "--parity", "odd", "--q-range", "1..6", "--output", "json"
    ),
    "genus_bound_even_q1_6.csv": (
        "genus-bound", "--parity", "even", "--q-range", "1..6", "--output", "csv"
    ),
    "lemma_basis_restriction_p4.txt": ("lemma", "basis-restriction", "--p", "4"),
    "lemma_basis_restriction_p4.json": ("lemma", "basis-restriction", "--p", "4", "--output", "json"),
    "mapping_class_fp_p2_c3.txt": (
        "mapping-class", "fp", "--p", "2", "--compose", "3", "--check-stabilizes"
    ),
    "mapping_class_fp_p2_c3.json": (
        "mapping-class", "fp", "--p", "2", "--compose", "3", "--check-stabilizes", "--output", "json"
    ),
    "homology_v_family_p6.txt": ("homology", "v-family", "--p", "6"),
    "homology_v_family_p6.json": ("homology", "v-family", "--p", "6", "--output", "json"),
    "homology_boundary_x_shadow.txt": ("homology", "boundary", str(FIXTURES / "x_shadow_link.json")),
    "homology_boundary_unknot_fr-2.txt": ("homology", "boundary", str(FIXTURES / "unknot_fr-2.json")),
    "homology_boundary_unknot_fr-2.json": (
        "homology", "boundary", str(FIXTURES / "unknot_fr-2.json"), "--output", "json"
    ),
    "form_classify_x_form.txt": ("form", "classify", str(FIXTURES / "x_form.json")),
    "form_classify_x_form.json": ("form", "classify", str(FIXTURES / "x_form.json"), "--output", "json"),
    "form_iso_x_x2.txt": ("form", "iso", str(FIXTURES / "x_form.json"), str(FIXTURES / "x2_form.json")),
    "form_iso_x_x2.json": (
        "form", "iso", str(FIXTURES / "x_form.json"), str(FIXTURES / "x2_form.json"), "--output", "json"
    ),
    "d3_x_shadow.txt": ("d3", str(FIXTURES / "x_shadow_link.json")),
    "d3_x_shadow.json": ("d3", str(FIXTURES / "x_shadow_link.json"), "--output", "json"),
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
        for p in range(1, 8):
            code, out, _ = invoke(capsys, "homology", "v-family", "--p", str(p), "--output", "json")
            assert code == 0
            factors = [str(p)] if p > 1 else []  # H1 = Z + Z/p
            assert json.loads(out) == {"p": p, "free_rank": 1, "invariant_factors": factors}

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


def test_both_module_forms_report_a_false_certificate():
    # one member cannot show the bounds increase, so the certificate fails
    # and exits 1 whichever module is run
    results = [
        subprocess.run(
            [sys.executable, "-m", module, "certificate", "--parity", "odd", "--q-range", "1..1"],
            capture_output=True,
            text=True,
        )
        for module in ("steincheck", "steincheck.cli")
    ]
    assert [result.returncode for result in results] == [1, 1]
    assert results[0].stdout == results[1].stdout
    assert "conclusion: FALSE" in results[0].stdout


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
    "unrecognized-then-valid": (
        ["d3", str(FIXTURES / "empty_link.json"), "extra"],
        ["d3", str(FIXTURES / "empty_link.json")],
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
    if name in ("usage-error-then-valid", "unrecognized-then-valid"):
        assert [code for code, _, _ in in_process] == [2, 0]

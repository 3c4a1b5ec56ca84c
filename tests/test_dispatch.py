"""``cli.run`` parses each argv once, with the parser where its leading
command words stop: the root, a group or a command.  The oracle here is the
nested walk through every parser, ``build_parser().parse_args``: for each
argv of the corpus, ``run`` must give the same exit code, stdout and stderr
either way, and hand its handler the same namespace, less the command and
subcommand names, which no handler reads."""

import argparse
from pathlib import Path

import pytest

import steincheck.cli as cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
X_FORM = str(FIXTURES / "x_form.json")
LINK = str(FIXTURES / "x_shadow_link.json")

# valid arguments for each command path, all cheap to run
VALID = {
    ("form", "classify"): [X_FORM],
    ("form", "iso"): [X_FORM, str(FIXTURES / "x2_form.json")],
    ("family", "x"): ["--p", "2"],
    ("lemma", "homeo"): ["--max-p", "3"],
    ("lemma", "basis-restriction"): ["--p", "4"],
    ("genus-bound",): ["--parity", "odd", "--q-range", "1..3"],
    ("certificate",): ["--parity", "odd", "--q-range", "1..3"],
    ("d3",): [LINK],
    ("homology", "boundary"): [LINK],
    ("homology", "v-family"): ["--p", "3"],
    ("mapping-class", "fp"): ["--p", "2"],
}

CORPUS = [
    argv
    for path, args in VALID.items()
    for argv in (
        [*path, *args],
        [*path, "-h"],
        list(path),  # every command has a required argument
        [*path, *args, "extra"],
        [*path, *args, "--bogus"],
        [*path, *args, "--output", "xml"],
        [*path, *args, "--out", "json"],
    )
]
CORPUS += [argv for group in sorted({p[0] for p in VALID if len(p) == 2})
           for argv in ([group], [group, "bogus"], [group, "-h"])]
CORPUS += [
    [],
    ["-h"],
    ["-h", "d3"],
    ["--bogus", "d3", LINK],
    ["form", "--bogus", "classify", X_FORM],
    ["form", "--", "classify", X_FORM],
    ["frobnicate"],
    ["--", "d3", LINK],
    ["d3", "--", LINK],
    ["--output", "json", "d3", LINK],
    ["certificate", "--parity", "odd", "--q-range", "-1..3"],
]


def test_the_corpus_reaches_every_handler():
    handlers = {f for name, f in vars(cli).items() if name.startswith("_cmd_")}
    parser = cli.build_parser()
    assert {parser.parse_args([*p, *a]).func for p, a in VALID.items()} == handlers


def through_run(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr, namespace) of run(argv) with parse in
    place of cli._parse; the namespace is None when parsing exits."""
    seen = []

    def spy(args):
        seen.append(parse(args))
        return seen[-1]

    monkeypatch.setattr(cli, "_parse", spy)
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    names = None
    if seen:
        names = {k: v for k, v in vars(seen[0]).items() if k not in ("command", "subcommand")}
    return code, captured.out, captured.err, names


@pytest.mark.parametrize("argv", CORPUS,
                         ids=lambda argv: " ".join(argv).replace(str(FIXTURES) + "/", ""))
def test_dispatch_matches_the_nested_walk(capsys, monkeypatch, argv):
    dispatch = through_run(capsys, monkeypatch, cli._parse, argv)
    nested = through_run(capsys, monkeypatch, lambda args: cli.build_parser().parse_args(args),
                         argv)
    assert dispatch == nested


@pytest.mark.parametrize("path", VALID, ids=" ".join)
def test_one_parse_per_call_at_the_command(monkeypatch, capsys, path):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(parser, *args, **kwargs):
        calls.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert cli.run([*path, *VALID[path]]) == 0
    capsys.readouterr()
    assert calls == ["steincheck " + " ".join(path)]

"""Command-line front end.

Every subcommand reads JSON files or family parameters, computes with exact
arithmetic, and prints text, JSON (stable key order, canonical "a/b"
rationals), or CSV.  Each handler returns its exit code and its stdout
text; ``run`` writes that text once the handler has returned, so a command
that fails leaves stdout empty.  Exit codes: 0 success / check passed, 1
computation succeeded but the embedded check failed, 2 input or usage error,
including an output integer past CPython's int/str digit limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

from .handle import (
    D3_TORSION_WARNING,
    FramedLinkPresentation,
    _d3_terms,
    boundary_first_homology,
)
from .intlin import _clip, _parse_int
from .obstruct import (
    certificate_csv_rows,
    certificate_text,
    family_bounds,
    homeo_classes,
    infinitude_report,
)
from .quadform import QuadraticForm, classify, is_isomorphic, pairing, solve_square
from .surgery import (
    FIXTURE_NOTES,
    LogTransformFamilyMember,
    compose,
    fp_matrix,
    normalized_form,
    stabilizes_summand,
    v_family_homology,
    x_family,
)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ValueError("%s: %s" % (path, exc.strerror or exc)) from None
    except UnicodeDecodeError as exc:
        raise ValueError("%s: not UTF-8 text: %s at byte %d" % (path, exc.reason, exc.start)) from None
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply" % path) from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            "%s: malformed JSON at line %d, column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from None


def _json_text(obj) -> str:
    # with an indent, json encodes in Python, and json.dumps joins one list of
    # every chunk; joining 8,192 chunks at a time keeps the peak near the
    # output's size (the encoder yields no empty chunk, so "" marks the end)
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    batches = iter(lambda: "".join(islice(chunks, 8192)), "")
    return "".join(chain(batches, ("\n",)))


def _csv_text(rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _parse_range(text: str) -> range:
    """The inclusive range A..B; each bound is read by _parse_int, whose
    errors pass through."""
    bounds = text.split("..")
    if len(bounds) != 2:
        raise ValueError("range must look like A..B (inclusive), got %s" % _clip(repr(text)))
    lo, hi = map(_parse_int, bounds)
    if lo > hi:
        raise ValueError("range %s is empty" % _clip(text))
    return range(lo, hi + 1)


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_link(path: str) -> FramedLinkPresentation:
    return FramedLinkPresentation.from_json_obj(_load_json(path))


def _has_even_form(p: int) -> bool:
    # the parity rule under test: the p = 0 member and odd p carry even forms
    return p == 0 or p % 2 == 1


def _member_text(member: LogTransformFamilyMember) -> str:
    m = member.manifold
    labels = m.form.labels or ()
    return (
        "%s: form %s in basis (%s), c1 = (%s), distinguished class = (%s) "
        "with square %d, normalized form %s"
        % (
            m.name,
            m.form.gram.pretty(),
            ", ".join(labels),
            ", ".join(str(x) for x in m.c1),
            ", ".join(str(x) for x in member.s_class),
            pairing(m.form, member.s_class, member.s_class),
            normalized_form(member).gram.pretty(),
        )
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, stdout text)


def _cmd_form_classify(args) -> tuple[int, str]:
    fc = classify(QuadraticForm.from_json_obj(_load_json(args.file)))
    return 0, (_json_text(fc.to_json_obj()) if args.output == "json" else fc.describe() + "\n")


def _cmd_form_iso(args) -> tuple[int, str]:
    F = QuadraticForm.from_json_obj(_load_json(args.file_a))
    G = QuadraticForm.from_json_obj(_load_json(args.file_b))
    verdict = is_isomorphic(F, G)
    out = _json_text({"verdict": verdict}) if args.output == "json" else verdict + "\n"
    return (0 if verdict in ("yes", "no") else 1), out


def _cmd_family_x(args) -> tuple[int, str]:
    if args.p is not None:
        member = x_family(args.p)
        return 0, (_member_text(member) + "\n" if args.output == "text"
                   else _json_text(member.to_json_obj()))
    # members are built one at a time as they are rendered, and no list of them is kept
    members = map(x_family, _parse_range(args.p_range))
    if args.output == "text":
        return 0, _lines(map(_member_text, members))
    return 0, _json_text({"meta": FIXTURE_NOTES, "members": [m.to_json_obj() for m in members]})


def _cmd_lemma_homeo(args) -> tuple[int, str]:
    if args.max_p < 1:
        raise ValueError("--max-p must be >= 1")
    ps = range(args.max_p + 1)
    manifolds = [x_family(p).manifold for p in ps]
    classes = homeo_classes(manifolds)
    class_of, between = classes.class_of, classes.between
    even = [_has_even_form(p) for p in ps]
    # a verdict depends only on the two classes and the expectation only on the
    # two parities, so checking each pair of (class, parity) kinds checks every pair
    kinds = set(zip(class_of, even))
    all_match = all(
        between[c, d] != "inapplicable" and (between[c, d] == "homeomorphic") == (e == f)
        for c, e in kinds for d, f in kinds
    )
    code = 0 if all_match else 1
    pairs = ((p, q, classes.verdict(p, q) == "homeomorphic", even[p] == even[q])
             for p in ps for q in ps[p:])
    if args.output == "json":
        pairs = [{"p": p, "q": q, "homeomorphic": h, "expected": e} for p, q, h, e in pairs]
        return code, _json_text({"max_p": args.max_p, "pairs": pairs, "parity_rule_holds": all_match})
    if args.output == "csv":
        rows = ((p, q, str(h).lower(), str(e).lower()) for p, q, h, e in pairs)
        return code, _csv_text(chain([("p", "q", "homeomorphic", "expected")], rows))
    names = [M.name for M in manifolds]
    width = max(map(len, names)) + 1
    mark = {True: "H".rjust(width), False: ".".rjust(width)}
    # one row of cells per class: every member of a class has the same row
    cells = [" ".join(mark[between[c, d] == "homeomorphic"] for d in class_of)
             for c in range(len(classes.representatives))]
    lines = [" " * width + " ".join(name.rjust(width) for name in names)]
    lines += [names[p].rjust(width) + " " + cells[c] for p, c in enumerate(class_of)]
    lines.append(
        "rule check (homeomorphic iff both forms have the same parity): %s"
        % ("PASS" if all_match else "FAIL")
    )
    return code, _lines(lines)


def _cmd_lemma_basis_restriction(args) -> tuple[int, str]:
    member = x_family(args.p)
    s = member.s_class
    c = pairing(member.manifold.form, s, s)
    sols = solve_square(member.manifold.form, c)
    matches = sols.is_plus_minus(s)
    code = 0 if matches else 1
    if args.output == "json":
        return code, _json_text(
            {
                "p": args.p,
                "square": c,
                "solutions": [[str(a), str(b)] for a, b in sols.vectors],
                "complete": sols.complete,
                "distinguished_class": [str(x) for x in s],
                "matches_distinguished_class": matches,
            }
        )
    return code, _lines((
        "classes of square %d on %s: %s"
        % (c, member.manifold.name, ", ".join("(%d, %d)" % v for v in sols.vectors)),
        "equals +-distinguished class (%s): %s"
        % (", ".join(str(x) for x in s), "PASS" if matches else "FAIL"),
    ))


def _cmd_genus_bound(args) -> tuple[int, str]:
    rows = [(q, p, b) for q, p, _, _, b in family_bounds(args.parity, _parse_range(args.q_range))]
    if args.output == "json":
        return 0, _json_text(
            {
                "parity": args.parity,
                "bounds": [
                    {"q": q, "p": p, **b.to_json_obj()} for q, p, b in rows
                ],
            }
        )
    if args.output == "csv":
        table = [["q", "p", "self_intersection", "c1_pairing", "lower_bound"]]
        table += [
            [str(q), str(p), str(b.self_intersection), str(b.c1_pairing), str(b.lower_bound)]
            for q, p, b in rows
        ]
        return 0, _csv_text(table)
    return 0, _lines(
        "q = %d (p = %d): v.v = %d, c1.v = %d, genus >= %d"
        % (q, p, b.self_intersection, b.c1_pairing, b.lower_bound)
        for q, p, b in rows
    )


def _cmd_certificate(args) -> tuple[int, str]:
    cert = infinitude_report(args.parity, _parse_range(args.q_range))
    if args.output == "json":
        out = _json_text(cert.to_json_obj())
    elif args.output == "csv":
        out = _csv_text(certificate_csv_rows(cert))
    else:
        out = certificate_text(cert) + "\n"
    return (0 if cert.conclusion else 1), out


def _cmd_d3(args) -> tuple[int, str]:
    link = _load_link(args.file)
    value, csq, sig, det = _d3_terms(link)
    if abs(det) != 1:
        print("warning: %s" % D3_TORSION_WARNING, file=sys.stderr)
    if args.output == "json":
        return 0, _json_text(
            {
                "d3": str(value),
                "c1_square": str(csq),
                "chi": 1 + link.n,
                "sigma": sig,
                "boundary_homology_sphere": abs(det) == 1,
            }
        )
    return 0, "%s\n" % value


def _cmd_homology_boundary(args) -> tuple[int, str]:
    group = boundary_first_homology(_load_link(args.file))
    if args.output == "json":
        return 0, _json_text({**group.to_json_obj(), "homology_sphere": group.is_trivial})
    return 0, "H1(boundary) = %s%s\n" % (group, " (homology 3-sphere)" if group.is_trivial else "")


def _cmd_homology_v_family(args) -> tuple[int, str]:
    group = v_family_homology(args.p)
    if args.output == "json":
        return 0, _json_text({"p": args.p, **group.to_json_obj()})
    return 0, "H1 = %s\n" % (group,)


def _cmd_mapping_class_fp(args) -> tuple[int, str]:
    f = fp_matrix(args.p)
    if args.compose_q is not None:
        f = compose(f, fp_matrix(args.compose_q))
    stab = stabilizes_summand(f)
    code = 1 if args.check_stabilizes and not stab else 0
    if args.output == "json":
        return code, _json_text(
            {
                "p": args.p,
                "composed_with": args.compose_q,
                "matrix": f.to_json_obj(),
                "stabilizes_standard_summand": stab,
            }
        )
    lines = [f.matrix.pretty()]
    if args.check_stabilizes:
        lines.append("stabilizes Z+Z+0 summand: %s" % ("yes" if stab else "no"))
    return code, _lines(lines)


# ---------------------------------------------------------------------------
# parser wiring


def _add_output(parser, choices=("text", "json")) -> None:
    parser.add_argument("--output", choices=list(choices), default="text",
                        help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincheck",
        description="Exact-arithmetic checks for log-transform families of "
        "Stein handlebodies: form classification, homeomorphism decisions, "
        "genus bounds, mapping-class criteria, homology, and d3 values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    form = sub.add_parser("form", help="quadratic form operations")
    form_sub = form.add_subparsers(dest="subcommand", required=True)
    fc = form_sub.add_parser("classify", help="rank/signature/parity/definiteness of a form file")
    fc.add_argument("file")
    _add_output(fc)
    fc.set_defaults(func=_cmd_form_classify)
    fi = form_sub.add_parser("iso", help="decide integral equivalence of two form files")
    fi.add_argument("file_a")
    fi.add_argument("file_b")
    _add_output(fi)
    fi.set_defaults(func=_cmd_form_iso)

    family = sub.add_parser("family", help="parametric manifold families")
    family_sub = family.add_subparsers(dest="subcommand", required=True)
    fx = family_sub.add_parser("x", help="log-transform family members and normalized forms")
    group = fx.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_int_arg, help="single parameter (0 = untransformed member)")
    group.add_argument("--p-range", help="inclusive range A..B")
    _add_output(fx)
    fx.set_defaults(func=_cmd_family_x)

    lemma = sub.add_parser("lemma", help="family-wide verification tables")
    lemma_sub = lemma.add_subparsers(dest="subcommand", required=True)
    lh = lemma_sub.add_parser("homeo", help="pairwise homeomorphism table against the parity rule")
    lh.add_argument("--max-p", type=_int_arg, required=True)
    _add_output(lh, ("text", "json", "csv"))
    lh.set_defaults(func=_cmd_lemma_homeo)
    lb = lemma_sub.add_parser(
        "basis-restriction",
        help="solution set of v.v = -2 / -1 versus the distinguished class",
    )
    lb.add_argument("--p", type=_int_arg, required=True)
    _add_output(lb)
    lb.set_defaults(func=_cmd_lemma_basis_restriction)

    gb = sub.add_parser("genus-bound", help="adjunction genus lower bounds along a family")
    gb.add_argument("--parity", choices=["odd", "even"], required=True)
    gb.add_argument("--q-range", required=True)
    _add_output(gb, ("text", "json", "csv"))
    gb.set_defaults(func=_cmd_genus_bound)

    cert = sub.add_parser("certificate", help="machine-checked infinitude certificate")
    cert.add_argument("--parity", choices=["odd", "even"], required=True)
    cert.add_argument("--q-range", required=True)
    _add_output(cert, ("text", "json", "csv"))
    cert.set_defaults(func=_cmd_certificate)

    d3p = sub.add_parser("d3", help="d3 invariant of a framed-link file")
    d3p.add_argument("file")
    _add_output(d3p)
    d3p.set_defaults(func=_cmd_d3)

    hom = sub.add_parser("homology", help="first homology computations")
    hom_sub = hom.add_subparsers(dest="subcommand", required=True)
    hb = hom_sub.add_parser("boundary", help="H1 of the boundary of a framed-link file")
    hb.add_argument("file")
    _add_output(hb)
    hb.set_defaults(func=_cmd_homology_boundary)
    hv = hom_sub.add_parser("v-family", help="H1 of the p-th reglued one-handle member")
    hv.add_argument("--p", type=_int_arg, required=True)
    _add_output(hv)
    hv.set_defaults(func=_cmd_homology_v_family)

    mc = sub.add_parser("mapping-class", help="torus mapping class matrices")
    mc_sub = mc.add_subparsers(dest="subcommand", required=True)
    fp = mc_sub.add_parser("fp", help="the parametric mapping class and the summand check")
    fp.add_argument("--p", type=_int_arg, required=True)
    fp.add_argument("--compose", dest="compose_q", type=_int_arg,
                    help="right-compose with the mapping class of this parameter")
    fp.add_argument("--check-stabilizes", action="store_true",
                    help="exit 1 unless the Z+Z+0 summand is stabilized")
    _add_output(fp)
    fp.set_defaults(func=_cmd_mapping_class_fp)

    return parser


@cache
def _command_tree(parser: Optional[argparse.ArgumentParser] = None):
    """(parser, {command word: node}) for the parser build_parser returns, and
    a node of the same shape for each subcommand (argparse allows one
    subparsers action per parser).  Parsing only reads a parser, so the tree
    is built once per process, on the first run, and build_parser stays the
    one definition of the commands."""
    parser = build_parser() if parser is None else parser
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    return parser, {} if sub is None else {w: _command_tree(p) for w, p in sub.choices.items()}


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns or prints, less the
    command and subcommand names, which no handler reads.  The leading command
    words lead to the deepest parser they reach (the root, a group or a
    command), and that parser alone parses the rest, which is the call the
    nested walk ends in; the arguments it leaves get the error the walk's top
    parser gives them."""
    (parser, words), i = _command_tree(), 0
    while i < len(argv) and argv[i] in words:
        parser, words = words[argv[i]]
        i += 1
    args, extras = parser.parse_known_args(argv[i:])
    if extras:
        _command_tree()[0].error("unrecognized arguments: %s" % " ".join(extras))
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    # argparse takes "-1..3" for an option, so "--q-range -1..3" (or any spelling
    # of an option without "=") is passed on as "--q-range=-1..3"
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        option, value = argv[i - 1], argv[i]
        # "--" alone ends the options, so it takes no value
        long_option = option.startswith("--") and len(option) > 2 and "=" not in option
        if long_option and value.startswith("-") and ".." in value:
            argv[i - 1] += "=" + argv.pop(i)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, out = args.func(args)
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion;" in message:  # CPython's int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            message = "the output would print an integer of more than %d digits" % limit
        print("error: %s" % message, file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Every subcommand reads JSON files or family parameters, computes with exact
arithmetic, and prints text, JSON (stable key order, canonical "a/b"
rationals), or CSV.  Exit codes: 0 success / check passed, 1 computation
succeeded but the embedded check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from functools import cache
from typing import Optional, Sequence

from .handle import (
    FramedLinkPresentation,
    _d3_terms,
    boundary_first_homology,
    d3,
)
from .intlin import _clip
from .obstruct import (
    adjunction_lower_bound,
    certificate_csv_rows,
    certificate_text,
    homeo_classes,
    infinitude_report,
)
from .quadform import QuadraticForm, classify, is_isomorphic, pairing, solve_square
from .surgery import (
    FIXTURE_NOTES,
    LogTransformFamilyMember,
    compose,
    fp_matrix,
    member_json,
    normalized_form,
    stabilizes_summand,
    v_family_homology,
    x_family,
)


class CliInputError(Exception):
    """Bad file, malformed JSON, or invalid parameter combination."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError("%s: %s" % (path, exc.strerror or exc)) from None
    except json.JSONDecodeError as exc:
        raise CliInputError(
            "%s: malformed JSON at line %d, column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from None


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_csv(rows: Sequence[Sequence[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise CliInputError("range must look like A..B (inclusive), got %s" % _clip(repr(text)))
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise CliInputError("range %s is empty" % _clip(text))
    return lo, hi


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %s" % _clip(repr(text))) from None


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
# subcommand handlers


def _cmd_form_classify(args) -> int:
    form = QuadraticForm.from_json_obj(_load_json(args.file))
    fc = classify(form)
    if args.output == "json":
        _emit_json(fc.to_json_obj())
    else:
        print(fc.describe())
    return 0


def _cmd_form_iso(args) -> int:
    F = QuadraticForm.from_json_obj(_load_json(args.file_a))
    G = QuadraticForm.from_json_obj(_load_json(args.file_b))
    verdict = is_isomorphic(F, G)
    if args.output == "json":
        _emit_json({"verdict": verdict})
    else:
        print(verdict)
    return 0 if verdict in ("yes", "no") else 1


def _cmd_family_x(args) -> int:
    if args.p is not None:
        members = [x_family(args.p)]
    else:
        lo, hi = _parse_range(args.p_range)
        if lo < 0:
            raise CliInputError("family parameters must be >= 0")
        members = [x_family(p) for p in range(lo, hi + 1)]
    _check_output_digits(args, members[-1].manifold.form.gram.entries[1][1])  # -2p^2 + p - 3
    if args.output == "json":
        if args.p is not None:
            _emit_json(member_json(members[0]))
        else:
            _emit_json({"meta": FIXTURE_NOTES, "members": [member_json(m) for m in members]})
    else:
        for member in members:
            print(_member_text(member))
    return 0


def _cmd_lemma_homeo(args) -> int:
    if args.max_p < 1:
        raise CliInputError("--max-p must be >= 1")
    ps = list(range(0, args.max_p + 1))
    members = [x_family(p) for p in ps]
    classes = homeo_classes([m.manifold for m in members])
    pairs = []
    all_match = True
    for p in ps:
        for q in ps[p:]:
            verdict = classes.verdict(p, q)
            expected = _has_even_form(p) == _has_even_form(q)
            got = verdict == "homeomorphic"
            match = got == expected and verdict in ("homeomorphic", "not_homeomorphic")
            all_match = all_match and match
            pairs.append({"p": p, "q": q, "homeomorphic": got, "expected": expected})
    if args.output == "json":
        _emit_json({"max_p": args.max_p, "pairs": pairs, "parity_rule_holds": all_match})
    elif args.output == "csv":
        rows = [["p", "q", "homeomorphic", "expected"]]
        rows += [
            [str(d["p"]), str(d["q"]), str(d["homeomorphic"]).lower(), str(d["expected"]).lower()]
            for d in pairs
        ]
        _emit_csv(rows)
    else:
        names = {p: members[p].manifold.name for p in ps}
        width = max(len(n) for n in names.values()) + 1
        print(" " * width + " ".join(names[q].rjust(width) for q in ps))
        for p in ps:
            cells = []
            for q in ps:
                verdict = classes.verdict(p, q)
                cells.append(("H" if verdict == "homeomorphic" else ".").rjust(width))
            print(names[p].rjust(width) + " " + " ".join(cells))
        print(
            "rule check (homeomorphic iff both forms have the same parity): %s"
            % ("PASS" if all_match else "FAIL")
        )
    return 0 if all_match else 1


def _cmd_lemma_basis_restriction(args) -> int:
    if args.p < 0:
        raise CliInputError("--p must be >= 0")
    member = x_family(args.p)
    _check_output_digits(args, member.k)
    s = member.s_class
    c = pairing(member.manifold.form, s, s)
    sols = solve_square(member.manifold.form, c)
    matches = sols.complete and sols.as_set() == {s, (-s[0], -s[1])}
    if args.output == "json":
        _emit_json(
            {
                "p": args.p,
                "square": c,
                "solutions": [[str(a), str(b)] for a, b in sols.vectors],
                "complete": sols.complete,
                "distinguished_class": [str(x) for x in s],
                "matches_distinguished_class": matches,
            }
        )
    else:
        print(
            "classes of square %d on %s: %s"
            % (c, member.manifold.name, ", ".join("(%d, %d)" % v for v in sols.vectors))
        )
        print(
            "equals +-distinguished class (%s): %s"
            % (", ".join(str(x) for x in s), "PASS" if matches else "FAIL")
        )
    return 0 if matches else 1


def _cmd_genus_bound(args) -> int:
    lo, hi = _parse_range(args.q_range)
    if lo < 1:
        raise CliInputError("q values must be positive")
    rows = []
    for q in range(lo, hi + 1):
        p = 2 * q - 1 if args.parity == "odd" else 2 * q
        member = x_family(p)
        bound = adjunction_lower_bound(member.manifold, member.s_class)
        rows.append((q, p, bound))
    if args.output == "json":
        _emit_json(
            {
                "parity": args.parity,
                "bounds": [
                    {"q": q, "p": p, **b.to_json_obj()} for q, p, b in rows
                ],
            }
        )
    elif args.output == "csv":
        table = [["q", "p", "self_intersection", "c1_pairing", "lower_bound"]]
        table += [
            [str(q), str(p), str(b.self_intersection), str(b.c1_pairing), str(b.lower_bound)]
            for q, p, b in rows
        ]
        _emit_csv(table)
    else:
        for q, p, b in rows:
            print(
                "q = %d (p = %d): v.v = %d, c1.v = %d, genus >= %d"
                % (q, p, b.self_intersection, b.c1_pairing, b.lower_bound)
            )
    return 0


def _cmd_certificate(args) -> int:
    lo, hi = _parse_range(args.q_range)
    if lo < 1:
        raise CliInputError("q values must be positive")
    cert = infinitude_report(args.parity, range(lo, hi + 1))
    if args.output == "json":
        _emit_json(cert.to_json_obj())
    elif args.output == "csv":
        _emit_csv(certificate_csv_rows(cert))
    else:
        print(certificate_text(cert))
    return 0 if cert.conclusion else 1


def _cmd_d3(args) -> int:
    link = _load_link(args.file)
    if args.output == "json":
        value, csq, sig, det = _d3_terms(link)
        _emit_json(
            {
                "d3": str(value),
                "c1_square": str(csq),
                "chi": 1 + link.n,
                "sigma": sig,
                "boundary_homology_sphere": abs(det) == 1,
            }
        )
    else:
        print(d3(link))
    return 0


def _cmd_homology_boundary(args) -> int:
    link = _load_link(args.file)
    group = boundary_first_homology(link)
    if args.output == "json":
        obj = group.to_json_obj()
        obj["homology_sphere"] = group.is_trivial
        _emit_json(obj)
    else:
        print(
            "H1(boundary) = %s%s"
            % (group, " (homology 3-sphere)" if group.is_trivial else "")
        )
    return 0


def _cmd_homology_v_family(args) -> int:
    if args.p < 1:
        raise CliInputError("--p must be >= 1")
    group = v_family_homology(args.p)
    if args.output == "json":
        _emit_json({"p": args.p, **group.to_json_obj()})
    else:
        print("H1 = %s" % group)
    return 0


def _cmd_mapping_class_fp(args) -> int:
    if args.p < 0:
        raise CliInputError("--p must be >= 0")
    f = fp_matrix(args.p)
    if args.compose_q is not None:
        if args.compose_q < 0:
            raise CliInputError("--compose parameter must be >= 0")
        f = compose(f, fp_matrix(args.compose_q))
    stab = stabilizes_summand(f)
    if args.output == "json":
        _emit_json(
            {
                "p": args.p,
                "composed_with": args.compose_q,
                "matrix": f.to_json_obj(),
                "stabilizes_standard_summand": stab,
            }
        )
    else:
        print(f.matrix.pretty())
        if args.check_stabilizes:
            print("stabilizes Z+Z+0 summand: %s" % ("yes" if stab else "no"))
    if args.check_stabilizes and not stab:
        return 1
    return 0


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
    group.add_argument("--p-range", dest="p_range", help="inclusive range A..B")
    _add_output(fx)
    fx.set_defaults(func=_cmd_family_x)

    lemma = sub.add_parser("lemma", help="family-wide verification tables")
    lemma_sub = lemma.add_subparsers(dest="subcommand", required=True)
    lh = lemma_sub.add_parser("homeo", help="pairwise homeomorphism table against the parity rule")
    lh.add_argument("--max-p", dest="max_p", type=_int_arg, required=True)
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
    gb.add_argument("--q-range", dest="q_range", required=True)
    _add_output(gb, ("text", "json", "csv"))
    gb.set_defaults(func=_cmd_genus_bound)

    cert = sub.add_parser("certificate", help="machine-checked infinitude certificate")
    cert.add_argument("--parity", choices=["odd", "even"], required=True)
    cert.add_argument("--q-range", dest="q_range", required=True)
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
    fp.add_argument("--compose", dest="compose_q", type=_int_arg, default=None,
                    help="right-compose with the mapping class of this parameter")
    fp.add_argument("--check-stabilizes", dest="check_stabilizes", action="store_true",
                    help="exit 1 unless the Z+Z+0 summand is stabilized")
    _add_output(fp)
    fp.set_defaults(func=_cmd_mapping_class_fp)

    return parser


# parse_args only reads the parser, so one instance per process serves every call
_parser = cache(build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CliInputError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _check_output_digits(args, largest: int) -> None:
    """Name the --p or --p-range whose output would pass the int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(largest).bit_length() > 3 * limit and abs(largest) >= 10 ** limit:
        option, value = ("--p", str(args.p)) if args.p is not None else ("--p-range", args.p_range)
        raise CliInputError("%s %s is too large: the output would print an integer of more "
                            "than %d digits" % (option, _clip(value), limit))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

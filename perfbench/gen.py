"""Seeded workload inputs, each with an expected answer that does not come
from steincheck.

A workload is a list of calls.  A call is a JSON-ready dict:

  id      "<workload>-NNN", the only thing failure reports name
  group   what kind of call it is, e.g. "certificate-csv"
  size    the input size a scaling curve is drawn over
  kind    "cli" (argv for steincheck.cli.run), "solve_square" or
          "class_rigidity" (library calls with JSON arguments)
  check   how to compare the output with the expected answer


Sizes are drawn by stratified sampling: k draws from a (log-)uniform
range take one value from each of k equal slices of it, in ascending
order, at a seeded position within the middle `jitter` share of the
slice.  Call variants (output format, parity) cycle along these ladders,
so each variant gets a similar spread of sizes.  Each workload also has
a dense block of near-equal calls at its median and one at its 90th
percentile, so those percentiles fall among near-equal latencies rather
than on the steep part of a ladder.  Two seeds then give nearly the same
total work and percentiles, while the inputs themselves (offsets,
parameters, matrices) differ.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import refs

GOLDEN = Path("tests/golden/certificate_odd_q1_10.json")

# Per-call time limit, in seconds, per workload.  With steincheck 0.1.0,
# every call that finishes does so in under a third of it, and every call
# that is cut off would run more than three times as long.
TIME_LIMIT_S = {"family": 8.0, "links": 4.0, "forms": 8.0}


def stratified(rng: random.Random, k: int, lo: float, hi: float, log: bool = True,
               jitter: float = 1.0) -> list[float]:
    out = []
    for i in range(k):
        u = (i + 0.5 + jitter * (rng.random() - 0.5)) / k
        out.append(lo * (hi / lo) ** u if log else lo + u * (hi - lo))
    return out


def stratified_ints(rng, k, lo, hi, log=True, jitter=1.0) -> list[int]:
    return [int(round(x)) for x in stratified(rng, k, lo, hi, log, jitter)]


class Builder:
    """Collects the calls of one workload and writes their input files."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.inputs = work / "in"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.calls: list[dict] = []
        self.files = 0

    def _next_id(self) -> str:
        return "%s-%03d" % (self.workload, len(self.calls))

    def cli(self, group: str, size: int, argv: list[str], check: dict):
        self.calls.append(
            {"id": self._next_id(), "group": group, "size": size, "kind": "cli",
             "argv": argv, "check": check}
        )

    def lib(self, group: str, size: int, kind: str, args: dict, check: dict):
        self.calls.append(
            {"id": self._next_id(), "group": group, "size": size, "kind": kind,
             "args": args, "check": check}
        )

    def file(self, obj) -> str:
        path = self.inputs / ("%04d.json" % self.files)
        self.files += 1
        path.write_text(json.dumps(obj))
        return str(path)

    def finish(self, rng: random.Random) -> list[dict]:
        rng.shuffle(self.calls)
        for i, call in enumerate(self.calls):
            call["order"] = i
        return self.calls


# ---------------------------------------------------------------------------
# closed forms for the log-transform family X_p


def member_gram_d(p: int) -> int:
    return -2 if p == 0 else -2 * p * p + p - 3


def member_q(p: int):
    return None if p == 0 else (p + 1) // 2


def member_k(p: int) -> int:
    return 0 if p == 0 else p * p - member_q(p) + 1


def even_form(p: int) -> bool:
    return p == 0 or p % 2 == 1


def member_name(p: int) -> str:
    return "X" if p == 0 else "X_%d" % p


def member_labels(p: int, second: str) -> list[str]:
    return ["T", "S"] if p == 0 else ["T_%d" % p, "%s_%d" % (second, p)]


def member_square(p: int) -> int:
    return -2 if even_form(p) else -1


def member_json(p: int) -> dict:
    k = member_k(p)
    return {
        "p": p,
        "q": member_q(p),
        "k": k,
        "manifold": {
            "name": member_name(p),
            "form": {"gram": [["0", "1"], ["1", str(member_gram_d(p))]],
                     "labels": member_labels(p, "R")},
            "c1": ["0", str(0 if p == 0 else -1 - p)],
            "euler": 2,
            "sig": 0,
            "simply_connected": True,
            "boundary_homology_sphere": True,
            "stein": True,
        },
        "s_class": [str(k), "1"],
        "normalized_form": {"gram": [["0", "1"], ["1", str(member_square(p))]],
                            "labels": member_labels(p, "S")},
    }


def member_text(p: int) -> str:
    return (
        "%s: form [[0, 1], [1, %d]] in basis (%s), c1 = (0, %d), distinguished "
        "class = (%d, 1) with square %d, normalized form [[0, 1], [1, %d]]"
        % (member_name(p), member_gram_d(p), ", ".join(member_labels(p, "R")),
           0 if p == 0 else -1 - p, member_k(p), member_square(p), member_square(p))
    )


def family_p(parity: str, q: int) -> int:
    return 2 * q - 1 if parity == "odd" else 2 * q


def genus_row(parity: str, q: int):
    p = family_p(parity, q)
    vv = -2 if parity == "odd" else -1
    c1v = -1 - p
    bound = q if parity == "odd" else q + 1
    return q, p, vv, c1v, bound


def certificate_json(parity: str, qs: list[int], golden: dict) -> dict:
    return {
        "all_homeomorphic": True,
        "bounds": [genus_row(parity, q)[4] for q in qs],
        "class_rigidity_note": golden["class_rigidity_note"],
        "conclusion": len(qs) >= 2,
        "family_label": "log-transform family, %s parameters (p = %s)"
        % (parity, "2q-1" if parity == "odd" else "2q"),
        "parameters": [family_p(parity, q) for q in qs],
        "parity": parity,
        "rigidity": [True] * len(qs),
    }


def homeo_pairs(max_p: int):
    for p in range(max_p + 1):
        for q in range(p, max_p + 1):
            yield p, q, even_form(p) == even_form(q)


def homeo_text(max_p: int) -> str:
    ps = range(max_p + 1)
    width = max(len(member_name(p)) for p in ps) + 1
    lines = [" " * width + " ".join(member_name(q).rjust(width) for q in ps)]
    for p in ps:
        cells = [("H" if even_form(p) == even_form(q) else ".").rjust(width) for q in ps]
        lines.append(member_name(p).rjust(width) + " " + " ".join(cells))
    lines.append("rule check (homeomorphic iff both forms have the same parity): PASS")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# calls shared by every workload: one small call per traced function, so
# each per-layer span is measured on every workload


def add_probes(b: Builder) -> None:
    link = {"linking": [["-3"]], "rot": ["1"], "tb": None}
    b.cli("probe-certificate", 3,
          ["certificate", "--parity", "odd", "--q-range", "1..3", "--output", "csv"],
          {"type": "csv", "rows": certificate_rows("odd", [1, 2, 3])})
    b.cli("probe-family", 1, ["family", "x", "--p", "1", "--output", "json"],
          {"type": "json", "value": member_json(1)})
    path = b.file(link)
    b.cli("probe-d3", 1, ["d3", path], {"type": "text", "value": "%s\n" % refs.d3([[-3]], [1])})
    b.cli("probe-homology", 1, ["homology", "boundary", path],
          {"type": "text", "value": "H1(boundary) = Z/3\n"})


def certificate_rows(parity: str, qs: list[int]) -> list[list[str]]:
    rows = [["p", "parity", "form_class", "bound", "rigidity"]]
    for q in qs:
        p = family_p(parity, q)
        form_class = "rank 2, signature 0, %s, indefinite, unimodular" % (
            "even" if even_form(p) else "odd")
        rows.append([str(p), parity, form_class, str(genus_row(parity, q)[4]), "true"])
    return rows


# ---------------------------------------------------------------------------
# family: the paper's family checks through the CLI


def add_certificate(b: Builder, rng, parity: str, n: int, out: str, golden: dict) -> None:
    q0 = rng.randint(1, 60)
    qs = list(range(q0, q0 + n))
    argv = ["certificate", "--parity", parity, "--q-range", "%d..%d" % (qs[0], qs[-1]),
            "--output", out]
    if out == "json":
        check = {"type": "json", "value": certificate_json(parity, qs, golden)}
    elif out == "csv":
        check = {"type": "csv", "rows": certificate_rows(parity, qs)}
    else:
        bounds = [genus_row(parity, q)[4] for q in qs]
        check = {"type": "lines", "lines": [
            "  parameters p : %s" % ", ".join(str(family_p(parity, q)) for q in qs),
            "  [1] pairwise homeomorphic (same rank, signature, parity, unimodular "
            "indefinite): PASS",
            "  [2] class rigidity for every member: PASS (%d/%d)" % (n, n),
            "  [3] adjunction genus lower bounds strictly increasing: PASS (%s)"
            % ", ".join(str(x) for x in bounds),
            "  conclusion: TRUE",
        ]}
    b.cli("certificate-" + out, n, argv, check)


def family(rng: random.Random, work: Path) -> list[dict]:
    """Ladders of range lengths for the scaling curves, plus two dense
    blocks: 100 solution-set calls of near-constant cost around the median
    and 30 certificates of 44-46 members around the 90th percentile."""
    b = Builder("family", work)
    golden_text = GOLDEN.read_text()
    golden = json.loads(golden_text)
    b.cli("certificate-golden", 10,
          ["certificate", "--parity", "odd", "--q-range", "1..10", "--output", "json"],
          {"type": "text", "value": golden_text})

    outputs = ["json", "text", "csv"]
    # certificates, q-range lengths 2..200 (cost grows with the square)
    for i, n in enumerate(stratified_ints(rng, 24, 2, 200, jitter=0.3)):
        add_certificate(b, rng, ("odd", "even")[i % 2], n, outputs[(i // 2) % 3], golden)
    for i, n in enumerate(stratified_ints(rng, 30, 43.5, 46.49, log=False)):
        add_certificate(b, rng, ("odd", "even")[i % 2], n, outputs[(i // 2) % 3], golden)

    # 24 pairwise homeomorphism tables, --max-p 1..80
    for i, m in enumerate(stratified_ints(rng, 24, 1, 80, jitter=0.3)):
        out = outputs[i % 3]
        argv = ["lemma", "homeo", "--max-p", str(m), "--output", out]
        if out == "json":
            pairs = [{"p": p, "q": q, "homeomorphic": h, "expected": h}
                     for p, q, h in homeo_pairs(m)]
            check = {"type": "json",
                     "value": {"max_p": m, "pairs": pairs, "parity_rule_holds": True}}
        elif out == "csv":
            rows = [["p", "q", "homeomorphic", "expected"]]
            rows += [[str(p), str(q), str(h).lower(), str(h).lower()]
                     for p, q, h in homeo_pairs(m)]
            check = {"type": "csv", "rows": rows}
        else:
            check = {"type": "text", "value": homeo_text(m)}
        b.cli("homeo-" + out, m + 1, argv, check)

    # 18 genus-bound tables, q-range lengths 1..400
    for i, n in enumerate(stratified_ints(rng, 18, 1, 400, jitter=0.3)):
        parity = ("odd", "even")[i % 2]
        out = outputs[(i // 2) % 3]
        q0 = rng.randint(1, 1000)
        rows = [genus_row(parity, q) for q in range(q0, q0 + n)]
        argv = ["genus-bound", "--parity", parity, "--q-range", "%d..%d" % (q0, q0 + n - 1),
                "--output", out]
        if out == "json":
            bounds = [{"q": q, "p": p, "class": [str(member_k(p)), "1"],
                       "self_intersection": str(vv), "c1_pairing": str(c1v), "lower_bound": bd}
                      for q, p, vv, c1v, bd in rows]
            check = {"type": "json", "value": {"parity": parity, "bounds": bounds}}
        elif out == "csv":
            table = [["q", "p", "self_intersection", "c1_pairing", "lower_bound"]]
            table += [[str(x) for x in r] for r in rows]
            check = {"type": "csv", "rows": table}
        else:
            check = {"type": "text", "value": "".join(
                "q = %d (p = %d): v.v = %d, c1.v = %d, genus >= %d\n" % r for r in rows)}
        b.cli("genus-" + out, n, argv, check)

    # distinguished-class solution sets, p up to 10^6
    for i, p in enumerate(stratified_ints(rng, 100, 1, 10 ** 6)):
        add_basis_restriction(b, p, ("json", "text")[i % 2])

    # 12 family listings: ranges of 1..300 members as text, single members as json
    for i, n in enumerate(stratified_ints(rng, 12, 1, 300, jitter=0.3)):
        p0 = rng.randint(0, 500)
        if i % 2 == 0:
            b.cli("family-range", n, ["family", "x", "--p-range", "%d..%d" % (p0, p0 + n - 1)],
                  {"type": "text", "value": "".join(member_text(p) + "\n"
                                                    for p in range(p0, p0 + n))})
        else:
            p = p0 * n
            b.cli("family-member", p, ["family", "x", "--p", str(p), "--output", "json"],
                  {"type": "json", "value": member_json(p)})

    # 8 reglued one-handle members V_p: H1 = Z + Z/p
    for i, p in enumerate(stratified_ints(rng, 8, 2, 10 ** 9)):
        if i % 2:
            b.cli("v-family", p, ["homology", "v-family", "--p", str(p), "--output", "json"],
                  {"type": "json", "value": {"p": p, "free_rank": 1,
                                             "invariant_factors": [str(p)]}})
        else:
            b.cli("v-family", p, ["homology", "v-family", "--p", str(p)],
                  {"type": "text", "value": "H1 = Z + Z/%d\n" % p})

    add_probes(b)
    return b.finish(rng)


def add_basis_restriction(b: Builder, p: int, out: str) -> None:
    k = member_k(p)
    c = member_square(p)
    argv = ["lemma", "basis-restriction", "--p", str(p)]
    if out == "json":
        argv += ["--output", "json"]
        check = {"type": "basis", "value": {
            "p": p, "square": c, "solutions": [[str(-k), "-1"], [str(k), "1"]],
            "complete": True, "distinguished_class": [str(k), "1"],
            "matches_distinguished_class": True}}
    else:
        check = {"type": "text", "value":
                 "classes of square %d on %s: (%d, -1), (%d, 1)\n"
                 "equals +-distinguished class (%d, 1): PASS\n"
                 % (c, member_name(p), -k, k, k)}
    b.cli("basis-restriction", p, argv, check)


# ---------------------------------------------------------------------------
# links: boundary homology and d3 of seeded linking matrices


def random_link(rng: random.Random, n: int) -> tuple[list[list[int]], list[int]]:
    """Nonsingular symmetric linking matrix with entries in [-9, 9] and
    rotation numbers of the same parity as the framings."""
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
        if refs.det(m) != 0:
            break
    rot = []
    for i in range(n):
        r = rng.randint(-4, 4)
        rot.append(r if (r - m[i][i]) % 2 == 0 else r + 1)
    return m, rot


def link_obj(m, rot) -> dict:
    return {"linking": [[str(e) for e in row] for row in m],
            "rot": [str(r) for r in rot], "tb": None}


def homology_check(m, out: str) -> dict:
    torsion = [f for f in refs.invariant_factors(m) if f > 1]
    if out == "json":
        return {"type": "json", "value": {"free_rank": 0,
                                          "invariant_factors": [str(f) for f in torsion],
                                          "homology_sphere": not torsion}}
    group = " + ".join("Z/%d" % f for f in torsion) or "0"
    return {"type": "text", "value": "H1(boundary) = %s%s\n"
            % (group, "" if torsion else " (homology 3-sphere)")}


def d3_check(m, rot, out: str) -> dict:
    if out == "json":
        pos, neg, _ = refs.inertia(m)
        return {"type": "json", "value": {
            "d3": str(refs.d3(m, rot)), "c1_square": str(refs.c1_square(m, rot)),
            "chi": 1 + len(m), "sigma": pos - neg,
            "boundary_homology_sphere": abs(refs.det(m)) == 1}}
    return {"type": "text", "value": "%s\n" % refs.d3(m, rot)}


def add_homology(b: Builder, rng, n: int, group: str, out: str) -> None:
    m, rot = random_link(rng, n)
    argv = ["homology", "boundary", b.file(link_obj(m, rot))]
    if out == "json":
        argv += ["--output", "json"]
    b.cli(group, n, argv, homology_check(m, out))


def add_d3(b: Builder, rng, n: int, group: str, out: str) -> None:
    m, rot = random_link(rng, n)
    argv = ["d3", b.file(link_obj(m, rot))]
    if out == "json":
        argv += ["--output", "json"]
    b.cli(group, n, argv, d3_check(m, rot, out))


def links(rng: random.Random, work: Path) -> list[dict]:
    """Smith form times have heavy tails, so the median and the 90th
    percentile are placed inside dense blocks of d3 calls of one size,
    whose times vary little between matrices."""
    b = Builder("links", work)
    outs = ("text", "json")
    # under 2 ms each with steincheck 0.1.0: up to 7 handles
    for i, n in enumerate(stratified_ints(rng, 60, 1, 7, log=False)):
        add_homology(b, rng, n, "homology-small", outs[i % 2])
    for i, n in enumerate(stratified_ints(rng, 30, 1, 6, log=False)):
        add_d3(b, rng, n, "d3-small", outs[i % 2])
    # the median block: d3 on 9 handles, about 7 ms.  A block keeps one
    # output format, since JSON output computes the parts of d3 twice.
    for i in range(80):
        add_d3(b, rng, 9, "d3-mid", "text")
    # the knee of the Smith normal form: 10 handles, 4 ms to 0.5 s with
    # steincheck 0.1.0.  11 and 12 handles are left out: their times range
    # from 0.02 s to beyond 20 s, across any time limit.
    for i in range(16):
        add_homology(b, rng, 10, "homology-knee", outs[i % 2])
    # the 90th-percentile block: d3 on 18 handles, about 50 ms, where
    # inertia and rational_solve dominate; then two of 44 to 52 handles
    for i in range(40):
        add_d3(b, rng, 18, "d3-large", "text")
    for n in stratified_ints(rng, 2, 44, 52, jitter=0.5):
        add_d3(b, rng, n, "d3-xl", "text")
    # 14 handles: every such matrix tried ran past 12 s, three times the
    # limit.  One small size only: the memory a cut-off call reaches grows
    # with the size (+3 MB at 14 handles, +21 MB at 24, +50-70 MB at 40)
    # and with the machine's speed, and would otherwise set the peak RSS.
    add_homology(b, rng, 14, "homology-large", "text")
    add_probes(b)
    return b.finish(rng)


# ---------------------------------------------------------------------------
# forms: isomorphism, classification and v.v = c on integral forms


def form_obj(m) -> dict:
    return {"gram": [[str(e) for e in row] for row in m], "labels": None}


def add_iso(b: Builder, f, g, verdict: str, group: str, out: str) -> None:
    argv = ["form", "iso", b.file(form_obj(f)), b.file(form_obj(g))]
    if out == "json":
        argv += ["--output", "json"]
    b.cli(group, len(f), argv, {"type": "iso", "verdict": verdict, "output": out})


def indefinite_unimodular(rng: random.Random, n: int, even: bool):
    """Block sum of hyperbolic planes (even) or of +-1 with both signs (odd)."""
    m = [[0] * n for _ in range(n)]
    if even:
        for i in range(0, n, 2):
            m[i][i + 1] = m[i + 1][i] = 1
    else:
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
        rng.shuffle(signs)
        for i, s in enumerate(signs):
            m[i][i] = s
    return m


def random_symmetric(rng: random.Random, n: int, lo: int, hi: int):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def reduced_generic_form(rng: random.Random):
    """Positive definite [[a, h], [h, c]] with 0 < 2h < a < c, whose only
    automorphs are +-I."""
    a = rng.randint(3, 9)
    h = rng.randint(1, (a - 1) // 2)
    c = rng.randint(a + 1, 15)
    return [[a, h], [h, c]]


def class_table_pair(rng: random.Random):
    """Two inequivalent positive definite binary forms with the same
    determinant and parity, from the table of reduced forms."""
    while True:
        d = rng.randint(5, 120)
        classes = refs.reduced_forms(d)
        by_parity: dict[bool, list] = {}
        for a, h, c in classes:
            by_parity.setdefault(a % 2 == 0 and c % 2 == 0, []).append((a, h, c))
        options = [v for v in by_parity.values() if len(v) >= 2]
        if options:
            (a1, h1, c1), (a2, h2, c2) = rng.sample(rng.choice(options), 2)
            return [[a1, h1], [h1, c1]], [[a2, h2], [h2, c2]]


def forms(rng: random.Random, work: Path) -> list[dict]:
    """The median falls among CLI calls on small forms (a few ms each), the
    90th percentile among 40 isotropic solves with |c| near 10^10; the box
    searches lie above it."""
    b = Builder("forms", work)
    outs = ("text", "json")

    # indefinite unimodular pairs: "yes" by the classification theorem
    for i, n in enumerate(stratified_ints(rng, 30, 2, 8, log=False)):
        even = n % 2 == 0 and i % 2 == 0
        f = indefinite_unimodular(rng, n, even)
        g = refs.congruent(f, refs.random_unimodular(rng, n, 3 * n, 2))
        add_iso(b, f, g, "yes", "iso-indefinite", outs[i % 2])

    # pairs whose rank, signature, parity or determinant differ: "no"
    for i, n in enumerate(stratified_ints(rng, 30, 1, 6, log=False)):
        while True:
            f = random_symmetric(rng, n, -5, 5)
            f2 = [row[:] for row in f]
            j = rng.randrange(n)
            f2[j][j] += rng.choice((-1, 1))
            cf, cg = refs.classify(f), refs.classify(f2)
            if refs.det(f) != 0 and (refs.det(f) != refs.det(f2) or cf != cg):
                break
        g = refs.congruent(f2, refs.random_unimodular(rng, n, 2 * n, 2))
        add_iso(b, f, g, "no", "iso-invariants", outs[i % 2])

    # definite pairs (F, B^T F B): B inside the box |entries| <= 10 ...
    for i, corner in enumerate(stratified_ints(rng, 4, 0, 10.99, log=False, jitter=0.3)):
        f = reduced_generic_form(rng)
        bm = refs.unimodular_with_corner(rng, min(corner, 10), 10)
        add_iso(b, f, refs.congruent(f, bm), "yes", "iso-definite-small", outs[i % 2])
    # ... and outside it
    f = reduced_generic_form(rng)
    bm = refs.unimodular_with_corner(rng, rng.randint(12, 40), 40)
    add_iso(b, f, refs.congruent(f, bm), "yes", "iso-definite-large", "text")

    # same invariants, different classes: "no"
    for i in range(2):
        f, g = class_table_pair(rng)
        g = refs.congruent(g, refs.random_unimodular(rng, 2, 3, 1))
        add_iso(b, f, g, "no", "iso-class-table", outs[i % 2])

    # classification of random forms of rank 1..8
    for i, n in enumerate(stratified_ints(rng, 40, 1, 8, log=False)):
        m = random_symmetric(rng, n, -6, 6)
        cls = refs.classify(m)
        argv = ["form", "classify", b.file(form_obj(m))]
        if i % 2:
            check = {"type": "json", "value": cls}
            argv += ["--output", "json"]
        else:
            check = {"type": "text", "value": "rank %d, signature %d, %s, %s, %s\n" % (
                cls["rank"], cls["signature"], cls["parity"], cls["definiteness"],
                "unimodular" if cls["unimodular"] else "non-unimodular")}
        b.cli("classify", n, argv, check)

    for i, p in enumerate(stratified_ints(rng, 20, 1, 10 ** 6)):
        add_basis_restriction(b, p, outs[i % 2])

    # v.v = c on isotropic forms with large |c|: complete by divisors.  The
    # 40 of |c| near 10^10 (about 10 ms each) are the 90th-percentile block.
    sizes = stratified_ints(rng, 20, 10, 10 ** 10) + stratified_ints(
        rng, 40, 0.95e10, 1.05e10, log=False)
    for i, c in enumerate(sizes):
        e = rng.choice((1, -1, 2, -3))
        d = rng.randint(-9, 9)
        c = c * rng.choice((1, -1))
        mirrored = i % 2 == 1
        gram = [[d, e], [e, 0]] if mirrored else [[0, e], [e, d]]
        b.lib("solve-isotropic", abs(c), "solve_square", {"gram": gram, "c": c},
              {"type": "solutions",
               "value": [list(v) for v in refs.isotropic_solutions(e, d, c, mirrored)]})

    # v.v = c on definite forms: a finite set, which steincheck 0.1.0
    # enumerates only in a box
    for i in range(6):
        f = reduced_generic_form(rng)
        sign = (1, -1)[i % 2]
        gram = [[sign * x for x in row] for row in f]
        x, y = rng.randint(-30, 30), rng.randint(1, 30)
        c = gram[0][0] * x * x + 2 * gram[0][1] * x * y + gram[1][1] * y * y
        b.lib("solve-definite", abs(c), "solve_square", {"gram": gram, "c": c},
              {"type": "solutions",
               "value": [list(v) for v in refs.definite_solutions(gram, c)]})

    # class rigidity of family members (true) and of hyperbolic-plane
    # classes with a composite square (false)
    for i, p in enumerate(stratified_ints(rng, 8, 1, 10 ** 6)):
        if i % 2 == 0:
            gram = [[0, 1], [1, member_gram_d(p)]]
            s = [member_k(p), 1]
            rigid = True
        else:
            gram = [[0, 1], [1, 0]]
            s = [p % 97 + 2, 3]
            rigid = len(refs.isotropic_solutions(1, 0, 2 * s[0] * s[1], False)) == 2
        b.lib("class-rigidity", p, "class_rigidity", {"gram": gram, "s": s},
              {"type": "value", "value": rigid})

    add_probes(b)
    return b.finish(rng)


WORKLOADS = {"family": family, "links": links, "forms": forms}


def build(workload: str, seed: int, work: Path) -> list[dict]:
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng, work)

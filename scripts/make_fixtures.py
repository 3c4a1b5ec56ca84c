#!/usr/bin/env python3
"""Regenerate everything under fixtures/.

The framed-link files are inputs for the d3 / homology subcommands; the
family files are the manifold fixtures (their euler = 2 and sig = 0 are
stored values that no decision reads, and euler = 2 is not 1 + b2; see the
meta notes).  ``build()`` returns each file's text without writing
anything, so a test can compare it with the committed file; ``main()``
writes the files.
"""

import json
from pathlib import Path

from steincheck.handle import FramedLinkPresentation
from steincheck.intlin import IntMatrix
from steincheck.surgery import FIXTURE_NOTES, x_family

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def link(rows, rot, tb):
    return FramedLinkPresentation(IntMatrix.from_rows(rows), tuple(rot), tuple(tb) if tb is not None else None)


def build() -> dict[str, str]:
    """File name -> file text for every fixture, in the order main() writes them."""
    objs = {
        "empty_link.json": link([], [], []).to_json_obj(),
        "unknot_fr-2.json": link([[-2]], [0], [-1]).to_json_obj(),
        "unknot_fr-3.json": link([[-3]], [1], [-2]).to_json_obj(),
        # rank-2 Legendrian presentation whose linking matrix is the form of the
        # untransformed family member; its boundary is a homology 3-sphere
        "x_shadow_link.json": link([[0, 1], [1, -2]], [0, 0], [1, -1]).to_json_obj(),
        "x.json": x_family(0).manifold.to_json_obj(),
        "x_form.json": x_family(0).manifold.form.to_json_obj(),
        "x2_form.json": x_family(2).manifold.form.to_json_obj(),
        "x_family.json": {"meta": FIXTURE_NOTES,
                          "members": [x_family(p).to_json_obj() for p in range(0, 11)]},
    }
    return {name: json.dumps(obj, sort_keys=True, indent=2) + "\n" for name, obj in objs.items()}


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, text in build().items():
        path = FIXTURES / name
        path.write_text(text, encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()

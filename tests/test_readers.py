"""Property tests of the input readers: the integer policy, ranges, and the
form and link JSON schemas."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from steincheck.cli import _parse_range  # noqa: E402
from steincheck.handle import FramedLinkPresentation  # noqa: E402
from steincheck.intlin import IntMatrix, _parse_int  # noqa: E402
from steincheck.quadform import QuadraticForm  # noqa: E402

SETTINGS = settings(max_examples=120, deadline=None)

integer_texts = st.from_regex(r"-?[0-9]{1,60}", fullmatch=True)
near_integer_texts = st.builds(
    lambda head, junk, tail: head + junk + tail,
    st.sampled_from(["", "-", "+", "--", " "]),
    st.text(alphabet=st.sampled_from("0123456789_ +-０１٣²Ⅷ\t"), max_size=8),
    st.from_regex(r"[0-9]{0,3}", fullmatch=True),
)


@SETTINGS
@given(st.one_of(integer_texts, near_integer_texts, st.text(max_size=12)))
def test_parse_int_accepts_exactly_ascii_decimal_strings(text):
    if re.fullmatch(r"-?[0-9]+", text):
        assert _parse_int(text) == int(text)
    else:
        with pytest.raises(ValueError, match="^not a decimal integer string: "):
            _parse_int(text)


@SETTINGS
@given(st.integers(), st.integers())
def test_parse_range_round_trips(a, b):
    lo, hi = min(a, b), max(a, b)
    assert _parse_range("%d..%d" % (lo, hi)) == range(lo, hi + 1)


def symmetric_rows(draw, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-(2 ** 80), 2 ** 80))
    return rows


@st.composite
def forms(draw):
    n = draw(st.integers(0, 4))
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=n, max_size=n))
    return QuadraticForm.from_rows(symmetric_rows(draw, n), labels)


@st.composite
def links(draw):
    n = draw(st.integers(0, 4))
    vector = st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(tuple)
    return FramedLinkPresentation(
        IntMatrix.from_rows(symmetric_rows(draw, n)), draw(vector), draw(st.none() | vector)
    )


@SETTINGS
@given(forms())
def test_form_json_round_trips(form):
    assert QuadraticForm.from_json_obj(form.to_json_obj()) == form


@SETTINGS
@given(links())
def test_link_json_round_trips(link):
    assert FramedLinkPresentation.from_json_obj(link.to_json_obj()) == link


# Values json.load can return, with the schemas' keys and integer-like
# strings drawn often enough to reach the entry and shape checks.
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | integer_texts | near_integer_texts
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["gram", "labels", "linking", "rot", "tb", "x"]), inner,
                      max_size=4),
    max_leaves=20,
)
matrices = st.lists(st.lists(json_scalars, max_size=3), max_size=3)


@SETTINGS
@given(st.one_of(
    json_values,
    st.fixed_dictionaries({"gram": json_values | matrices}, optional={"labels": json_values}),
))
def test_form_reader_raises_only_value_error(obj):
    try:
        QuadraticForm.from_json_obj(obj)
    except ValueError:
        pass


@SETTINGS
@given(st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"linking": json_values | matrices, "rot": json_values | st.lists(json_scalars, max_size=3)},
        optional={"tb": json_values | st.lists(json_scalars, max_size=3)},
    ),
))
def test_link_reader_raises_only_value_error(obj):
    try:
        FramedLinkPresentation.from_json_obj(obj)
    except ValueError:
        pass

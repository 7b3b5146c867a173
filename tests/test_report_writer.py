"""The report writer produces the text of ``json.dumps(indent=2, allow_nan=False)``."""

import json

from hypothesis import given, settings, strategies as st

from wpcontent.cli import _dumps

# characters that could confuse re-indentation, plus non-ASCII text
TRICKY = st.text(st.sampled_from('{}[],:"\\\n\t abé☃ \U0001f600'), max_size=8)
KEYS = TRICKY | st.text(max_size=4)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TRICKY | st.text(max_size=4)
)
FLAT_ROWS = st.lists(st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4), max_size=5)
VALUES = st.recursive(
    SCALARS | FLAT_ROWS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)
    | st.tuples(inner, inner),
    max_leaves=24,
)


def _reference(value):
    try:
        return json.dumps(value, indent=2, allow_nan=False)
    except ValueError:
        return ValueError


def _writer(value):
    try:
        return _dumps(value)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None, database=None)
@given(VALUES)
def test_writer_matches_indented_json(value):
    assert _writer(value) == _reference(value)


@settings(max_examples=50, deadline=None, database=None)
@given(st.recursive(
    st.floats() | FLAT_ROWS | st.lists(st.dictionaries(KEYS, st.floats(), min_size=1)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=12,
))
def test_non_finite_values_are_refused_as_by_json(value):
    # NaN and infinities anywhere: both refuse, or both write the same text
    assert _writer(value) == _reference(value)


def test_empty_containers_and_rows():
    for value in ({}, [], [{}], [[]], {"a": {}}, [{"a": 1}, {}], [{"a": []}], ([], {})):
        assert _dumps(value) == json.dumps(value, indent=2)

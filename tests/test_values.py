"""Exact JSON value handling.

Expected values for parsing and printing are computed with the stdlib
`decimal` and `json` modules, which act as the independent oracle for
everything numeric here.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jsonsub.values import (
    canonical_key,
    decimal_repr,
    dump_json,
    is_number,
    json_equal,
    json_type,
    parse_json,
)


NUMERIC_TEXTS = ["0", "-0", "1", "-17", "0.1", "-2.5", "1e3", "-2.5e-2", "123.456e1"]


@pytest.mark.parametrize("text", NUMERIC_TEXTS)
def test_parse_json_numbers_are_exact_fractions(text):
    # oracle: decimal parsing of the same literal
    expected = Fraction(Decimal(text))
    got = parse_json(text)
    assert isinstance(got, Fraction)
    assert got == expected


def test_parse_json_nested_numbers_become_fractions():
    got = parse_json('{"a": [1, 2.5, true], "b": {"c": -0.125}}')
    assert got["a"][0] == Fraction(1) and isinstance(got["a"][0], Fraction)
    assert got["a"][1] == Fraction(5, 2)
    assert got["a"][2] is True
    assert got["b"]["c"] == Fraction(-1, 8)


@pytest.mark.parametrize(
    "q",
    [Fraction(0), Fraction(1), Fraction(-17), Fraction(1, 10), Fraction(-1, 8),
     Fraction(1234567, 100000), Fraction(5, 2)],
)
def test_decimal_repr_round_trips_through_decimal(q):
    text = decimal_repr(q)
    assert Fraction(Decimal(text)) == q


def test_decimal_repr_rejects_non_decimal():
    with pytest.raises(ValueError):
        decimal_repr(Fraction(1, 3))


def test_json_type_and_is_number():
    assert json_type(None) == "null"
    assert json_type(True) == "boolean"
    assert json_type(Fraction(1)) == "number"
    assert json_type(1) == "number"
    assert json_type("x") == "string"
    assert json_type([]) == "array"
    assert json_type({}) == "object"
    assert is_number(Fraction(1)) and is_number(3)
    assert not is_number(True) and not is_number("1")


def test_json_equal_separates_bool_from_number():
    assert json_equal(Fraction(1), 1)
    assert not json_equal(True, 1)
    assert not json_equal(False, 0)
    assert json_equal({"a": [Fraction(1, 2)]}, {"a": [Fraction(1, 2)]})
    assert not json_equal({"a": 1}, {"a": 2})


def test_canonical_key_hashable_and_discriminating():
    values = [None, False, True, Fraction(0), Fraction(1), "1", [1], [True],
              {"a": 1}, {"a": True}, [], {}]
    keys = [canonical_key(v) for v in values]
    for k in keys:
        hash(k)
    assert len(set(keys)) == len(values)
    assert canonical_key([1, {"b": "x"}]) == canonical_key([Fraction(1), {"b": "x"}])


def test_dump_json_exact_decimals_and_sorted_keys():
    text = dump_json({"b": Fraction(1, 10), "a": [Fraction(-5, 2), "x"]}, indent=None)
    # oracle: stdlib json sees the same structure with float payloads
    assert json.loads(text) == {"b": 0.1, "a": [-2.5, "x"]}
    assert text.index('"a"') < text.index('"b"')


def test_dump_json_rejects_non_decimal_fraction():
    with pytest.raises(ValueError):
        dump_json([Fraction(1, 3)])


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-100, 100).map(Fraction),
        st.fractions().filter(
            lambda q: set() == {p for p in (3, 7, 11) if q.denominator % p == 0}
        ).map(lambda q: Fraction(q.numerator, q.denominator)),
        st.text("abé", max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text("abc", max_size=2), inner, max_size=3),
    ),
    max_leaves=8,
)


@given(json_values)
def test_dump_parse_round_trip(v):
    try:
        text = dump_json(v)
    except ValueError:
        return  # a non-decimal fraction slipped through the filter
    assert json_equal(parse_json(text), v)


def test_parse_json_on_too_deeply_nested_text_is_a_value_error():
    # the first nests deeper than the json module reads, the second deeper
    # than the conversion to exact numbers walks
    for text in ("[" * 5000 + "]" * 5000, '{"a": ' * 600 + "0" + "}" * 600):
        with pytest.raises(ValueError, match="too deeply"):
            parse_json(text)
    assert parse_json('{"a": ' * 200 + "0.5" + "}" * 200) is not None


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_json_rejects_the_non_json_constants(constant):
    # Python's json module reads them as floats; JSON has no such numbers
    with pytest.raises(ValueError, match="not a JSON number"):
        parse_json('{"minimum": %s}' % constant)

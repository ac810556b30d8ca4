"""Draft-06 parsing.

The independent oracle is the `jsonschema` reference validator
(`_draft6.Draft6`), compared with the parsed document directly: for a
corpus of schemas, and for every loadable schema of the vendored suite,
the compiled parse of s must accept and reject exactly the values that
s itself accepts and rejects. Sample values are drawn from a fixed mixed
pool so both verdict polarities occur.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

import jsonsub
from jsonsub import compat
from jsonsub.compat import parse_schema
from jsonsub.engine import compile_validator, satisfies_value
from jsonsub.errors import MalformedSchema, UnresolvableRef, UnsupportedKeyword
from jsonsub.model import SMinimum, SMultipleOf
from jsonsub.values import _exactify, parse_json

from _draft6 import Draft6, suite

SCHEMAS = [
    True,
    False,
    {},
    {"type": "number"},
    {"type": "integer"},
    {"type": ["string", "null"]},
    {"const": 3},
    {"const": "hi"},
    {"const": True},
    {"enum": [1, "a", None]},
    {"minimum": 1, "maximum": 3},
    {"exclusiveMinimum": 0.5},
    {"multipleOf": 0.1},
    {"pattern": "^a"},
    {"minLength": 1, "maxLength": 2},
    {"properties": {"a": {"type": "number"}}, "required": ["a"]},
    {"patternProperties": {"^x": {"type": "string"}}},
    {"properties": {"a": True}, "additionalProperties": False},
    {"additionalProperties": {"type": "boolean"}},
    {"minProperties": 1, "maxProperties": 2},
    {"items": {"type": "number"}},
    {"items": [{"type": "string"}, {"type": "number"}], "additionalItems": False},
    {"items": [{"type": "string"}], "additionalItems": {"type": "null"}},
    {"contains": {"type": "number"}},
    {"minItems": 1, "maxItems": 2},
    {"uniqueItems": True},
    {"allOf": [{"type": "number"}, {"minimum": 0}]},
    {"anyOf": [{"type": "string"}, {"type": "number"}]},
    {"oneOf": [{"type": "string"}, {"minLength": 2}]},
    {"not": {"type": "number"}},
    {"not": {"uniqueItems": True}},
    {"not": {"multipleOf": 2}},
    {
        "definitions": {"leaf": {"type": "number"}},
        "properties": {"v": {"$ref": "#/definitions/leaf"}},
    },
    {
        "definitions": {
            "node": {
                "type": "object",
                "properties": {"next": {"$ref": "#/definitions/node"}},
            }
        },
        "$ref": "#/definitions/node",
    },
    {"title": "ignored", "description": "ignored", "type": "null"},
]

SAMPLES = [
    None, True, False, 0, 1, 2, 3, 0.1, 0.5, 2.5, -1,
    "", "a", "ab", "xy", "hi",
    [], [1], [1, 1], ["a", 1], [None],
    {}, {"a": 1}, {"a": "s"}, {"x": "s"}, {"a": 1, "b": 2}, {"v": 2}, {"v": "s"},
    {"next": {}}, [[1]], {"a": {"a": 1}},
]


def _exact(v):
    return parse_json(json.dumps(v))


def _plain(v):
    return json.loads(json.dumps(v), parse_float=Decimal)


def _parsed(node):
    doc = parse_schema(_exact(node))
    return compile_validator(doc.root, doc.env)


@pytest.mark.parametrize("schema", SCHEMAS, ids=[repr(s)[:48] for s in SCHEMAS])
def test_round_trip_preserves_draft6_semantics(schema):
    """Schema to term to verdicts: the parse agrees with Draft-06 on every sample."""
    holds = _parsed(schema)
    reference = Draft6(_plain(schema))
    for v in SAMPLES:
        assert holds(_exact(v)) == reference.is_valid(_plain(v)), (schema, v)


def test_every_suite_schema_round_trips():
    schemas, instances = suite()
    exact_instances = [_exactify(x) for x in instances]
    checks = 0
    disagreements = []
    for exact, reference in schemas:
        doc = parse_schema(exact)
        holds = compile_validator(doc.root, doc.env)
        for x, plain in zip(exact_instances, instances):
            if holds(x) != reference.is_valid(plain):
                disagreements.append((exact, plain))
            checks += 1
    assert checks == 94_470
    assert disagreements == [], disagreements[:10]


@pytest.mark.parametrize("node", [{"const": "a"}, {"enum": ["a", "b"]}, {"enum": ["a", 1]}])
def test_string_constants_round_trip_without_a_regex(node):
    # a string constant is not an anchored regex ^a$, which Python's re
    # would let accept "a\n"
    holds = _parsed(node)
    assert not holds("a\n")
    reference = Draft6(node)
    for x in ["a", "a\n", "b", "ax", 1, None, [], {}]:
        assert holds(_exact(x)) == reference.is_valid(x), (node, x)


def test_reference_validator_reads_dollar_as_ecma_262():
    # ECMA-262 $ matches at the end of the input only, not before a final newline
    assert not Draft6({"pattern": "^a$"}).is_valid("a\n")
    assert Draft6({"patternProperties": {"^a$": False}}).is_valid({"a\n": 1})
    assert not Draft6({"properties": {"a": {"pattern": "^a$"}}}).is_valid({"a": "a\n"})
    # a $ in a character class or escaped is a character
    assert Draft6({"pattern": "^[$]"}).is_valid("$")
    assert Draft6({"pattern": "^\\$$"}).is_valid("$")
    assert not Draft6({"pattern": "^\\$$"}).is_valid("$\n")


def test_the_serializer_is_gone():
    assert "serialize" not in jsonsub.__all__
    assert not hasattr(compat, "serialize")


def test_integer_type_accepts_whole_floats():
    # draft-06 calls 2.0 an integer; the parse goes through multipleOf 1
    schema = {"type": "integer"}
    assert satisfies_value(_exact(2.0), schema) and satisfies_value(_exact(-3), schema)
    assert not satisfies_value(_exact(2.5), schema)


def test_annotations_are_ignored():
    doc = parse_schema({"$comment": "x", "default": 3, "examples": [1], "type": "null"})
    assert doc.root == parse_schema({"type": "null"}).root


def test_unknown_keyword_is_flagged():
    with pytest.raises(UnsupportedKeyword):
        parse_schema({"propertyNames": {"pattern": "^a"}})
    with pytest.raises(UnsupportedKeyword):
        parse_schema({"dependencies": {"a": ["b"]}})


def test_the_first_unknown_keyword_is_named():
    with pytest.raises(UnsupportedKeyword) as err:
        parse_schema({"type": "object", "if": {}, "then": {}, "title": "t"})
    assert err.value.keyword == "if"


def test_each_supported_keyword_belongs_to_one_group():
    from jsonsub.compat import _GROUPS, SUPPORTED_KEYWORDS

    grouped = [kw for group, _ in _GROUPS for kw in group]
    assert len(grouped) == len(set(grouped)) == len(SUPPORTED_KEYWORDS) - 2
    assert "dependencies" not in SUPPORTED_KEYWORDS and "$ref" in SUPPORTED_KEYWORDS


def test_const_container_is_flagged():
    with pytest.raises(UnsupportedKeyword):
        parse_schema({"const": [1]})
    with pytest.raises(UnsupportedKeyword):
        parse_schema({"enum": [{"a": 1}]})


def test_draft4_boolean_exclusives_are_malformed():
    with pytest.raises(MalformedSchema):
        parse_schema({"minimum": 1, "exclusiveMinimum": True})


def test_bad_multiple_of_is_malformed():
    with pytest.raises(MalformedSchema):
        parse_schema({"multipleOf": 0})
    with pytest.raises(MalformedSchema):
        parse_schema({"multipleOf": -2})


def test_unresolvable_ref():
    with pytest.raises(UnresolvableRef):
        parse_schema({"$ref": "#/definitions/nope"})
    with pytest.raises(UnresolvableRef):
        parse_schema({"$ref": "http://example.com/schema"})


def test_pointer_escapes():
    schema = {
        "definitions": {"a/b": {"type": "null"}, "c~d": {"type": "boolean"}},
        "anyOf": [
            {"$ref": "#/definitions/a~1b"},
            {"$ref": "#/definitions/c~0d"},
        ],
    }
    assert satisfies_value(None, schema) and satisfies_value(True, schema)
    assert not satisfies_value(1, schema)


def test_ref_ignores_sibling_keywords():
    schema = {
        "definitions": {"n": {"type": "number"}},
        "$ref": "#/definitions/n",
        "type": "string",
    }
    assert satisfies_value(1, schema) and not satisfies_value("s", schema)


def test_numbers_parse_to_fractions():
    doc = parse_schema(_exact({"minimum": 0.1, "multipleOf": 0.2}))
    minimum, factor = doc.root.items
    assert minimum == SMinimum(Fraction(1, 10)) and factor == SMultipleOf(Fraction(1, 5))
    assert type(minimum.bound) is type(factor.factor) is Fraction


def test_uri_prefix_isolates_documents():
    d1 = parse_schema({"definitions": {"x": {"type": "null"}},
                       "$ref": "#/definitions/x"}, "left")
    d2 = parse_schema({"definitions": {"x": {"type": "number"}},
                       "$ref": "#/definitions/x"}, "right")
    names1 = set(d1.env.bindings)
    names2 = set(d2.env.bindings)
    assert names1.isdisjoint(names2)

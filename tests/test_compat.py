"""Draft-06 parsing and serialization.

The independent oracle is the `jsonschema` reference validator: for a
corpus of schemas, serialize(parse(s)) must accept and reject exactly
the same sample values as the original schema does under
Draft6Validator.  Sample values are drawn from a fixed mixed pool so
both verdict polarities occur.
"""

import json
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest

from jsonsub import patterns as P
from jsonsub.compat import parse_schema, serialize
from jsonsub.engine import satisfies
from jsonsub.errors import (
    MalformedSchema,
    UnresolvableRef,
    UnsupportedFeature,
    UnsupportedKeyword,
)
from jsonsub.model import Document, Env, SPattern, SPatternProps, SPatternReq, SType
from jsonsub.values import dump_json, parse_json

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


@pytest.mark.parametrize("schema", SCHEMAS, ids=[repr(s)[:48] for s in SCHEMAS])
def test_round_trip_preserves_draft6_semantics(schema):
    doc = parse_schema(_exact(schema))
    back = json.loads(dump_json(serialize(doc)))
    jsonschema.Draft6Validator.check_schema(back if isinstance(back, dict) else {})
    before = jsonschema.Draft6Validator(schema)
    after = jsonschema.Draft6Validator(back)
    for v in SAMPLES:
        assert before.is_valid(v) == after.is_valid(v), (schema, back, v)


NAME_SET_TERMS = [
    SPattern(P.p_or(P.key("a"), P.key("hi"))),
    SPattern(P.p_not(P.key("a"))),
    SPattern(P.BOTTOM),
    SPatternProps(P.p_not(P.p_or(P.key("a"), P.key("b"))), SType("number")),
    SPatternReq(P.p_not(P.key("a")), SType("string")),
    SPatternProps(P.p_not(P.regex("^a")), SType("number")),
    SPatternProps(P.p_not(P.p_or(P.key("a"), P.regex("^x"))), SType("number")),
    SPatternProps(P.p_or(P.key("a"), P.regex("^x")), SType("number")),
]


@pytest.mark.parametrize("term", NAME_SET_TERMS, ids=repr)
def test_name_sets_serialize_to_their_semantics(term):
    # no parsed schema yields a string pattern or a cofinite name set, so
    # these terms are built directly
    back = json.loads(dump_json(serialize(Document(term, Env()))))
    jsonschema.Draft6Validator.check_schema(back)
    after = jsonschema.Draft6Validator(back)
    for v in SAMPLES:
        assert after.is_valid(v) == satisfies(_exact(v), term, Env()), (back, v)


def test_a_name_set_only_normalization_builds_is_unsupported():
    term = SPatternProps(P.p_and(P.regex("^a"), P.max_len(3)), SType("number"))
    with pytest.raises(UnsupportedFeature):
        serialize(Document(term, Env()))


def test_additional_properties_are_written_back_as_parsed():
    doc = parse_schema({
        "properties": {"a": {"type": "number"}},
        "patternProperties": {"^x": {"type": "string"}},
        "additionalProperties": False,
    })
    residual = {"properties": {"a": True}, "patternProperties": {"^x": True},
                "additionalProperties": False}
    assert residual in serialize(doc)["allOf"]


def _pattern_sources(node, out: set) -> set:
    """Every pattern value and patternProperties key in a schema value."""
    if isinstance(node, dict):
        if isinstance(node.get("pattern"), str):
            out.add(node["pattern"])
        if isinstance(node.get("patternProperties"), dict):
            out.update(node["patternProperties"])
        for sub in node.values():
            _pattern_sources(sub, out)
    elif isinstance(node, list):
        for sub in node:
            _pattern_sources(sub, out)
    return out


def test_every_suite_schema_round_trips():
    schemas, instances = suite()
    checks = 0
    for exact, before in schemas:
        text = dump_json(serialize(parse_schema(exact)))
        back = json.loads(text, parse_float=Decimal)
        after = Draft6(back)
        for x in instances:
            assert before.is_valid(x) == after.is_valid(x), (exact, back, x)
            checks += 1
        # no regex is derived: each one is the input's own
        plain = json.loads(dump_json(exact))
        assert _pattern_sources(back, set()) <= _pattern_sources(plain, set()), (exact, back)
    assert checks == 94_470


@pytest.mark.parametrize("node", [{"const": "a"}, {"enum": ["a", "b"]}, {"enum": ["a", 1]}])
def test_string_constants_round_trip_without_a_regex(node):
    # an anchored regex ^a$ would let Python's re accept "a\n"
    back = Draft6(json.loads(dump_json(serialize(parse_schema(node)))))
    before = Draft6(node)
    for x in ["a", "a\n", "b", "ax", 1, None, [], {}]:
        assert back.is_valid(x) == before.is_valid(x), (node, back.schema, x)


def test_integer_type_accepts_whole_floats():
    # draft-06 calls 2.0 an integer; the parse goes through multipleOf 1
    doc = parse_schema({"type": "integer"})
    back = json.loads(dump_json(serialize(doc)))
    v = jsonschema.Draft6Validator(back)
    assert v.is_valid(2.0) and v.is_valid(-3) and not v.is_valid(2.5)


def test_annotations_are_ignored():
    doc = parse_schema({"$comment": "x", "default": 3, "examples": [1], "type": "null"})
    assert serialize(doc) == {"type": "null"}


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
    doc = parse_schema(schema)
    back = json.loads(dump_json(serialize(doc)))
    v = jsonschema.Draft6Validator(back)
    assert v.is_valid(None) and v.is_valid(True) and not v.is_valid(1)


def test_ref_ignores_sibling_keywords():
    schema = {
        "definitions": {"n": {"type": "number"}},
        "$ref": "#/definitions/n",
        "type": "string",
    }
    doc = parse_schema(schema)
    back = json.loads(dump_json(serialize(doc)))
    v = jsonschema.Draft6Validator(back)
    assert v.is_valid(1) and not v.is_valid("s")


def test_numbers_parse_to_fractions():
    doc = parse_schema(_exact({"minimum": 0.1, "multipleOf": 0.2}))
    text = dump_json(serialize(doc))
    assert "0.1" in text and "0.2" in text


def test_uri_prefix_isolates_documents():
    d1 = parse_schema({"definitions": {"x": {"type": "null"}},
                       "$ref": "#/definitions/x"}, "left")
    d2 = parse_schema({"definitions": {"x": {"type": "number"}},
                       "$ref": "#/definitions/x"}, "right")
    names1 = set(d1.env.bindings)
    names2 = set(d2.env.bindings)
    assert names1.isdisjoint(names2)

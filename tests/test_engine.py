"""Evaluator anchors, inclusion verdicts, the brute-force oracle, and errors."""

import json
import random
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest

from jsonsub.engine import (
    OracleOutcome,
    UniverseParams,
    check_equivalence,
    check_inclusion,
    derive_universe,
    iter_universe,
    load_document,
    oracle_included,
    satisfies_value,
)
from jsonsub.errors import BudgetExceeded, MalformedSchema, UniverseTooLarge
from jsonsub.model import Env
from jsonsub.values import dump_json, parse_json


def exact(node):
    return parse_json(json.dumps(node))


def sat(value_node, schema_node) -> bool:
    return satisfies_value(exact(value_node), exact(schema_node))


# ---------------------------------------------------------------------------
# evaluator anchors


CASES = [
    (None, {"minimum": 7}, True),  # numeric keywords ignore non-numbers
    (None, {"type": "null"}, True),
    (0, {"type": "integer"}, True),
    (2.0, {"type": "integer"}, True),
    (0.5, {"type": "integer"}, False),
    (0.3, {"multipleOf": 0.1}, True),
    (0.3, {"multipleOf": 0.2}, False),
    (5, {"exclusiveMinimum": 5}, False),
    (5, {"minimum": 5}, True),
    ("xbay", {"pattern": "b"}, True),  # unanchored search semantics
    ("xcay", {"pattern": "^b"}, False),
    ("ab", {"minLength": 2}, True),
    (7, {"minLength": 2}, True),
    ([1, 2, 1], {"uniqueItems": True}, False),
    ([1, 2], {"uniqueItems": True}, True),
    ([1, 2.0], {"uniqueItems": False}, True),
    ([1, 1.0], {"uniqueItems": True}, False),  # numeric equality is exact
    (2, {"oneOf": [{"type": "number"}, {"minimum": 1}]}, False),
    (0.5, {"oneOf": [{"type": "number"}, {"minimum": 1}]}, True),
    # off-type: the bound branch is vacuously true for a string
    ("a", {"oneOf": [{"type": "number"}, {"minimum": 1}]}, True),
    ({"a": 1}, {"required": ["a"]}, True),
    ({"b": 1}, {"required": ["a"]}, False),
    ([], {"required": ["a"]}, True),
    ({"a": "x"}, {"properties": {"a": {"type": "number"}}}, False),
    ({"ab": 5}, {"patternProperties": {"^a": {"type": "number"}}}, True),
    ({"ab": "x"}, {"patternProperties": {"^a": {"type": "number"}}}, False),
    ({"a": 1, "z": "s"}, {"additionalProperties": {"type": "string"}}, False),
    (
        {"a": 1, "z": "s"},
        {"properties": {"a": True}, "additionalProperties": {"type": "string"}},
        True,
    ),
    ([1, "x"], {"items": [{"type": "number"}]}, True),
    ([1, "x"], {"items": {"type": "number"}}, False),
    ([1, "x"], {"items": [{"type": "number"}], "additionalItems": {"type": "string"}}, True),
    ([1, 2], {"items": [{"type": "number"}], "additionalItems": {"type": "string"}}, False),
    ([1], {"contains": {"type": "string"}}, False),
    (["a", 1], {"contains": {"type": "string"}}, True),
    ([], {"contains": True}, False),
    (2.0, {"enum": [1, 2]}, True),
    ({}, {"minProperties": 1}, False),
    ({"a": 1}, {"maxProperties": 0}, False),
]


@pytest.mark.parametrize(
    "value,schema,want",
    CASES,
    ids=[f"{json.dumps(v)[:24]}|{json.dumps(s)[:36]}" for v, s, _ in CASES],
)
def test_satisfies_anchor(value, schema, want):
    assert sat(value, schema) is want


def test_ref_means_every_member():
    node = {
        "$ref": "#/definitions/a",
        "definitions": {"a": {"type": "object", "properties": {"x": {"minimum": 1}}}},
    }
    assert sat({"x": 2}, node)
    assert not sat({"x": 0}, node)


# ---------------------------------------------------------------------------
# inclusion verdicts on worked pairs


def test_integer_in_number():
    res = check_inclusion(exact({"type": "integer"}), exact({"type": "number"}))
    assert res.included
    assert res.stats.generation_invoked is False


def test_oneof_in_anyof():
    branches = [{"type": "string"}, {"type": "number"}]
    res = check_inclusion(exact({"oneOf": branches}), exact({"anyOf": branches}))
    assert res.included


def test_anyof_not_in_oneof_when_overlapping():
    branches = [{"pattern": "^a"}, {"pattern": "b$"}, {"type": "number"}]
    res = check_inclusion(
        exact({"type": ["string", "number"], "anyOf": branches}),
        exact({"type": ["string", "number"], "oneOf": branches}),
    )
    assert not res.included
    assert satisfies_value(res.witness, exact({"anyOf": branches}))


def test_property_distribution():
    left = {
        "type": "object",
        "properties": {"a": {"anyOf": [{"type": "number"}, {"type": "string"}]}},
    }
    right = {
        "anyOf": [
            {"type": "object", "properties": {"a": {"type": "number"}}},
            {"type": "object", "properties": {"a": {"type": "string"}}},
        ]
    }
    assert check_inclusion(exact(left), exact(right)).included


def test_bound_widening():
    res = check_inclusion(
        exact({"type": "number", "minimum": 3, "maximum": 4}),
        exact({"type": "number", "minimum": 2, "maximum": 5}),
    )
    assert res.included
    back = check_inclusion(
        exact({"type": "number", "minimum": 2, "maximum": 5}),
        exact({"type": "number", "minimum": 3, "maximum": 4}),
    )
    assert not back.included


def test_recursive_list_inclusion():
    def listy(bound):
        return {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "properties": {
                        "head": {"type": "number", "minimum": bound},
                        "tail": {"$ref": "#"},
                    },
                    "required": ["head", "tail"],
                },
            ]
        }

    res = check_inclusion(exact(listy(5)), exact(listy(3)))
    assert res.included
    back = check_inclusion(exact(listy(3)), exact(listy(5)))
    assert not back.included


def test_guarded_self_reference_reflexive():
    node = {
        "$ref": "#/definitions/tree",
        "definitions": {
            "tree": {
                "anyOf": [
                    {"type": "number"},
                    {"type": "array", "items": {"$ref": "#/definitions/tree"}, "minItems": 1},
                ]
            }
        },
    }
    assert check_inclusion(exact(node), exact(node)).included


# ---------------------------------------------------------------------------
# refuted inclusions that once answered included (or crashed); each pair
# is checked through the engine and through jsonschema's Draft-06 validator

SIX = [
    {"type": "number", "minimum": 0},
    {"type": "number", "maximum": 10},
    {"type": "number", "multipleOf": 1},
    {"type": "string", "minLength": 1},
    {"type": "string", "maxLength": 3},
    {"type": "string", "pattern": "x"},
]

REFUTED = {
    # a required field may cut a fragment whose other requirements it meets
    "cut fragment keeps requirements inside": (
        '{"maxProperties":1}',
        '{"anyOf":[{"patternProperties":{"^[ab]$":{"type":"string"}}},'
        '{"properties":{"b":{"type":"string"}}}]}',
    ),
    "c1 seed 1982055645 pair 477": (
        "true",
        '{"anyOf":[{"minProperties":2},{"patternProperties":{"^[ab]$":{"not":{"pattern":"a"}}}},'
        '{"properties":{"b":{"not":{"pattern":"b$"}}}}]}',
    ),
    "c1 seed 207 pair 4": (
        '{"oneOf": [{"maxItems": 1}, {"patternProperties": {"^[ab]$": {"type": ["string", "null"]}}},'
        ' {"patternProperties": {"^[ab]$": {"minLength": 1}}}]}',
        '{"allOf": [{"items": {"allOf": [{"enum": [2, false, "a"]}, {"enum": [0]}]}},'
        ' {"patternProperties": {"^[ab]$": {"anyOf": [{"maxLength": 0}, {"enum": [2.5]}]}}},'
        ' {"properties": {"b": {"allOf": [{"multipleOf": 2}, {"type": ["array", "null"]}]}}}]}',
    ),
    # the witness fixpoint must try the sets its own lookups normalized
    "c1 seed 1227442651 pair 527": (
        '{"allOf":[{"minProperties":2},{"properties":{"a":{"const":true},"b":{"pattern":"a"}},'
        '"required":["b"]},{"required":["a"]}]}',
        '{"allOf":[{"anyOf":[{"properties":{"b":{"not":{"maxLength":0}},"a":{"anyOf":'
        '[{"maxLength":1},{"type":["object","string"]}]}}},{"minItems":1}]},'
        '{"properties":{"a":true,"b":{"type":["array","object"]}}}]}',
    ),
    # a boolean constant is not the number Python equates it with
    "const false is not const 0": ('{"items":{"const":false}}', '{"items":{"const":0}}'),
    "const true is not const 1": ('{"items":{"const":true}}', '{"items":{"const":1}}'),
    "c1 seed 1810926946 pair 108": (
        '{"type":"array"}',
        '{"items":{"not":{"const":false}},"properties":{"b":{"not":{"const":0}}}}',
    ),
    # six requirements that two fields, or two elements, can only meet when grouped
    "six requirements over two names": (
        json.dumps({
            "type": "object",
            "patternProperties": {"^[ab]$": {}},
            "additionalProperties": False,
            "allOf": [{"not": {"patternProperties": {"^[ab]$": {"not": y}}}} for y in SIX],
        }),
        "false",
    ),
    "six containment requirements in two elements": (
        json.dumps({"type": "array", "maxItems": 2, "allOf": [{"contains": y} for y in SIX]}),
        "false",
    ),
    "six requirements in two properties": (
        json.dumps({
            "type": "object",
            "maxProperties": 2,
            "allOf": [{"not": {"properties": {}, "additionalProperties": {"not": y}}} for y in SIX],
        }),
        "false",
    ),
    # the shortest member lies past every shorter dead prefix
    "long forced prefix": ('{"type":"string","pattern":"a{20}"}', "false"),
}


@pytest.mark.parametrize("name", sorted(REFUTED))
def test_refuted_pair_has_a_checked_witness(name):
    left, right = REFUTED[name]
    res = check_inclusion(parse_json(left), parse_json(right))
    assert not res.included
    assert satisfies_value(res.witness, parse_json(left))
    assert not satisfies_value(res.witness, parse_json(right))
    plain = json.loads(dump_json(res.witness), parse_float=Decimal)
    assert draft6_valid(left, plain) and not draft6_valid(right, plain)


def draft6_valid(schema_text: str, value) -> bool:
    node = json.loads(schema_text, parse_float=Decimal)
    return jsonschema.Draft6Validator(node).is_valid(value)


# ---------------------------------------------------------------------------
# equivalence relations


def test_equivalence_relations():
    num = exact({"type": "number"})
    int_ = exact({"type": "integer"})
    str_ = exact({"type": "string"})
    mult = exact({"type": "number", "multipleOf": 1})

    assert check_equivalence(int_, mult).relation == "equivalent"
    assert check_equivalence(int_, num).relation == "right_not_in_left"
    assert check_equivalence(num, int_).relation == "left_not_in_right"
    got = check_equivalence(int_, str_)
    assert got.relation == "incomparable"
    assert got.forward.witness is not None
    assert got.backward.witness is not None


# ---------------------------------------------------------------------------
# the bounded universe and the oracle


def test_universe_prefix_and_determinism():
    params = UniverseParams()
    first = list(iter_universe(params))
    second = list(iter_universe(params))
    assert first == second
    assert first[:10] == [None, False, True, 0, 1, "", "a", "b", [], {}]
    # every non-empty container appears after all scalars
    assert all(isinstance(v, (list, dict)) for v in first[10:] if v != "")


def test_universe_depth_limit():
    params = UniverseParams(max_depth=2, max_width=2)
    for v in iter_universe(params):
        if isinstance(v, list):
            assert all(not isinstance(x, (list, dict)) or not x for x in v)


def test_universe_cap():
    params = UniverseParams(max_depth=3, max_width=3, max_count=1000)
    with pytest.raises(UniverseTooLarge):
        list(iter_universe(params))


def test_oracle_finds_null_first():
    doc = load_document(exact({"type": "null"}))
    out = oracle_included(doc.root, load_document(False).root, doc.env, UniverseParams())
    assert out == OracleOutcome(True, None)


def test_oracle_blind_on_identical():
    doc = load_document(exact({"type": "number", "minimum": 1}))
    out = oracle_included(doc.root, doc.root, doc.env, UniverseParams())
    assert out.counterexample_found is False


def test_derived_universe_carries_probes():
    doc = load_document(
        exact(
            {
                "type": ["number", "string"],
                "minimum": 3,
                "multipleOf": 2,
                "pattern": "^ab",
            }
        )
    )
    params = derive_universe([doc.root], doc.env)
    nums = set(params.numbers)
    assert {Fraction(2), Fraction(3), Fraction(4)} <= nums
    assert Fraction(1) in nums and Fraction(6) in nums
    assert any(s.startswith("ab") for s in params.strings)
    assert "" in params.strings


NUMBER_REQUIREMENTS = SIX[:3] + [{"type": "number", "minimum": 5}, {"multipleOf": 2}]
STRING_REQUIREMENTS = SIX[3:] + [{"pattern": "^a"}, {"type": "string", "maxLength": 2}]
ODD_REQUIREMENTS = [{"type": "boolean"}, {"type": "number", "minimum": 20}, {"enum": [1, "x"]}]


def requirement_heavy_pair(rng: random.Random) -> tuple[dict, object]:
    """Six or more requirements that two names, two elements or two
    properties must share, against false or a bound on every member.
    Number and string requirements are jointly satisfiable among themselves;
    an odd one may spoil that."""
    ys = rng.sample(NUMBER_REQUIREMENTS, 3) + rng.sample(STRING_REQUIREMENTS, 3)
    if rng.random() < 0.4:
        ys.append(rng.choice(ODD_REQUIREMENTS))
    rng.shuffle(ys)
    z = rng.choice(NUMBER_REQUIREMENTS + STRING_REQUIREMENTS + ODD_REQUIREMENTS)
    shape = rng.randrange(3)
    if shape == 0:
        left = {
            "type": "object",
            "patternProperties": {"^[ab]$": {}},
            "additionalProperties": False,
            "allOf": [{"not": {"patternProperties": {"^[ab]$": {"not": y}}}} for y in ys],
        }
        bound = {"patternProperties": {"^[ab]$": z}}
    elif shape == 1:
        left = {"type": "array", "maxItems": 2, "allOf": [{"contains": y} for y in ys]}
        bound = {"items": z}
    else:
        left = {
            "type": "object",
            "maxProperties": 2,
            "allOf": [{"not": {"additionalProperties": {"not": y}}} for y in ys],
        }
        bound = {"additionalProperties": z}
    return left, rng.choice([False, bound])


def test_requirement_heavy_pairs_agree_with_the_oracle():
    rng = random.Random(11)
    refuted = 0
    for _ in range(40):
        left, right = requirement_heavy_pair(rng)
        ldoc = load_document(exact(left), "left")
        rdoc = load_document(exact(right), "right")
        env = Env()
        env.bindings.update(ldoc.env.bindings)
        env.bindings.update(rdoc.env.bindings)
        # the universe must hold objects with both names the pattern admits
        universe = derive_universe([ldoc.root, rdoc.root], env, extra_keys=("a", "b"))
        oracle = oracle_included(ldoc.root, rdoc.root, env, universe)
        res = check_inclusion(exact(left), exact(right))
        assert res.included != oracle.counterexample_found, (left, right, oracle.value)
        refuted += not res.included
    assert 0 < refuted < 40


def test_grouping_search_runs_out_of_budget_loudly():
    # eight requirements for two names: the boolean needs a name of its own,
    # and the search wades through splits of the strings before finding it
    ys = [{"type": "boolean"}] + [{"type": "string", "pattern": c} for c in "cdefghij"]
    left = exact({
        "type": "object",
        "patternProperties": {"^[ab]$": {}},
        "additionalProperties": False,
        "allOf": [{"not": {"patternProperties": {"^[ab]$": {"not": y}}}} for y in ys],
    })
    with pytest.raises(BudgetExceeded) as info:
        check_inclusion(left, False, max_steps=2000)
    assert info.value.stats.generation_invoked
    res = check_inclusion(left, False)
    assert not res.included and res.stats.steps > 2000


# ---------------------------------------------------------------------------
# failure modes


def test_unguarded_cycle_rejected():
    with pytest.raises(MalformedSchema):
        check_inclusion(exact({"$ref": "#"}), exact(True))


def test_unguarded_mutual_cycle_rejected():
    node = {
        "$ref": "#/definitions/a",
        "definitions": {
            "a": {"anyOf": [{"type": "null"}, {"$ref": "#/definitions/b"}]},
            "b": {"allOf": [{"$ref": "#/definitions/a"}]},
        },
    }
    with pytest.raises(MalformedSchema):
        check_inclusion(exact(node), exact(True))


def test_budget_error_carries_partial_stats():
    left, right = (
        exact({"anyOf": [{"minimum": i} for i in range(10)]}),
        exact({"type": "string"}),
    )
    with pytest.raises(BudgetExceeded) as info:
        check_inclusion(left, right, max_steps=3)
    assert info.value.stats.steps > 0


def test_environment_not_mutated_by_checks():
    doc = load_document(
        exact(
            {
                "$ref": "#/definitions/n",
                "definitions": {
                    "n": {
                        "anyOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "properties": {"t": {"$ref": "#/definitions/n"}},
                                "required": ["t"],
                            },
                        ]
                    }
                },
            }
        )
    )
    before = dict(doc.env.bindings)
    from jsonsub.engine import check_inclusion_terms

    check_inclusion_terms(doc.root, doc.root, doc.env)
    assert doc.env.bindings == before

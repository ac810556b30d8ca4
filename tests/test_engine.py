"""Evaluator anchors, inclusion verdicts, the brute-force oracle, and errors."""

import hashlib
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from jsonsub import engine, norm
from jsonsub import patterns as P
from jsonsub.engine import (
    OracleOutcome,
    UniverseParams,
    check_equivalence,
    check_inclusion,
    check_inclusion_terms,
    compile_validator,
    derive_universe,
    iter_universe,
    load_document,
    oracle_included,
    satisfies_value,
)
from jsonsub.errors import BudgetExceeded, MalformedSchema, UniverseTooLarge, UnsupportedFeature
from jsonsub.families import rec_depth
from jsonsub.model import (
    FALSE,
    TRUE,
    CRef,
    Env,
    RefName,
    SItemsFrom,
    SMinimum,
    SPatternProps,
    SRef,
    SRefSingle,
    SType,
)
from jsonsub.values import canonical_key, dump_json, parse_json

from _draft6 import Draft6
from _family import alias_chain, gen_pair, gen_schema, universe_for


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
    # a boolean constant is never the number Python equates it with
    (False, {"const": 0}, False),
    (0, {"enum": [False]}, False),
    (1, {"enum": [True]}, False),
    (True, {"not": {"const": 1}}, True),
    (0, {"enum": [0.0]}, True),
    # divisibility is exact, for large, long and negative numbers alike
    (2**53, {"multipleOf": 1.5}, False),
    (300.0001, {"multipleOf": 0.0001}, True),
    (-0.3, {"multipleOf": 0.1}, True),
    (7, {"not": {"multipleOf": 2}}, True),
    (3, {"oneOf": [{"minimum": 1}, {"minimum": 2}, {"minimum": 3}]}, False),
]


@pytest.mark.parametrize(
    "value,schema,want",
    CASES,
    ids=[f"{json.dumps(v)[:24]}|{json.dumps(s)[:36]}" for v, s, _ in CASES],
)
def test_satisfies_anchor(value, schema, want):
    assert sat(value, schema) is want


def plain(exact_node):
    return json.loads(dump_json(exact_node, None), parse_float=Decimal)


def test_compiled_validator_agrees_with_draft6_on_family_universes():
    rng = random.Random(7)
    values = 0
    for _ in range(150):
        left, right = gen_pair(rng)
        ldoc = load_document(left, "left")
        rdoc = load_document(right, "right")
        env = Env()
        env.bindings.update(ldoc.env.bindings)
        env.bindings.update(rdoc.env.bindings)
        universe = list(iter_universe(derive_universe([ldoc.root, rdoc.root], env)))
        values += len(universe)
        for node, doc in ((left, ldoc), (right, rdoc)):
            ours = compile_validator(doc.root, env)
            reference = Draft6(plain(node))
            for value in universe:
                assert ours(value) == reference.is_valid(plain(value)), (node, value)
    assert values > 30_000


def test_oracle_compiles_each_side_once(monkeypatch):
    compiled = []

    def counting(schema, env):
        compiled.append(schema)
        return compile_validator(schema, env)

    monkeypatch.setattr(engine, "compile_validator", counting)
    doc = load_document(exact({"anyOf": [{"type": "array"}, {"minimum": 1}]}))
    universe = UniverseParams()
    assert len(list(iter_universe(universe))) == 240
    # identical sides: the oracle walks the whole universe
    out = oracle_included(doc.root, doc.root, doc.env, universe)
    assert out.counterexample_found is False
    assert len(compiled) == 2


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
# is checked through the engine and through the reference validator `_draft6.Draft6`

# three requirements: "string or endless", "number or endless", "string";
# no finite value is endless, so grouping the first two leaves a set the
# fixpoint never solves, while ["", 0] groups the first with the third
ENDLESS = {"type": "object", "required": ["n"], "properties": {"n": {"$ref": "#/definitions/e"}}}
ENDLESS_OR = [
    {"anyOf": [{"type": "string"}, {"$ref": "#/definitions/e"}]},
    {"anyOf": [{"type": "number"}, {"$ref": "#/definitions/e"}]},
    {"type": "string"},
]

UNIQUE_12 = {"type": "array", "uniqueItems": True, "items": {"enum": [1, 2]}}

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
    # a grouping blocked on a set the fixpoint never solves must not hide a
    # later grouping that works: ["", 0] and {"": "", "\u0000": 0}
    "containment grouping past an endless one": (
        json.dumps({"type": "array", "maxItems": 2, "definitions": {"e": ENDLESS},
                    "allOf": [{"contains": y} for y in ENDLESS_OR]}),
        "false",
    ),
    "field grouping past an endless one": (
        json.dumps({"type": "object", "maxProperties": 2, "definitions": {"e": ENDLESS}, "allOf": [
            {"not": {"additionalProperties": {"not": y}}} for y in ENDLESS_OR]}),
        "false",
    ),
    # a repeated pair may sit past the fixed slots: [0, "", 0]
    "tuple with a free tail repeats": (
        '{"type":"array","items":[{"type":"integer"},{"type":"string"}]}',
        '{"uniqueItems":true}',
    ),
    "repeat across a string slot": (
        '{"items":[{"type":"integer"},{"type":"string"},{"type":"integer"}],"additionalItems":false}',
        '{"uniqueItems":true}',
    ),
    # five distinct unique arrays over {1, 2}: [], [1], [2], [1,2], [2,1]
    "five unique arrays over two values": (
        json.dumps({"type": "array", "uniqueItems": True, "minItems": 5, "items": UNIQUE_12}),
        "false",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUTED))
def test_refuted_pair_has_a_checked_witness(name):
    assert_checked_witness(*REFUTED[name])


# unique arrays of objects and arrays: each element's set yields its
# members one by one, each a value of the set minus the ones before it
UNIQUE_ITEMS = {
    "plain objects": {"type": "object"},
    "objects of integers >= 3": {
        "type": "object",
        "additionalProperties": {"type": "integer", "minimum": 3},
    },
    "nonempty number arrays": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    "objects of two or three fields": {"type": "object", "minProperties": 2, "maxProperties": 3},
    "objects of strings at a and b": {
        "type": "object",
        "patternProperties": {"^[ab]$": {"type": "string"}},
        "additionalProperties": False,
        "minProperties": 1,
    },
    "unique arrays over 1, 2, 3": {"type": "array", "uniqueItems": True, "items": {"enum": [1, 2, 3]}},
}


@pytest.mark.parametrize("name", sorted(UNIQUE_ITEMS))
def test_unique_arrays_of_containers_have_checked_witnesses(name):
    for n in range(2, 10):
        left = {"type": "array", "uniqueItems": True, "minItems": n, "items": UNIQUE_ITEMS[name]}
        assert_checked_witness(json.dumps(left), "false")


# inclusions that hold because no array is long enough to repeat an
# element, two elements can never be equal, or the items run out of values
NO_ROOM = {
    "no items": ({"items": False}, {"uniqueItems": True}),
    "one item at most": ({"items": [True, False]}, {"uniqueItems": True}),
    "integer then string": (
        {"type": "array", "items": [{"type": "integer"}, {"type": "string"}],
         "additionalItems": False},
        {"uniqueItems": True},
    ),
    "six unique arrays over two values": (
        {"type": "array", "uniqueItems": True, "minItems": 6, "items": UNIQUE_12},
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(NO_ROOM))
def test_arrays_without_room_are_included(name):
    left, right = NO_ROOM[name]
    assert check_inclusion(exact(left), exact(right)).included


def test_distinct_elements_are_matched_to_positions():
    # the first slot's first member is 1, which the second slot needs
    left = {"type": "array", "items": [{"enum": [1, 2]}, {"const": 1}],
            "minItems": 2, "uniqueItems": True}
    res = check_inclusion(exact(left), False)
    assert res.witness == [2, 1]


def test_unique_arrays_exist_where_the_universe_holds_enough_values():
    # k distinct values of S in the bounded universe make a unique array of
    # exactly k items of S satisfiable
    rng = random.Random(20261018)
    checked = 0
    for _ in range(120):
        schema = exact(gen_schema(rng))
        doc = load_document(schema)
        holds = compile_validator(doc.root, doc.env)
        seen = set()
        for v in iter_universe(universe_for([doc])):
            if holds(v):
                seen.add(canonical_key(v))
                if len(seen) == 4:
                    break
        for k in range(1, len(seen) + 1):
            left = {"type": "array", "uniqueItems": True, "minItems": k, "maxItems": k,
                    "items": schema}
            res = check_inclusion(left, False)
            assert not res.included, (k, schema)
            assert satisfies_value(res.witness, left)
            checked += 1
    assert checked > 300


def assert_checked_witness(left: str, right: str) -> None:
    res = check_inclusion(parse_json(left), parse_json(right))
    assert not res.included
    assert satisfies_value(res.witness, parse_json(left))
    assert not satisfies_value(res.witness, parse_json(right))
    plain = json.loads(dump_json(res.witness), parse_float=Decimal)
    assert draft6_valid(left, plain) and not draft6_valid(right, plain)


def draft6_valid(schema_text: str, value) -> bool:
    node = json.loads(schema_text, parse_float=Decimal)
    return Draft6(node).is_valid(value)


# ---------------------------------------------------------------------------
# array operators in every order: an items range that covers a containment
# entry re-hosts it in the slots it grew

ARRAY_OPS = [
    {"contains": {"type": "string"}},
    {"contains": {"type": "null"}},
    {"items": [{"type": "number"}, {"type": "string"}]},
    {"items": [True, True], "additionalItems": {"type": "null"}},
    {"items": {"type": ["string", "null"]}},
    {"maxItems": 3},
]


def test_array_operators_agree_in_every_order_and_with_the_oracle(monkeypatch):
    rehosted = []
    relift = norm._relift

    def counting(d, pending, ctx):
        rehosted.extend(pending)
        return relift(d, pending, ctx)

    monkeypatch.setattr(norm, "_relift", counting)
    checks = 0
    for size in (2, 3):
        for ops in combinations(ARRAY_OPS, size):
            for right in (False, {"maxItems": 1}, {"contains": {"type": "number"}}):
                ldoc = load_document(exact({"allOf": list(ops)}), "left")
                rdoc = load_document(exact(right), "right")
                env = Env()
                env.bindings.update(ldoc.env.bindings)
                env.bindings.update(rdoc.env.bindings)
                universe = derive_universe([ldoc.root, rdoc.root], env, max_width=3)
                want = not oracle_included(ldoc.root, rdoc.root, env, universe).counterexample_found
                for order in permutations(ops):
                    got = check_inclusion(exact({"allOf": list(order)}), exact(right))
                    assert got.included == want, (order, right, got.witness)
                    checks += 1
    assert checks == 450
    assert rehosted


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


# one sha256 over a dump_json line per value, recorded while iter_universe
# still built every combination and dropped the ones too deep
UNIVERSE_PINS = [
    (
        UniverseParams(max_depth=2, max_width=3, keys=("a", "b", "c"), strings=("", "a", "b", "ab"),
                       numbers=(Fraction(0), Fraction(1), Fraction(2))),
        4092,
        "a340e44f77cbb80e7a29d83add21740ab9ba9a30d320f3ebc09c022cfe220960",
    ),
    (
        UniverseParams(max_depth=3, max_width=2),
        115_930,
        "172832be1c007fadf21db4581c9cd710bc8a3d19e31fe1a2f0e438201f011053",
    ),
]


@pytest.mark.parametrize("params, count, digest", UNIVERSE_PINS, ids=("depth2-width3", "depth3-width2"))
def test_universe_sequence_is_pinned(params, count, digest):
    h = hashlib.sha256()
    values = list(iter_universe(params))
    for v in values:
        h.update(dump_json(v, indent=None).encode() + b"\n")
    assert len(values) == count
    assert h.hexdigest() == digest


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


_A, _ZZ = RefName("#/a"), RefName("#zz")


@pytest.mark.parametrize(
    "left, right, env",
    [
        (SRefSingle(_A), TRUE, Env({_A: SRefSingle(_A)})),
        (FALSE, SRefSingle(_A), Env({_A: SRefSingle(_A)})),
        (SRefSingle(_ZZ), TRUE, Env()),
    ],
    ids=["cycle-left", "cycle-right", "unbound-left"],
)
def test_terms_api_checks_both_inputs(left, right, env):
    # left and not right folds to one of them here; both must still be checked
    with pytest.raises(MalformedSchema):
        check_inclusion_terms(left, right, env)


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


def test_negated_reference_checks_without_a_bound_twin():
    # the cross-check reads the caller's environment, which binds no twins
    x = RefName("#/x")
    env = Env({x: SType("string")})
    before = dict(env.bindings)
    res = check_inclusion_terms(SRefSingle(x.negate()), SType("string"), env)
    assert res.verdict == "not_included"
    assert env.bindings == before


def test_structural_arguments_naming_several_references():
    # stratification names the set, so negating the argument negates one name
    a, b = RefName("#/a"), RefName("#/b")
    env = Env({a: SType("number"), b: SMinimum(Fraction(1))})
    both = SRef(CRef((a, b)))
    for right, witness in (
        (SPatternProps(P.key("x"), both), {"x": None}),
        (SItemsFrom(0, both), [None]),
    ):
        res = check_inclusion_terms(TRUE, right, env)
        assert (res.verdict, res.witness) == ("not_included", witness)
    for right in (SPatternProps(P.key("x"), SRef(CRef())), SItemsFrom(0, SRef(CRef()))):
        assert check_inclusion_terms(TRUE, right, env).included


# ---------------------------------------------------------------------------
# loading long reference chains does not nest calls per reference


def test_load_document_on_a_deep_guarded_cycle():
    doc = load_document(exact(rec_depth(2000)[0]))
    assert len(doc.env.bindings) == 2000


def test_load_document_on_a_long_alias_chain():
    doc = load_document(exact(alias_chain(2000)))
    assert len(doc.env.bindings) == 2001


def test_satisfies_value_on_a_deep_guarded_cycle():
    left = rec_depth(500)[0]
    assert sat({"head": 0, "tail": {"head": 1, "tail": None}}, left)
    assert not sat({"head": 0, "tail": {"head": 0, "tail": None}}, left)


def test_alias_cycle_is_still_an_unguarded_cycle():
    node = alias_chain(3)
    node["definitions"]["a3"] = {"$ref": "#/definitions/a1"}
    with pytest.raises(MalformedSchema, match="unguarded reference cycle"):
        load_document(exact(node))


# ---------------------------------------------------------------------------
# checking them: the Python frames a reference level costs


def _on_fresh_stack(fn, *args):
    # a thread of its own, so the test runner's frames take no recursion depth
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def test_check_on_a_deep_guarded_cycle():
    assert _on_fresh_stack(check_inclusion, *rec_depth(115)).included


def test_an_object_with_many_required_names_costs_no_frame_per_name():
    left = {"type": "object", "required": [f"n{i}" for i in range(1200)]}
    result = _on_fresh_stack(check_inclusion, left, {"required": ["zz"]})
    assert result.verdict == "not_included" and len(result.witness) == 1200


def test_an_array_with_many_contains_obligations_costs_no_frame_per_obligation():
    # a grouping search a frame deeper per obligation would overflow the
    # stack long before this budget runs out
    left = {"type": "array", "allOf": [{"contains": {"const": i}} for i in range(1000)]}
    with pytest.raises(BudgetExceeded):
        _on_fresh_stack(lambda: check_inclusion(left, {"maxItems": 0}, max_steps=10_000))


def test_required_names_add_no_memo_entries():
    # a required name's argument is the empty set, so {name's set, X} is
    # not a memo entry of its own beside {X}: 289 entries, not 434
    assert check_inclusion(*rec_depth(48)).stats.crefs_created <= 300


def test_check_on_a_long_alias_chain():
    chain, string = alias_chain(300), {"type": "string"}
    assert _on_fresh_stack(check_inclusion, chain, string).included
    assert _on_fresh_stack(check_inclusion, string, chain).included


def test_nested_one_of_settles_without_a_walk_per_path():
    # each expanded oneOf shares its children between the branches built
    # from them; stratification walks the parser's tree before that, and
    # the width estimate is cached per term, so no pass visits a child once
    # per path; the cheapest conjunct, not the nest, leads the root fold
    s, depth = {"type": "string"}, 0
    for target in (20, 60):
        while depth < target:
            s, depth = {"oneOf": [s, {"type": "null"}]}, depth + 1
        start = time.monotonic()
        result = check_inclusion(s, {"type": ["string", "null"]}, timeout=2.0)
        assert result.included and result.stats.steps < 1_000
        assert time.monotonic() - start < 2.0


def _conflicting_requirements(k: int) -> dict:
    # an object with one of a<i>, b<i> for each i: 2^k disjuncts when its
    # allOf is folded ahead of a conjunct that refutes the check
    return {"type": "object", "allOf": [
        {"anyOf": [{"required": [f"a{i}"]}, {"required": [f"b{i}"]}]} for i in range(k)
    ]}


@pytest.mark.parametrize("right", [
    {"type": "object"},
    {"anyOf": [{"required": ["zz"]}, {"not": {"required": ["zz"]}}]},
    {"minLength": 0},
], ids=["object", "required-tautology", "min-length-zero"])
def test_an_allof_folds_its_narrowest_conjunct_first(right):
    result = check_inclusion(_conflicting_requirements(20), right, timeout=5.0)
    assert result.included and result.stats.steps < 1_000


def _spread_then_refuted(k: int) -> list:
    # k conjuncts of width 2 ahead of a wider one that refutes alone: an
    # anyOf of references to an unsatisfiable definition sorts last
    bad = {"$ref": "#/definitions/bad"}
    return [{"anyOf": [{"required": [f"a{i}"]}, {"required": [f"b{i}"]}]} for i in range(k)] + [
        {"anyOf": [bad, bad, bad]}
    ]


@pytest.mark.parametrize("left, right", [
    ({"allOf": _spread_then_refuted(20)}, False),
    ({"allOf": _spread_then_refuted(20)}, {"type": "string"}),
    ({"properties": {"p": {"allOf": _spread_then_refuted(20)}}},
     {"properties": {"p": {"type": "string"}}}),
], ids=["false", "string", "property-body"])
def test_a_wide_conjunct_that_refutes_alone_is_met_before_the_fold_spreads(left, right):
    left = {"definitions": {"bad": {"allOf": [{"type": "string"}, {"type": "null"}]}}, **left}
    result = check_inclusion(left, right, timeout=5.0)
    assert result.included and result.stats.steps < 1_000


@pytest.mark.parametrize("k", [16, 24])
def test_a_not_included_check_stops_at_its_first_root_disjunct(k):
    # every one of the 2^k disjuncts is a witness; the root is streamed,
    # so the first one ends the check
    left, right = _conflicting_requirements(k), {"required": ["a0"]}
    result = check_inclusion(left, right, timeout=10.0)
    assert result.verdict == "not_included" and result.stats.steps < 10_000
    w = result.witness
    assert Draft6(left).is_valid(w) and not Draft6(right).is_valid(w)


def test_a_root_fold_as_deep_as_the_conjuncts_costs_no_frames():
    left = {"allOf": [{"anyOf": [{"minimum": -i}, {"type": "string"}]} for i in range(3000)]}
    result = check_inclusion(left, {"maximum": -1})
    assert result.verdict == "not_included" and result.witness == 0


def test_nested_one_of_under_a_property_ends_in_the_budget():
    # stratification names the property's argument and looks its body up
    # by value; it does so before expansion, so that hash walks a tree,
    # not the shared expansion once per path
    s = {"type": "string"}
    for _ in range(22):
        s = {"oneOf": [s, {"type": "null"}]}
    left = {"properties": {"a": s}}
    right = {"properties": {"a": {"type": ["string", "null"]}}}
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        check_inclusion(left, right, timeout=0.5)
    assert time.monotonic() - start < 2.0


# ---------------------------------------------------------------------------
# each document is walked for well-formedness once, as it loads

UNGUARDED = {
    "$ref": "#/definitions/a",
    "definitions": {"a": {"anyOf": [{"$ref": "#/definitions/a"}, {"type": "null"}]}},
}


@pytest.mark.parametrize("check", [check_inclusion, check_equivalence])
@pytest.mark.parametrize("side", ["left", "right"])
def test_an_unguarded_cycle_on_either_side_is_malformed(check, side):
    pair = {"left": {"type": "string"}, "right": {"type": "string"}, side: UNGUARDED}
    with pytest.raises(MalformedSchema, match="unguarded reference cycle"):
        check(exact(pair["left"]), exact(pair["right"]))


def test_regex_digits_are_ascii_only():
    # "{٣}" is no quantifier, so the one string "a{٣}" refutes the inclusion
    result = check_inclusion({"pattern": "^a{٣}$"}, {"pattern": "^aaa$"})
    assert not result.included and result.witness == "a{٣}"
    # nor is \u1_00 an escape of U+0100: the \u without four hex digits is "u"
    result = check_inclusion({"pattern": "^\\u1_00$"}, {"pattern": "^Ā$"})
    assert not result.included and result.witness == "u1_00"


def _record_calls(monkeypatch, names) -> list[str]:
    """Wrap engine functions, as the benchmark's tracer does, and record
    the calls that go through them, in order."""
    calls: list[str] = []
    for name in names:
        def recorded(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, recorded)
    return calls


def test_well_formed_runs_once_per_document(monkeypatch):
    calls = _record_calls(monkeypatch, ["well_formed"])
    left, right = map(exact, rec_depth(8))
    check_inclusion(left, right)
    assert len(calls) == 2
    check_equivalence(left, right)
    assert len(calls) == 4
    # the terms API checks the terms it is given, once
    ldoc, rdoc = load_document(left, "l"), load_document(right, "r")
    calls.clear()
    check_inclusion_terms(ldoc.root, rdoc.root, Env({**ldoc.env.bindings, **rdoc.env.bindings}))
    assert len(calls) == 1


# the pipeline phases the benchmark's tracer wraps: each side loads, then
# the refutation of the pair is stratified while its terms are still the
# parser's trees, and only then is oneOf expanded and the result normalized
LOADS = ["load_document"] * 2
DECIDE_PHASES = ["stratify", "expand_oneof_doc", "dnf_of"]


def test_every_traced_phase_runs_on_each_check(monkeypatch):
    calls = _record_calls(monkeypatch, {*LOADS, *DECIDE_PHASES})
    left, right = map(exact, rec_depth(8))
    check_inclusion(left, right)
    assert calls == LOADS + DECIDE_PHASES
    calls.clear()
    check_equivalence(left, right)
    assert calls == LOADS + DECIDE_PHASES * 2


# ---------------------------------------------------------------------------
# nesting deeper than the stack allows is an input the checker does not
# support, never a bare RecursionError; reference chains are another matter
# (their depth is the normalizer's, see the alias chain tests above)


def _nested_not(n: int) -> dict:
    node = {"type": "string"}
    for _ in range(n):
        node = {"not": node}
    return node


def test_too_deeply_nested_schema_is_unsupported():
    string = {"type": "string"}
    with pytest.raises(UnsupportedFeature, match="too deeply"):
        check_inclusion(_nested_not(600), string)
    with pytest.raises(UnsupportedFeature, match="too deeply"):
        check_equivalence(string, _nested_not(600))
    with pytest.raises(UnsupportedFeature, match="too deeply"):
        load_document({"anyOf": [{"properties": {"a": _nested_not(600)}}]})


def test_two_hundred_nested_negations_still_decide():
    string = {"type": "string"}
    assert check_inclusion(_nested_not(200), string).included
    res = check_inclusion(_nested_not(201), string)
    assert res.verdict == "not_included" and not isinstance(res.witness, str)

"""Normalization: refutation rules, laziness, budgets, meaning preservation.

The expected outcomes here come from two independent sources: small
unsatisfiable conjunctions whose emptiness is checkable by hand, and a
brute-force sweep that replays both the original schema and its
disjunctive normal form against every value of a bounded universe.
"""

import functools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from jsonsub import canon
from jsonsub import patterns as P
from jsonsub.canon import (
    C_TRUE,
    OP_TYPE,
    CArray,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    conj_to_schema,
    conj_type,
    dnf_to_schema,
    expand_oneof_doc,
    not_push,
    stratify,
)
from jsonsub.engine import (
    check_inclusion,
    compile_validator,
    iter_universe,
    load_document,
)
from jsonsub.errors import BudgetExceeded
from jsonsub.families import make_pair, rec_depth
from jsonsub.model import (
    ALL_TYPES,
    TRUE,
    CRef,
    Document,
    Env,
    RefName,
    SAllOf,
    SContainsFrom,
    SItemAt,
    SItemsFrom,
    SMaxItems,
    SMaxProps,
    SMaximum,
    SMinItems,
    SMinProps,
    SMinimum,
    SMultipleOf,
    SNot,
    SNotMultipleOf,
    SPattern,
    SPatternProps,
    SPatternReq,
    SRefSingle,
    SRepeatedItems,
    SType,
    SUniqueItems,
    s_all_of,
    s_not,
)
from jsonsub.norm import NormContext, all_ck, all_cs, dnf_of, meet, prepare
from jsonsub.values import parse_json
from jsonsub.witness import generate

from _family import gen_pair, gen_schema, universe_for


def exact(node):
    return parse_json(json.dumps(node))


def norm_of(node, **ctx_args):
    doc = load_document(exact(node))
    doc = stratify(doc)
    doc = expand_oneof_doc(doc)
    ctx = NormContext(doc.env, **ctx_args)
    return tuple(dnf_of(doc.root, ctx)), ctx


# ---------------------------------------------------------------------------
# conjunctions the insertion rules refute outright


EMPTY = [
    {"allOf": [{"type": "string"}, {"type": "number"}]},
    {"allOf": [{"type": ["string", "array"]}, {"type": ["number", "object"]}]},
    {"allOf": [{"type": "number", "minimum": 5}, {"maximum": 3}]},
    {"allOf": [{"type": "number", "exclusiveMinimum": 3}, {"maximum": 3}]},
    {"type": "number", "multipleOf": 2, "minimum": 1, "maximum": 1},
    {"allOf": [{"type": "number", "multipleOf": 0.5}, {"not": {"multipleOf": 0.25}}]},
    {"allOf": [{"const": 1}, {"const": 2}]},
    {"allOf": [{"const": 1}, {"not": {"const": 1}}]},
    {"allOf": [{"type": "string", "pattern": "^a"}, {"pattern": "^b"}]},
    {"allOf": [{"enum": [1, 2]}, {"enum": ["a", "b"]}]},
    {"type": "array", "minItems": 2, "maxItems": 1},
    {"type": "object", "minProperties": 2, "maxProperties": 1},
    {"allOf": [True, False]},
    {"not": True},
    # a repeated pair needs two items, whichever bound comes first
    {"allOf": [{"not": {"uniqueItems": True}}, {"maxItems": 1}]},
    {"allOf": [{"maxItems": 1}, {"not": {"uniqueItems": True}}]},
]


@pytest.mark.parametrize("node", EMPTY, ids=[json.dumps(n)[:48] for n in EMPTY])
def test_refuted_without_generation(node):
    dnf, _ = norm_of(node)
    assert not dnf


SATISFIABLE = [
    {"allOf": [{"type": "number", "minimum": 3}, {"maximum": 5}]},
    {"allOf": [{"type": ["string", "number"]}, {"type": ["number", "array"]}]},
    # vacuous off type: a string meets both numeric bounds
    {"allOf": [{"minimum": 5}, {"maximum": 3}]},
    {"allOf": [{"const": 1}, {"type": "number"}]},
    {"type": "array", "minItems": 1, "maxItems": 1},
]


@pytest.mark.parametrize(
    "node", SATISFIABLE, ids=[json.dumps(n)[:48] for n in SATISFIABLE]
)
def test_satisfiable_keeps_disjuncts(node):
    dnf, _ = norm_of(node)
    assert dnf


# ---------------------------------------------------------------------------
# meaning preservation: the DNF accepts exactly what the source accepts


def test_dnf_matches_source_on_universe():
    rng = random.Random(20240501)
    for _ in range(40):
        node = gen_schema(rng)
        ref_doc = load_document(exact(node))
        params = universe_for([ref_doc])

        doc = load_document(exact(node))
        doc = stratify(doc)
        doc = expand_oneof_doc(doc)
        ctx = NormContext(doc.env)
        rebuilt = dnf_to_schema(tuple(dnf_of(doc.root, ctx)))

        want = compile_validator(ref_doc.root, ref_doc.env)
        got = compile_validator(rebuilt, doc.env)
        for value in iter_universe(params):
            assert got(value) == want(value), (node, value)


def test_the_root_stream_lists_what_all_cs_drains():
    # dnf_of streams the allOf fold that all_cs drains: the same disjuncts
    # in the same order, each side with a memo of its own
    rng = random.Random(7)
    for _ in range(1000):
        left, right = gen_pair(rng)
        docs = [load_document(left, "left"), load_document(right, "right")]
        env = Env()
        for d in docs:
            env.bindings.update(d.env.bindings)
        root = s_all_of((docs[0].root, s_not(docs[1].root)))
        doc = expand_oneof_doc(stratify(Document(root, env)))
        streamed = tuple(dnf_of(doc.root, NormContext(doc.env)))
        assert streamed == all_cs(C_TRUE, doc.root, NormContext(doc.env)), (left, right)


# ---------------------------------------------------------------------------
# meet: the intersection of two canonical conjunctions


def test_meet_is_intersection_on_universe():
    # pairs of one type, or a type set against a typed conjunction; two
    # different types meet trivially
    rng = random.Random(20261018)
    pairs = 0
    while pairs < 50:
        nodes = (gen_schema(rng), gen_schema(rng))
        ref_docs = [load_document(exact(n), f"s{i}") for i, n in enumerate(nodes)]
        values = list(iter_universe(universe_for(ref_docs)))

        env = Env()
        for d in ref_docs:
            env.bindings.update(d.env.bindings)
        roots = [expand_oneof_doc(stratify(Document(d.root, env))).root for d in ref_docs]
        ctx = NormContext(env)
        left, right = (tuple(dnf_of(r, ctx)) for r in roots)

        def accepted(schema):
            holds = compile_validator(schema, env)
            return [holds(v) for v in values]

        @functools.cache
        def alone(c):
            return accepted(conj_to_schema(c))

        for c in left:
            for m in right:
                types = {conj_type(c), conj_type(m)}
                if types == {None} or (len(types) == 2 and None not in types):
                    continue
                got = accepted(dnf_to_schema(meet(c, m, ctx)))
                for value, g, a, b in zip(values, got, alone(c), alone(m)):
                    assert g == (a and b), (nodes, c, m, value)
                pairs += 1


def test_memo_hits_build_no_schema(monkeypatch):
    def rendered(*_):
        raise AssertionError("normalization rendered a canonical form")

    monkeypatch.setattr(canon, "conj_to_schema", rendered)
    monkeypatch.setattr(canon, "dnf_to_schema", rendered)
    res = check_inclusion(*rec_depth(16))
    assert res.included and res.stats.memo_hits > 0
    rng = random.Random(7)
    for _ in range(200):
        check_inclusion(*gen_pair(rng))


# ---------------------------------------------------------------------------
# laziness: an inclusion settled by collapse never reaches generation


def test_fast_path_settles_self_inclusion():
    left, right = make_pair("selfIncl", 4, 3)
    res = check_inclusion(left, right)
    assert res.included
    assert res.stats.generation_invoked is False
    assert res.stats.fast_path_hits > 0
    assert res.stats.steps < 20_000


# a fast insertion reads as false exactly when the full one does: it stops
# at the first live outcome, and a wrong stopping rule shows up here

_BODIES = {
    RefName("#/s"): SType("string"),
    RefName("#/n"): SType("number"),
    RefName("#/t"): TRUE,
}
_ARGS = [SRefSingle(m) for name in _BODIES for m in (name, name.negate())]
_NAME_SETS = [
    P.regex("^[ab]$"),
    P.key("a"),
    P.key("c"),
    P.p_or(P.key("a"), P.key("b")),
    P.p_not(P.p_or(P.key("a"), P.key("b"))),
    P.TOP,
]


def _field_op(rng):
    op = rng.choice((SPatternReq, SPatternReq, SPatternProps))
    return op(rng.choice(_NAME_SETS), rng.choice(_ARGS))


def _object_op(rng):
    if rng.random() < 0.2:
        return rng.choice((SMaxProps, SMaxProps, SMinProps))(rng.randint(1, 3))
    return _field_op(rng)


def _seeded_object(rng, env):
    """A canonical object reached by inserting a few seeded operators."""
    ctx = NormContext(env)
    while True:
        c = CObject()
        for _ in range(rng.randint(0, 5)):
            d = all_ck(c, _object_op(rng), ctx)
            if not d:
                break
            c = rng.choice(d)
        else:
            return c


def test_fast_insertion_is_false_exactly_when_the_full_one_is():
    rng = random.Random(20261019)
    env = Env(_BODIES)
    seen: Counter = Counter()
    for _ in range(400):
        c = _seeded_object(rng, env)
        budget = c.max_props is not None
        held = sum(1 for f in c.fragments if f.reqs)
        for _ in range(3):
            k = _field_op(rng)
            fast = not all_ck(c, k, NormContext(env), fast=True)
            assert fast == (not all_ck(c, k, NormContext(env))), (c, k)
            seen[type(k).__name__, budget and held > 0, fast] += 1
        neg = SNot(SAllOf(tuple(_object_op(rng) for _ in range(rng.randint(2, 4)))))
        fast = not all_cs(c, neg, NormContext(env), fast=True)
        assert fast == (not all_cs(c, neg, NormContext(env))), (c, neg)
        seen["negated allOf", fast] += 1
    # both answers occur for both operators, on objects under a field budget
    # that already hold requirements too
    for op in ("SPatternReq", "SPatternProps"):
        for with_budget in (False, True):
            assert seen[op, with_budget, True] and seen[op, with_budget, False], seen
    assert seen["negated allOf", True] and seen["negated allOf", False], seen


def _typed_ops(rng):
    """One of every type-guarded operator, arguments stratified to one name."""
    def arg():
        return rng.choice(_ARGS)

    def n():
        return rng.randint(0, 3)

    def q():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))

    def factor():
        return Fraction(rng.randint(1, 4), rng.choice((1, 2)))

    return [
        SPatternProps(rng.choice(_NAME_SETS), arg()),
        SPatternReq(rng.choice(_NAME_SETS), arg()),
        SMinProps(n()),
        SMaxProps(n()),
        SItemAt(n(), arg()),
        SItemsFrom(n(), arg()),
        SContainsFrom(n(), arg()),
        SMinItems(n()),
        SMaxItems(n()),
        SUniqueItems(),
        SRepeatedItems(),
        SMinimum(q(), rng.random() < 0.5),
        SMaximum(q(), rng.random() < 0.5),
        SMultipleOf(factor()),
        SNotMultipleOf(factor()),
        SPattern(rng.choice(_NAME_SETS)),
    ]


def _seeded_conjs(rng, env):
    """A type set, and an object, array, number and string each reached by
    inserting a few seeded operators of its type."""
    ctx = NormContext(env)
    types = sorted(ALL_TYPES)
    out = [CTypeSet(frozenset(rng.sample(types, rng.randint(1, len(types))))),
           _seeded_object(rng, env)]
    for c in (CArray(), CNumber(), CString(P.TOP)):
        ops = [k for k in _typed_ops(rng) if OP_TYPE[type(k)] == conj_type(c)]
        for _ in range(rng.randint(0, 4)):
            d = all_ck(c, rng.choice(ops), ctx)
            if not d:
                break
            c = rng.choice(d)
        out.append(c)
    return out


def test_negated_operator_enters_as_its_type_and_dual():
    # the same disjunction as not_push's allOf of the type and the dual; a
    # fast call is false exactly when it is, but where the dual is itself a
    # conjunction (an item's), which fast_check probes one operator at a time
    rng = random.Random(20261020)
    env = Env(_BODIES)
    seen: Counter = Counter()
    for _ in range(40):
        conjs = _seeded_conjs(rng, env)
        ops = _typed_ops(rng)
        assert {type(k) for k in ops} == set(OP_TYPE)
        for c in conjs:
            for k in ops:
                got = all_cs(c, SNot(k), NormContext(env))
                assert got == all_cs(c, not_push(k), NormContext(env)), (c, k)
                fast = not all_cs(c, SNot(k), NormContext(env), fast=True)
                assert fast == (not got) or (isinstance(k, SItemAt) and not fast), (c, k)
                seen[type(c).__name__, not got] += 1
    for name in ("CTypeSet", "CObject", "CArray", "CNumber", "CString"):
        assert seen[name, True] and seen[name, False], seen


def test_stats_dict_shape():
    left, right = make_pair("selfIncl", 2, 2)
    res = check_inclusion(left, right)
    d = res.stats.as_dict()
    assert set(d) == {
        "steps",
        "fast_path_hits",
        "fast_path_misses",
        "crefs_created",
        "memo_hits",
        "max_disjuncts",
        "cs_calls",
        "gen_rounds",
        "gen_budget_hits",
        "generation_invoked",
        "elapsed",
    }
    assert d["steps"] > 0


# ---------------------------------------------------------------------------
# budgets: partial work surfaces in the exception, never a verdict


def test_step_budget_carries_stats():
    left, right = make_pair("selfIncl", 6, 4)
    with pytest.raises(BudgetExceeded) as info:
        check_inclusion(left, right, max_steps=10)
    assert info.value.stats.steps >= 10


def test_wall_clock_budget():
    left, right = make_pair("selfIncl", 6, 4)
    with pytest.raises(BudgetExceeded) as info:
        check_inclusion(left, right, timeout=0.0)
    assert "wall clock" in str(info.value)


# ---------------------------------------------------------------------------
# containment entries always land past the fixed item slots


ARRAYISH = [
    {"type": "array", "contains": {"type": "number"}},
    {
        "allOf": [
            {"type": "array", "contains": {"type": "number"}},
            {"items": [{"type": "string"}, {"type": "boolean"}]},
        ]
    },
    {
        "allOf": [
            {"type": "array", "items": [{"minimum": 1}], "minItems": 2},
            {"contains": {"type": "string"}},
            {"contains": {"type": "boolean"}},
        ]
    },
    {
        "allOf": [
            {"type": "array", "contains": {"const": 1}},
            {"items": {"type": "number"}, "maxItems": 3},
        ]
    },
]


@pytest.mark.parametrize("node", ARRAYISH, ids=[json.dumps(n)[:48] for n in ARRAYISH])
def test_contains_entries_follow_item_slots(node):
    dnf, ctx = norm_of(node)
    prepare(dnf, ctx)
    assert dnf
    seen = 0
    for conj in dnf:
        if isinstance(conj, CArray):
            seen += 1
            for index, _ in conj.contains:
                assert index >= len(conj.items)
    assert seen > 0


def test_a_range_whose_tail_clashes_re_hosts_the_entries_it_covers():
    # an array of strings that contains one, then numbers from index 2 on:
    # nothing fits past index 1, so the entry moves into the two slots
    # instead of staying past them, where no element could meet it
    s, n = RefName("#/s"), RefName("#/n")
    ctx = NormContext(Env(_BODIES))
    ca = CArray(tail=CRef((s,)), contains=((0, CRef((s,))),))
    d = all_ck(ca, SItemsFrom(2, SRefSingle(n)), ctx)
    assert d
    for conj in d:
        assert conj.max_items == 2
        assert all(index >= len(conj.items) for index, _ in conj.contains)
    prepare(d, ctx)
    assert generate(d, ctx) == [""]

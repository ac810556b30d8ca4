"""Canonicalization helpers: negation pushing, oneOf expansion,
stratification, and the conjunction-to-term mapping.

The yardstick throughout is `satisfies` over a small but mixed value
universe: each rewrite must preserve (or exactly complement) the set of
accepted values.
"""

from fractions import Fraction

import pytest

from jsonsub import patterns as P
from jsonsub.canon import (
    C_TRUE,
    CArray,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    OP_TYPE,
    conj_to_schema,
    dual,
    expand_oneof,
    expand_oneof_doc,
    not_push,
    stratify,
)
from jsonsub.engine import (
    UniverseParams,
    compile_validator,
    iter_universe,
    load_document,
    satisfies,
)
from jsonsub.model import (
    CREF_TRUE,
    Document,
    Env,
    FALSE,
    FALSE_NAME,
    FALSE_REF,
    STRUCTURAL,
    SBool,
    SAllOf,
    SAnyOf,
    SConst,
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
    SOneOf,
    SPattern,
    SPatternProps,
    SPatternReq,
    SRef,
    SRepeatedItems,
    SType,
    STypeSet,
    SUniqueItems,
    TRUE,
    s_not,
)
from jsonsub.values import json_type

UNIVERSE = list(
    iter_universe(
        UniverseParams(
            max_depth=2,
            max_width=2,
            keys=("a", "b"),
            strings=("", "a", "b", "ab"),
            numbers=(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1)),
            max_count=500_000,
        )
    )
) + [
    # nesting beyond depth 2, hand picked to keep the sweep fast
    [[Fraction(1)]],
    [["a", Fraction(1)]],
    [{"a": Fraction(1)}],
    {"a": {"b": "a"}},
    {"a": [Fraction(1), Fraction(1)]},
    [[], {}],
    [[Fraction(1)], [Fraction(1)]],
]


NUM = SType("number")
STR = SType("string")

TERMS = [
    TRUE,
    FALSE,
    SType("object"),
    STypeSet(frozenset({"number", "null"})),
    SConst(Fraction(1)),
    SConst(True),
    SAllOf((NUM, SMinimum(Fraction(0), False))),
    SAnyOf((NUM, STR)),
    SOneOf((SMinimum(Fraction(0), False), SMaximum(Fraction(1), False))),
    SNot(NUM),
    SPatternProps(P.key("a"), NUM),
    SPatternProps(P.regex("^a"), STR),
    SPatternReq(P.key("a"), NUM),
    SPatternReq(P.regex("^[ab]$"), TRUE),
    SMinProps(1),
    SMinProps(0),
    SMaxProps(1),
    SItemAt(0, NUM),
    SItemAt(1, STR),
    SItemsFrom(0, NUM),
    SItemsFrom(1, NUM),
    SContainsFrom(0, STR),
    SContainsFrom(1, STR),
    SMinItems(1),
    SMinItems(0),
    SMaxItems(1),
    SUniqueItems(),
    SRepeatedItems(),
    SMinimum(Fraction(1, 2), True),
    SMaximum(Fraction(1, 2), False),
    SMultipleOf(Fraction(1, 2)),
    SNotMultipleOf(Fraction(1, 2)),
    SPattern(P.regex("^a")),
    SPattern(P.p_not(P.key("a"))),
]


@pytest.mark.parametrize("term", TERMS, ids=[type(t).__name__ + str(i) for i, t in enumerate(TERMS)])
def test_not_push_complements_exactly(term):
    env = Env()
    pushed = not_push(term)
    for v in UNIVERSE:
        assert satisfies(v, pushed, env) == (not satisfies(v, term, env)), v


TYPED_TERMS = [t for t in TERMS if type(t) in OP_TYPE]


@pytest.mark.parametrize(
    "term", TYPED_TERMS, ids=[type(t).__name__ + str(i) for i, t in enumerate(TYPED_TERMS)]
)
def test_typed_operators_hold_off_their_type(term):
    # the table agrees with the evaluator's type guards
    env = Env()
    holds = compile_validator(term, env)
    off = [v for v in UNIVERSE if json_type(v) != OP_TYPE[type(term)]]
    assert off and all(holds(v) for v in off)


def test_not_push_involution_on_double_negation():
    env = Env()
    t = SAllOf((SType("array"), SMinItems(1)))
    once = not_push(t)
    twice = not_push(SNot(once) if not isinstance(once, SNot) else once.item)
    for v in UNIVERSE:
        assert satisfies(v, t, env) == satisfies(v, s_not(not_push(t)), env)


ONEOF_TERMS = [
    SOneOf((NUM, STR)),
    SOneOf((SMinimum(Fraction(0), False), SMaximum(Fraction(0), False))),
    SAllOf((SOneOf((NUM, SMinItems(1))), TRUE)),
    SNot(SOneOf((NUM, STR))),
]


@pytest.mark.parametrize("term", ONEOF_TERMS, ids=[str(i) for i in range(len(ONEOF_TERMS))])
def test_expand_oneof_preserves_semantics(term):
    env = Env()
    expanded = expand_oneof(term)
    assert not any(isinstance(s, SOneOf) for s in _walk(expanded))
    for v in UNIVERSE:
        assert satisfies(v, term, env) == satisfies(v, expanded, env), v


def _walk(s):
    from jsonsub.model import child_schemas

    yield s
    for c in child_schemas(s):
        yield from _walk(c)


def test_stratify_preserves_semantics_and_names_args():
    env = Env()
    root = SAllOf(
        (
            SPatternProps(P.key("a"), SAnyOf((NUM, STR))),
            SItemAt(0, SAllOf((NUM, SMinimum(Fraction(0), False)))),
            SContainsFrom(0, SNot(NUM)),
        )
    )
    doc = Document(root, env)
    before = [satisfies(v, root, env) for v in UNIVERSE]
    out = stratify(doc)
    from jsonsub.model import SRef, STRUCTURAL

    for s in _walk(out.root):
        if isinstance(s, STRUCTURAL):
            assert isinstance(s.schema, SRef), s
    after = [satisfies(v, out.root, out.env) for v in UNIVERSE]
    assert before == after


def test_stratify_shares_identical_bodies():
    env = Env()
    root = SAllOf(
        (
            SPatternProps(P.key("a"), NUM),
            SPatternProps(P.key("b"), NUM),
        )
    )
    out = stratify(Document(root, env))
    refs = [s.schema.ref for s in _walk(out.root) if isinstance(s, SPatternProps)]
    assert refs[0] == refs[1]


def test_expand_oneof_doc_rewrites_bindings():
    from jsonsub.model import RefName, SRefSingle

    env = Env()
    x = RefName("#/x", False)
    env.bind(x, SOneOf((NUM, STR)))
    doc = expand_oneof_doc(Document(SRefSingle(x), env))
    assert not any(isinstance(s, SOneOf) for s in _walk(doc.env.body(x)))
    for v in UNIVERSE:
        assert satisfies(v, doc.root, doc.env) == (
            isinstance(v, str) or (not isinstance(v, bool) and isinstance(v, (int, Fraction)))
        )


def test_rewrites_return_a_term_with_nothing_to_rewrite_as_it_is():
    from jsonsub.model import RefName, SRefSingle

    x = SRefSingle(RefName("#/x"))
    props = SPatternProps(P.key("a"), x)
    term = SAnyOf((SAllOf((NUM, props)), SNot(SItemAt(0, x)), SContainsFrom(1, x)))
    # no oneOf, and every structural argument is a single name already
    assert expand_oneof(term) is term
    for s in (term, props, NUM):
        assert expand_oneof(s) is s
        assert stratify(Document(s, Env({RefName("#/x"): NUM}))).root is s
    # a rewrite below keeps the siblings it did not touch
    mixed = SAllOf((props, SOneOf((NUM, STR))))
    assert expand_oneof(mixed).items[0] is props
    out = stratify(Document(SAllOf((props, SItemAt(0, NUM))), Env()))
    assert out.root.items[0] is props and out.root.items[1] != SItemAt(0, NUM)


# true and false structural arguments are the empty and the contradictory
# reference set, which normalization settles without a memo entry

TRUE_ARG, FALSE_ARG = SRef(CREF_TRUE), SRef(FALSE_REF)


def _stratified_args(node):
    doc = load_document(node)
    out = stratify(Document(doc.root, doc.env.copy()))
    return doc, out, [s.schema for s in _walk(out.root) if type(s) in STRUCTURAL]


def test_stratify_sends_a_true_argument_to_the_empty_set():
    _, out, _ = _stratified_args({"required": ["a"]})
    assert out.root == SPatternReq(P.key("a"), TRUE_ARG)


@pytest.mark.parametrize("node", [{"additionalProperties": False}, {"properties": {"a": False}}])
def test_stratify_sends_a_false_argument_to_the_contradictory_set(node):
    doc, out, args = _stratified_args(node)
    assert args == [FALSE_ARG]
    # the contradictory set's names resolve, so the evaluator reads it
    before, after = compile_validator(doc.root, doc.env), compile_validator(out.root, out.env)
    for v in UNIVERSE + [{"a": 1}, {"b": None}]:
        assert before(v) == after(v), v


def test_dual_swaps_the_empty_and_the_contradictory_set():
    a = P.key("a")
    assert dual(SPatternReq(a, TRUE_ARG)) == SPatternProps(a, FALSE_ARG)
    assert dual(SPatternProps(a, FALSE_ARG)) == SPatternReq(a, TRUE_ARG)
    assert dual(SItemsFrom(1, TRUE_ARG)) == SContainsFrom(1, FALSE_ARG)
    assert dual(SContainsFrom(1, FALSE_ARG)) == SItemsFrom(1, TRUE_ARG)


def test_stratify_binds_no_name_to_a_boolean_body():
    node = {
        "properties": {"a": True, "b": False, "c": {"items": [True, False]}},
        "required": ["a", "c"],
        "additionalProperties": False,
        "not": {"contains": True},
    }
    _, out, args = _stratified_args(node)
    assert TRUE_ARG in args and FALSE_ARG in args
    named = [body for name, body in out.env.bindings.items() if name.uri.startswith("#~s")]
    assert named and not any(type(body) is SBool for body in named)


def test_stratify_binds_the_contradictory_name():
    _, out, _ = _stratified_args({"required": ["a"]})
    assert out.env.body(FALSE_NAME) == FALSE


FRESH_CONJS = [
    C_TRUE,
    CTypeSet(frozenset({"string", "null"})),
    CNumber(lo=Fraction(0), hi=Fraction(1), hi_strict=True),
    CNumber(factor=Fraction(1, 2), excluded=(Fraction(2),)),
    CString(pattern=P.regex("^a")),
]


@pytest.mark.parametrize("conj", FRESH_CONJS, ids=[str(i) for i in range(len(FRESH_CONJS))])
def test_conj_to_schema_round_trips_semantics(conj):
    env = Env()
    term = conj_to_schema(conj)
    for v in UNIVERSE:
        assert satisfies(v, term, env) == _conj_holds(conj, v), (conj, v)


def _conj_holds(conj, v):
    from jsonsub.values import json_type, is_number

    if isinstance(conj, CTypeSet):
        allowed = conj.types
    elif isinstance(conj, CNumber):
        allowed = {"number"}
    else:
        allowed = {"string"}
    if json_type(v) not in allowed:
        return False
    if isinstance(conj, CNumber) and is_number(v):
        q = Fraction(v)
        if conj.lo is not None and (q < conj.lo or (q == conj.lo and conj.lo_strict)):
            return False
        if conj.hi is not None and (q > conj.hi or (q == conj.hi and conj.hi_strict)):
            return False
        if conj.factor is not None and (q / conj.factor).denominator != 1:
            return False
        if any((q / ex).denominator == 1 for ex in conj.excluded):
            return False
    if isinstance(conj, CString) and isinstance(v, str):
        if conj.pattern is not None and not P.p_matches(conj.pattern, v):
            return False
    return True

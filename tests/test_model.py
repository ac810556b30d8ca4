"""Term representation, signed references, environments, well-formedness."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from jsonsub import patterns as P
from jsonsub.canon import CArray, CNumber, CObject, Conj, Fragment, expand_oneof_doc, stratify
from jsonsub.compat import parse_schema
from jsonsub.errors import UnresolvableRef
from jsonsub.norm import NormContext, dnf_of, prepare
from jsonsub.families import rec_depth, self_incl
from jsonsub.model import (
    CREF_TRUE,
    CRef,
    Document,
    Env,
    FALSE,
    RefName,
    SAllOf,
    Schema,
    SAnyOf,
    SBool,
    SConst,
    SNot,
    SNotConst,
    SPatternProps,
    SPatternReq,
    SRef,
    SRefSingle,
    SType,
    TRUE,
    STRUCTURAL,
    child_schemas,
    cref,
    iter_refs,
    s_all_of,
    s_any_of,
    s_not,
    s_type_set,
    well_formed,
)

from _family import gen_pair


def test_ref_name_negation_is_involutive():
    x = RefName("#/a", False)
    assert x.negate().negate() == x
    assert x.negate() != x


def test_cref_union_and_clash():
    x, y = RefName("#/x", False), RefName("#/y", False)
    u = cref(x).union(cref(y))
    assert set(u.members) == {x, y}
    assert not u.has_clash
    assert cref(x, x.negate()).has_clash
    assert CREF_TRUE.union(cref(x)) == cref(x)
    assert cref(x).union(CREF_TRUE) == cref(x)
    assert CREF_TRUE.is_empty


def test_cref_sorted_members_is_deterministic():
    names = [RefName("#/b", True), RefName("#/a", False), RefName("#/b", False)]
    got = cref(*names).sorted_members()
    assert list(got) == sorted(names, key=lambda n: (n.uri, n.negated))


def test_smart_constructors_fold_units():
    t = SType("number")
    assert s_all_of([]) == TRUE
    assert s_all_of([t]) == t
    assert s_all_of([t, TRUE]) == t
    assert s_all_of([t, FALSE]) == FALSE
    assert isinstance(s_all_of([t, SAllOf((t, t))]), SAllOf)
    assert s_any_of([]) == FALSE
    assert s_any_of([t, FALSE]) == t
    assert s_any_of([t, TRUE]) == TRUE
    assert s_not(TRUE) == FALSE
    assert s_not(s_not(t)) == t
    assert s_type_set([]) == FALSE
    assert s_type_set(["number"]) == SType("number")
    assert s_type_set(["number", "string"]).names == frozenset({"number", "string"})


def test_env_body_and_copy_isolation():
    env = Env()
    x = RefName("#/x", False)
    env.bind(x, SType("null"))
    twin = env.copy()
    twin.bind(RefName("#/y", False), TRUE)
    assert RefName("#/y", False) not in env.bindings
    assert env.body(x) == SType("null")
    with pytest.raises(UnresolvableRef):
        env.body(RefName("#/missing", False))


def test_false_ref_clashes_and_is_stable():
    env = Env()
    env.bind(RefName("#/a", False), SType("null"))
    f = env.false_ref()
    assert f.has_clash
    assert env.false_ref() == f
    # the reserved pair, whatever else is bound, with both bodies readable
    assert {m.uri for m in f.members} == {"#~never"}
    assert all(env.body(m) in (FALSE, TRUE) for m in f.members)


def test_negated_name_reads_the_negation_of_its_twin():
    env = Env()
    x = RefName("#/x", False)
    env.bind(x, SType("null"))
    assert env.body(x.negate()) == s_not(SType("null"))


def test_reading_a_negated_name_adds_no_binding():
    env = Env()
    x = RefName("#/x", False)
    env.bind(x, SType("null"))
    before = dict(env.bindings)
    env.body(x.negate())
    env.cref_body(cref(x.negate()))
    assert env.bindings == before


def test_bound_negated_name_wins_over_its_twin():
    env = Env()
    x = RefName("#/x", False)
    env.bind(x, SType("null"))
    env.bind(x.negate(), SType("string"))
    assert env.body(x.negate()) == SType("string")


def test_negated_name_without_either_binding_is_unresolvable():
    env = Env()
    env.bind(RefName("#/y", False), TRUE)
    with pytest.raises(UnresolvableRef):
        env.body(RefName("#/x", True))


def test_iter_refs_guardedness():
    x = RefName("#/x", False)
    guarded = SPatternProps(P.key("a"), SRefSingle(x))
    bare = SAnyOf((SRefSingle(x), SType("null")))
    got_g = dict(iter_refs(guarded, False))
    got_b = dict(iter_refs(bare, False))
    assert got_g[x] is True
    assert got_b[x] is False


def test_well_formed_flags_unbound_refs():
    env = Env()
    doc = Document(SRefSingle(RefName("#/nowhere", False)), env)
    problems = well_formed(doc)
    assert problems and "nowhere" in problems[0]


def test_well_formed_flags_unguarded_cycles():
    env = Env()
    a, b = RefName("#/a", False), RefName("#/b", False)
    env.bind(a, SAnyOf((SRefSingle(b), SType("null"))))
    env.bind(b, SNot(SRefSingle(a)))
    doc = Document(SRefSingle(a), env)
    problems = well_formed(doc)
    assert any("unguarded reference cycle" in p for p in problems)


def test_well_formed_accepts_guarded_cycles():
    env = Env()
    a = RefName("#/a", False)
    env.bind(a, SPatternReq(P.key("next"), SRefSingle(a)))
    assert well_formed(Document(SRefSingle(a), env)) == []


def test_sref_equality_is_member_based():
    x = RefName("#/x", False)
    assert SRef(cref(x)) == SRefSingle(x)


def test_const_terms_tell_booleans_from_numbers():
    for cls in (SConst, SNotConst):
        assert cls(False) != cls(Fraction(0)) and cls(True) != cls(Fraction(1))
        assert len({cls(False), cls(Fraction(0)), cls(True), cls(Fraction(1))}) == 4
        assert cls(Fraction(1)) == cls(1) and hash(cls(Fraction(1))) == hash(cls(1))
    assert SConst(True) != SNotConst(True)


# ---------------------------------------------------------------------------
# the exact-type primitives agree with the equality-based ones they replaced


def _old_s_all_of(items):
    flat = []
    for it in items:
        if it is TRUE or it == TRUE:
            continue
        if it is FALSE or it == FALSE:
            return FALSE
        if isinstance(it, SAllOf):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return SAllOf(tuple(flat))


def _old_s_any_of(items):
    flat = []
    for it in items:
        if it == FALSE:
            continue
        if it == TRUE:
            return TRUE
        if isinstance(it, SAnyOf):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return SAnyOf(tuple(flat))


def _old_s_not(item):
    if isinstance(item, SNot):
        return item.item
    if item == TRUE:
        return FALSE
    if item == FALSE:
        return TRUE
    return SNot(item)


def _random_term(rng: random.Random, depth: int):
    roll = rng.randrange(9 if depth else 4)
    if roll == 0:
        return SBool(rng.random() < 0.5)  # fresh, not the TRUE/FALSE singletons
    if roll == 1:
        return rng.choice((TRUE, FALSE))
    if roll == 2:
        return SType(rng.choice(("null", "string", "number")))
    if roll == 3:
        return SConst(Fraction(rng.randrange(3)))
    if roll == 4:
        return SNot(SNot(_random_term(rng, depth - 1)))  # built raw, not folded
    if roll == 5:
        return SNot(_random_term(rng, depth - 1))
    if roll == 6:
        return SPatternProps(P.key("a"), _random_term(rng, depth - 1))
    kids = tuple(_random_term(rng, depth - 1) for _ in range(rng.randrange(4)))
    return (SAllOf if roll == 7 else SAnyOf)(kids)


def test_smart_constructors_agree_with_the_equality_based_ones():
    rng = random.Random(5)
    for _ in range(3000):
        items = [_random_term(rng, 3) for _ in range(rng.randrange(5))]
        for new, old in ((s_all_of, _old_s_all_of), (s_any_of, _old_s_any_of)):
            got, want = new(items), old(items)
            assert got == want and type(got) is type(want), items
            assert (got is TRUE, got is FALSE) == (want is TRUE, want is FALSE)
        for item in items:
            got, want = s_not(item), _old_s_not(item)
            assert got == want and type(got) is type(want), item
            assert (got is TRUE, got is FALSE) == (want is TRUE, want is FALSE)


def _old_iter_refs(s, guarded=False):
    if isinstance(s, SRef):
        for name in s.ref.members:
            yield (name, guarded)
        return
    under = guarded or isinstance(s, STRUCTURAL)
    for kid in child_schemas(s):
        yield from _old_iter_refs(kid, under)


def _pin_documents():
    """The documents of one seed's family pairs, before and after the
    rewrites that put references under structural operators, and of the
    benchmark families that bind references of their own."""
    mixed = {
        "definitions": {
            "a": {"anyOf": [{"$ref": "#/definitions/b"}, {"not": {"$ref": "#/definitions/b"}}]},
            "b": {"items": {"allOf": [{"$ref": "#/definitions/a"}, {"not": {"$ref": "#"}}]}},
        },
        "oneOf": [{"$ref": "#/definitions/a"}, {"properties": {"x": {"$ref": "#/definitions/b"}}}],
    }
    rng = random.Random(7)
    pairs = [gen_pair(rng) for _ in range(300)]
    pairs += [rec_depth(9), self_incl(5, 5), (mixed, mixed)]
    for left, right in pairs:
        ldoc, rdoc = parse_schema(left, "left"), parse_schema(right, "right")
        yield ldoc
        yield rdoc
        env = Env({**ldoc.env.bindings, **rdoc.env.bindings})
        yield expand_oneof_doc(stratify(Document(s_all_of((ldoc.root, s_not(rdoc.root))), env)))


def test_iter_refs_agrees_with_the_recursive_walk():
    seen: Counter = Counter()
    for doc in _pin_documents():
        for term in (doc.root, *doc.env.bindings.values()):
            got = iter_refs(term)
            assert Counter(got) == Counter(_old_iter_refs(term))
            # the same order too, which sets the order of diagnostics
            assert got == list(_old_iter_refs(term))
            seen.update(g for _, g in got)
    assert seen[True] > 500 and seen[False] > 10


def test_child_schemas_of_every_term_type():
    x = SRefSingle(RefName("#/x"))
    assert child_schemas(SAllOf((x, TRUE))) == (x, TRUE)
    assert child_schemas(SNot(x)) == (x,)
    assert child_schemas(SPatternReq(P.key("a"), x)) == (x,)
    for leaf in (x, TRUE, SType("null"), SConst(True)):
        assert child_schemas(leaf) == ()


# ---------------------------------------------------------------------------
# Terms are values: nothing assigns to a field once a term is built, which
# the classes do not enforce (a frozen dataclass pays for it on every
# construction), and RefName, PKeys, Fragment, CNumber and CArray keep the
# hash of their first use.


def _rebuilt(x):
    """x built again through its constructor from its init fields."""
    if type(x) is CRef:
        return CRef(x.members)
    if type(x) is CObject:
        return CObject(x.fragments, x.min_props, x.max_props)
    return type(x)(**{f.name: getattr(x, f.name) for f in dataclasses.fields(x) if f.init})


def _parts(x) -> tuple:
    """The values x is built from."""
    if type(x) is CRef:
        return tuple(x.members)
    if type(x) is CObject:
        return x.fragments
    if dataclasses.is_dataclass(x):
        return tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.init)
    if isinstance(x, (tuple, frozenset)):
        return tuple(x)
    return ()


def _terms_in(roots) -> list:
    """Every term, conjunction, fragment, reference set, name and pattern
    reachable from roots, each object once."""
    out, seen, stack = [], set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in (CRef, CObject) or dataclasses.is_dataclass(x):
            out.append(x)
        stack.extend(_parts(x))
    return out


def test_terms_equal_and_hash_like_their_rebuilt_copies():
    rng = random.Random(5)
    kinds: Counter = Counter()
    for _ in range(200):
        left, right = gen_pair(rng)
        ldoc, rdoc = parse_schema(left, "left"), parse_schema(right, "right")
        env = Env({**ldoc.env.bindings, **rdoc.env.bindings})
        doc = stratify(Document(s_all_of((ldoc.root, s_not(rdoc.root))), env))
        doc = expand_oneof_doc(doc)
        ctx = NormContext(doc.env)
        root = tuple(dnf_of(doc.root, ctx))
        prepare(root, ctx)
        memo = [d for d in ctx.memo.values() if isinstance(d, tuple)]
        for x in _terms_in([doc.root, *doc.env.bindings.values(), root, *ctx.memo, *memo]):
            y = _rebuilt(x)
            assert y == x and hash(y) == hash(x), x
            kinds[type(x).__name__] += 1
    for name in ("RefName", "CRef", "SRef", "SPatternProps", "PKeys", "Fragment", "CObject",
                 "CArray", "CNumber", "CString", "CTypeSet"):
        assert kinds[name] > 0, name


def test_replace_never_carries_a_cached_hash_over():
    two, four = Fraction(2), Fraction(4)
    for old, changes, fresh in (
        (CArray(min_items=1), {"min_items": 2}, CArray(min_items=2)),
        (CArray(unique=True), {"unique": None}, CArray()),
        (CNumber(lo=two), {"lo": four}, CNumber(lo=four)),
        (CNumber(factor=two), {"excluded": (four,)}, CNumber(factor=two, excluded=(four,))),
    ):
        hash(old)
        new = dataclasses.replace(old, **changes)
        assert new == fresh and hash(new) == hash(fresh)
        assert new != old


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def test_no_term_class_is_a_frozen_dataclass():
    classes = [*_subclasses(Schema), *_subclasses(Conj), *_subclasses(P.PatternExpr),
               Fragment, RefName]
    assert len(classes) > 35
    frozen = [c.__name__ for c in classes
              if dataclasses.is_dataclass(c) and c.__dataclass_params__.frozen]
    assert frozen == []

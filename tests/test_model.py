"""Term representation, signed references, environments, well-formedness."""

from fractions import Fraction

import pytest

from jsonsub import patterns as P
from jsonsub.errors import UnresolvableRef
from jsonsub.model import (
    CREF_TRUE,
    Document,
    Env,
    FALSE,
    RefName,
    SAllOf,
    SAnyOf,
    SConst,
    SNot,
    SNotConst,
    SPatternProps,
    SPatternReq,
    SRef,
    SRefSingle,
    SType,
    TRUE,
    cref,
    iter_refs,
    s_all_of,
    s_any_of,
    s_not,
    s_type_set,
    well_formed,
)


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

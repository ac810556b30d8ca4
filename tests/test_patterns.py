"""Pattern algebra over property names and string values.

The independent oracle is the stdlib `re` module under search semantics:
`p_matches(regex(src), s)` must agree with `re.search(src, s)` on every
pattern in the corpus.  Algebraic operators are then checked pointwise
against boolean combinations of those oracle verdicts, and the decision
procedures (emptiness, subset, disjointness) are validated against
bounded enumeration plus verified counterexamples.
"""

import random
import re
import time
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jsonsub import patterns as P
from jsonsub.errors import MalformedSchema, UnsupportedRegexFeature

SOURCES = [
    "^a",
    "b$",
    "a",
    "^(a|b)*$",
    "^ab?$",
    "^[ab]{2}$",
    "^a+b$",
    "[^ab]",
    "^$",
    "a.c",
    "^(ab|ba)+$",
    "^a{2,3}$",
    "^\\d+$",
    "x|^y$",
]

# every string over {a,b} up to length 4, plus separators and digits
WORDS = [
    "",
    *("".join(w) for n in range(1, 5) for w in product("ab", repeat=n)),
    "c", "abc", "a.c", "axc", "x", "y", "xy", "12", "0", "a1",
]


@pytest.mark.parametrize("src", SOURCES)
def test_regex_matches_agree_with_re_search(src):
    e = P.regex(src)
    rx = re.compile(src)
    for w in WORDS:
        assert P.p_matches(e, w) == bool(rx.search(w)), (src, w)


def test_key_and_length_primitives():
    assert P.p_matches(P.key("ab"), "ab")
    assert not P.p_matches(P.key("ab"), "aba")
    assert P.p_matches(P.min_len(2), "ab") and not P.p_matches(P.min_len(2), "a")
    assert P.p_matches(P.max_len(1), "") and not P.p_matches(P.max_len(1), "ab")


def test_length_primitives_equal_thompson_construction():
    for n in range(6):
        for e, ast in [
            (P.PMinLen(n), ("rep", ("class", P._FULL), n, None)),
            (P.PMaxLen(n), ("rep", ("class", P._FULL), 0, n)),
        ]:
            assert P.compile_pattern(e) == P._minimize(P._determinize(P._build_nfa(ast))), e


def test_length_bound_at_the_limit_compiles_fast():
    e = P.max_len(P.MAX_BOUND)
    P._DFA_CACHE.pop(e, None)
    start = time.monotonic()
    dfa = P.compile_pattern(e)
    assert time.monotonic() - start < 1.0
    assert len(dfa.rows) == P.MAX_BOUND + 2
    assert P.p_matches(e, "x" * P.MAX_BOUND) and not P.p_matches(e, "x" * (P.MAX_BOUND + 1))


def test_bounded_repetition_compiles_fast():
    e = P.regex("^a{0,4096}$")
    P._DFA_CACHE.pop(e, None)
    start = time.monotonic()
    P.compile_pattern(e)
    assert time.monotonic() - start < 1.0
    assert P.p_matches(e, "a" * 4096) and not P.p_matches(e, "a" * 4097)


def test_bounded_repetition_language():
    for a, b in (
        (P.regex("^a{1,3}$"), P.p_or(P.key("a"), P.key("aa"), P.key("aaa"))),
        (
            P.regex("^(ab|c){2,3}$"),
            P.p_or(P.regex("^(ab|c)(ab|c)$"), P.regex("^(ab|c)(ab|c)(ab|c)$")),
        ),
        (P.regex("^(a?){2,3}$"), P.p_and(P.regex("^a*$"), P.max_len(3))),
    ):
        assert P.p_subset(a, b) and P.p_subset(b, a)


def test_boolean_operators_pointwise():
    exprs = [P.regex(s) for s in SOURCES[:8]] + [P.key("ab"), P.min_len(2), P.max_len(3)]
    for e1, e2 in combinations(exprs, 2):
        both = P.p_and(e1, e2)
        either = P.p_or(e1, e2)
        diff = P.p_diff(e1, e2)
        neg = P.p_not(e1)
        for w in WORDS:
            m1, m2 = P.p_matches(e1, w), P.p_matches(e2, w)
            assert P.p_matches(both, w) == (m1 and m2)
            assert P.p_matches(either, w) == (m1 or m2)
            assert P.p_matches(diff, w) == (m1 and not m2)
            assert P.p_matches(neg, w) == (not m1)


def test_p_example_and_p_examples_match_their_pattern():
    for src in SOURCES:
        e = P.regex(src)
        got = P.p_example(e)
        if got is None:
            # claimed empty: no word in the bounded corpus may match
            assert not any(P.p_matches(e, w) for w in WORDS)
        else:
            assert P.p_matches(e, got)
            assert re.search(src, got)
        k = P.p_examples(e, 3)
        assert len(set(k)) == len(k) <= 3
        for w in k:
            assert P.p_matches(e, w)
        assert k == sorted(k, key=lambda t: (len(t), t))


def test_p_examples_exhausts_small_languages():
    assert P.p_examples(P.key("ab"), 5) == ["ab"]
    two = P.p_examples(P.regex("^[ab]$"), 5)
    assert two == ["a", "b"]


def _ab_regex(rng: random.Random, depth: int = 0) -> str:
    roll = rng.randrange(7 if depth < 3 else 3)
    if roll < 3:
        return ("a", "b", "[ab]")[roll]
    x, y = _ab_regex(rng, depth + 1), _ab_regex(rng, depth + 1)
    if roll == 3:
        return x + y
    if roll == 4:
        return f"({x}|{y})"
    if roll == 5:
        return f"({x}){rng.choice('*+?')}"
    lo = rng.randrange(3)
    return f"({x}){{{lo},{lo + rng.randrange(3)}}}"


def test_p_examples_against_enumeration():
    """The first k members of anchored patterns over the letters a and b,
    against every word up to length 7 in shortest-then-lexicographic order."""
    rng = random.Random(4)
    limit = 7
    words = ["".join(p) for n in range(limit + 1) for p in product("ab", repeat=n)]
    for _ in range(300):
        src = f"^{_ab_regex(rng)}$"
        members = [w for w in words if re.search(src, w)]
        for k in (1, 2, 5, 12):
            got = P.p_examples(P.regex(src), k)
            assert len(got) <= k, src
            assert got[: len(members)] == members[:k], (src, k)
            for w in got[len(members):]:
                assert len(w) > limit and re.search(src, w), (src, k, w)


def test_p_examples_past_a_long_prefix():
    # every shorter string is a dead end, and every code point extends one
    got = P.p_examples(P.regex("a{20}"), 3)
    assert got == ["a" * 20, "\x00" + "a" * 20, "\x01" + "a" * 20]


# the first five members, as recorded before the live states were kept on
# the automaton; fewer members are their prefixes
FIRST_FIVE = [
    (P.regex("^[ab]$"), ["a", "b"]),
    (P.regex("a+b"), ["ab", "\x00ab", "\x01ab", "\x02ab", "\x03ab"]),
    (P.regex("^(ab|c)*$"), ["", "c", "ab", "cc", "abc"]),
    (P.p_not(P.p_or(P.key(""), P.key("a"))), ["\x00", "\x01", "\x02", "\x03", "\x04"]),
    (P.p_and(P.min_len(2), P.regex("^x")), ["x\x00", "x\x01", "x\x02", "x\x03", "x\x04"]),
    (P.key("a"), ["a"]),
    (P.BOTTOM, []),
]


def test_p_examples_unchanged_with_the_live_states_kept():
    for e, first in FIRST_FIVE:
        for k in range(1, 6):
            assert P.p_examples(e, k) == first[:k], (e, k)
        # the automaton is shared through the compile cache, and so is its
        # set of live states
        assert P.compile_pattern(e).live is P.compile_pattern(e).live


def test_emptiness_decision():
    assert P.p_is_empty(P.p_and(P.key("a"), P.key("b")))
    assert P.p_is_empty(P.p_diff(P.regex("^ab$"), P.regex("^a")))
    assert not P.p_is_empty(P.p_diff(P.regex("^a"), P.regex("^ab$")))
    assert P.p_is_empty(P.BOTTOM)
    assert not P.p_is_empty(P.TOP)
    assert P.p_is_empty(P.p_and(P.key("a"), P.p_not(P.p_or(P.key("a"), P.key("b")))))
    assert not P.p_is_empty(P.p_and(P.key("a"), P.p_not(P.key("b"))))
    assert not P.p_is_empty(P.p_and(P.p_not(P.key("a")), P.p_not(P.key("b"))))
    assert P.p_is_empty(P.p_not(P.p_or(P.TOP, P.key("a"))))
    assert not P.p_is_empty(P.p_or(P.key("a"), P.key("b")))


def test_subset_and_disjoint_against_enumeration():
    key_sets = [
        P.TOP,
        P.p_not(P.key("a")),
        P.p_not(P.p_or(P.key("a"), P.key("ab"))),
        P.p_and(P.p_not(P.key("a")), P.p_not(P.key("b"))),
        P.p_or(P.key("a"), P.key("b")),
    ]
    exprs = [P.regex(s) for s in SOURCES[:8]] + [P.key("a"), P.key("ab")] + key_sets
    for e1, e2 in product(exprs, exprs):
        sub = P.p_subset(e1, e2)
        if sub:
            # sound: no bounded counterexample may exist
            for w in WORDS:
                assert not (P.p_matches(e1, w) and not P.p_matches(e2, w)), (e1, e2, w)
        else:
            # complete: the separating example is a real one
            got = P.p_example(P.p_diff(e1, e2))
            assert got is not None
            assert P.p_matches(e1, got) and not P.p_matches(e2, got)
        dis = P.p_disjoint(e1, e2)
        shared = P.p_example(P.p_and(e1, e2))
        assert dis == (shared is None)
        if shared is not None:
            assert P.p_matches(e1, shared) and P.p_matches(e2, shared)


def test_p_equiv_examples():
    for a, b in (
        (P.regex("^ab$"), P.key("ab")),
        (P.p_not(P.p_not(P.regex("^a"))), P.regex("^a")),
    ):
        assert P.p_subset(a, b) and P.p_subset(b, a)
    # a prefix anchor narrows: every "^a" match contains "a", not the converse
    assert P.p_subset(P.regex("^a"), P.regex("a"))
    assert not P.p_subset(P.regex("a"), P.regex("^a"))


def test_key_literal():
    assert P.key_literal(P.key("ab")) == "ab"
    assert P.key_literal(P.regex("^a")) is None


def test_key_set_complements_fold_into_one_node():
    a, b = P.key("a"), P.key("b")
    assert P.p_and(P.p_not(a), P.p_not(b)) == P.p_not(P.p_or(a, b))


def test_key_sets_fold_to_top_and_bottom():
    a, b = P.key("a"), P.key("b")
    assert P.p_or(a, P.p_not(a)) == P.TOP
    assert P.p_and(a, b) == P.BOTTOM


def test_key_literal_of_folded_key_sets():
    a, b = P.key("a"), P.key("b")
    assert P.key_literal(P.p_and(a, P.p_not(b))) == "a"
    assert P.key_literal(P.p_or(a, b)) is None
    assert P.key_literal(P.p_not(a)) is None


def test_many_key_names_compile_fast():
    rng = random.Random(200)
    names = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8)) for _ in range(200)]
    e = P.p_not(P.p_or(*(P.key(n) for n in names)))
    P._DFA_CACHE.pop(e, None)
    start = time.monotonic()
    P.compile_pattern(e)
    assert time.monotonic() - start < 1.0
    assert not any(P.p_matches(e, n) for n in names)
    assert P.p_matches(e, "") and P.p_matches(e, names[0] + "x")


def test_unsupported_regex_features_are_flagged():
    for bad in ["(?=a)", "(?<=a)", r"\bword", r"(a)\1", r"\p{L}"]:
        with pytest.raises(UnsupportedRegexFeature):
            P.compile_pattern(P.regex(bad))


def test_a_brace_with_non_ascii_digits_is_a_literal():
    # ECMA-262 reads ASCII digits only; str.isdigit() and int() take others
    for src, text in (("a{٣}", "a{٣}"), ("a{²}", "a{²}"), ("a{1,٣}", "a{1,٣}")):
        e = P.regex(src)
        assert P.p_matches(e, text) and not P.p_matches(e, "aaa")
    # after \0 a non-ASCII digit is a plain character, not an octal escape
    assert P.p_matches(P.regex("^\\0٣$"), "\0٣")


def test_a_hex_escape_takes_exactly_its_width_of_hex_digits():
    # without its full run of hex digits, \x or \u is the letter itself
    # (ECMA-262 Annex B), and the characters after it stay literal
    for src, text in (("^\\u1_00$", "u1_00"), ("^\\x 1$", "x 1"), ("^\\x٣٣$", "x٣٣"),
                      ("^\\u1$", "u1"), ("^\\x$", "x"), ("^\\u12$", "u12")):
        e = P.regex(src)
        assert P.p_matches(e, text), src
        assert not P.p_matches(e, text[1:]), src
    assert P.p_matches(P.regex("^\\x+1$"), "xxx1")
    e = P.regex("^\\u+123$")
    assert P.p_matches(e, "uuu123") and P.p_matches(e, "u123")
    assert not P.p_matches(e, "ģ") and not P.p_matches(e, "123")
    assert P.p_matches(P.regex("^\\u0100\\x41$"), "ĀA")


def test_annex_b_identity_escapes():
    assert P.p_matches(P.regex("^\\xg$"), "xg")
    assert P.p_matches(P.regex("^\\u12$"), "u12")
    assert P.p_matches(P.regex("^[\\xg]+$"), "gxg")
    # a character that is no ASCII letter or digit escapes itself
    for ch in ("é", "٣", "ß", "-", "/"):
        assert P.p_matches(P.regex(f"^\\{ch}$"), ch)
        assert P.p_matches(P.regex(f"^[\\{ch}]$"), ch)
    # an ASCII letter with no escape meaning is still an error
    for bad in ("\\q", "\\e", "\\A", "[\\q]"):
        with pytest.raises(MalformedSchema, match="unknown escape"):
            P.regex(bad)


def test_a_repetition_bound_of_thousands_of_digits_is_a_typed_error():
    with pytest.raises(UnsupportedRegexFeature, match="supported limit"):
        P.regex("a{" + "9" * 5000 + "}")
    assert P.p_matches(P.regex("^a{" + "0" * 5000 + "2}$"), "aa")


pattern_exprs = st.recursive(
    st.one_of(
        st.sampled_from([P.regex(s) for s in SOURCES[:8]]),
        st.sampled_from([P.key("a"), P.key("b"), P.key("ab")]),
        st.sampled_from([P.p_or(P.key("a"), P.key("ab")), P.p_not(P.key("b")),
                         P.p_not(P.p_or(P.key("a"), P.key("b")))]),
        st.integers(0, 3).map(P.min_len),
        st.integers(0, 3).map(P.max_len),
    ),
    lambda inner: st.one_of(
        inner.map(P.p_not),
        st.tuples(inner, inner).map(lambda t: P.p_and(*t)),
        st.tuples(inner, inner).map(lambda t: P.p_or(*t)),
    ),
    max_leaves=5,
)


@given(pattern_exprs, st.sampled_from(WORDS))
def test_algebra_agrees_with_structural_evaluation(e, w):
    def ref(node, s):
        if isinstance(node, P.PRegex):
            return P.p_matches(node, s)
        if isinstance(node, P.PKeys):
            return (s in node.names) != node.cofinite
        if isinstance(node, P.PMinLen):
            return len(s) >= node.bound
        if isinstance(node, P.PMaxLen):
            return len(s) <= node.bound
        if isinstance(node, P.PNot):
            return not ref(node.item, s)
        if isinstance(node, P.PAll):
            return all(ref(i, s) for i in node.items)
        if isinstance(node, P.PAny):
            return any(ref(i, s) for i in node.items)
        raise AssertionError(node)

    assert P.p_matches(e, w) == ref(e, w)


@given(pattern_exprs)
def test_example_respects_emptiness(e):
    got = P.p_example(e)
    if got is None:
        assert P.p_is_empty(e)
    else:
        assert P.p_matches(e, got)
        assert not P.p_is_empty(e)


@given(pattern_exprs, pattern_exprs)
def test_relations_agree_with_emptiness(a, b):
    # the relations take shortcuts through key sets; emptiness takes none
    assert P.p_subset(a, b) == P.p_is_empty(P.p_diff(a, b))
    assert P.p_disjoint(a, b) == P.p_is_empty(P.p_and(a, b))

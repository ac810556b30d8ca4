"""Inclusion and equivalence checks for Draft-06 schema documents.

The has-a-counterexample question "is every instance of the left schema
also an instance of the right one" is answered in two phases.  First the
conjunction of the left schema with the negated right schema is driven
through the lazy DNF normalizer, which streams the root's disjuncts; an
empty stream is already a proof of inclusion.  Each disjunct is handed to
the witness generator as it arrives, for a first try against the sets
solved so far (only the empty set, at first), and the first value ends
the check.  When no disjunct yields one, they are all prepared, and the
same generator either produces a counterexample in later rounds or
certifies, by fixpoint, that none exists.  Every counterexample is re-checked against the original terms with
the plain semantic evaluator before it is reported.
Each document is checked for well-formedness once, as it loads
(`load_document`); a check on raw documents does not walk them again,
while the `*_terms` entry points check the terms they are given.

The module also hosts that evaluator and a brute-force oracle
(`oracle_included`) that enumerates a bounded value universe in a
deterministic size-ascending order.  `compile_validator` walks a schema
term once into a predicate on values; the oracle compiles each side once
and runs the predicates over the universe, and `satisfies` compiles for a
single value.  The evaluator reads `Schema` terms, never canonical forms,
so the oracle shares nothing with the normalizer beyond the term types,
which is what makes it useful as an independent cross-check in tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from . import patterns as P
from .canon import Conj, expand_oneof_doc, stratify
from .compat import parse_schema
from .errors import MalformedSchema, UniverseTooLarge
from .model import (
    Document,
    Env,
    RefName,
    SAllOf,
    SAnyOf,
    SBool,
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
    SNotConst,
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
    Schema,
    child_schemas,
    s_all_of,
    s_not,
    well_formed,
)
from .norm import DEFAULT_MAX_STEPS, DEFAULT_TIMEOUT, NormContext, Stats, dnf_of, prepare
from .values import canonical_key, is_number
from .witness import UNSAT, Generator, generate

__all__ = [
    "InclusionResult",
    "EquivalenceResult",
    "OracleOutcome",
    "UniverseParams",
    "check_equivalence",
    "check_equivalence_terms",
    "check_inclusion",
    "check_inclusion_terms",
    "compile_validator",
    "derive_universe",
    "iter_universe",
    "load_document",
    "oracle_included",
    "satisfies",
    "satisfies_value",
]


def load_document(node: Any, uri_prefix: str = "") -> Document:
    """Parse a raw schema value and insist on well-formedness."""
    doc = parse_schema(node, uri_prefix)
    problems = well_formed(doc)
    if problems:
        raise MalformedSchema("; ".join(problems))
    return doc


# ---------------------------------------------------------------------------
# semantic evaluator


def satisfies(value: Any, schema: Schema, env: Env) -> bool:
    """Decide whether a JSON value is an instance of a schema term.

    Compiles the term for this one value; a caller testing many values
    against one term should compile it once with `compile_validator`.
    """
    return compile_validator(schema, env)(value)


def satisfies_value(value: Any, schema_node: Any) -> bool:
    doc = load_document(schema_node)
    return satisfies(value, doc.root, doc.env)


def _always(j: Any) -> bool:
    return True


def _never(j: Any) -> bool:
    return False


def _all_of(fs: tuple) -> Callable[[Any], bool]:
    def all_of(j):
        for f in fs:
            if not f(j):
                return False
        return True

    return all_of


def _repeats(items: list) -> bool:
    keys = [canonical_key(v) for v in items]
    return len(set(keys)) < len(keys)


# the JSON type of a value by its exact Python type: no ABC instance check
# for Fraction on every non-number, and booleans are not numbers
_JSON_TYPE = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    Fraction: "number",
    str: "string",
    list: "array",
    dict: "object",
}
_NUMBER = frozenset((int, Fraction))


def compile_validator(schema: Schema, env: Env) -> Callable[[Any], bool]:
    """Compile a schema term into a predicate on JSON values.

    The term is walked once into nested closures.  Operators that inspect
    a single type are vacuously true on values of any other type,
    mirroring the draft keywords they came from.  Constants, pattern
    automata and the numerator and denominator of every factor are bound
    here, not per value.  A reference body is compiled on its first use
    and shared through a table local to this call, so reference cycles
    compile once and unreachable bindings not at all; evaluation
    terminates because every cycle is guarded by a structural operator,
    which steps into a strictly smaller value.  Neither the environment
    nor the value is touched.  Values are read by their exact Python
    types, as `parse_json` builds them: numbers are `int` or `Fraction`.
    """
    bodies: dict[RefName, Callable[[Any], bool]] = {}

    def ref(name: RefName) -> Callable[[Any], bool]:
        def check(j):
            f = bodies.get(name)
            if f is None:
                f = bodies[name] = comp(env.body(name))
            return f(j)

        return check

    def comp(s: Schema) -> Callable[[Any], bool]:
        t = type(s)
        if t is SBool:
            return _always if s.value else _never
        if t in (SType, STypeSet):
            names = frozenset((s.name,)) if t is SType else s.names
            return lambda j: _JSON_TYPE.get(type(j)) in names
        if t in (SConst, SNotConst):
            # the payload is a boolean or an exact number (see SConst)
            v, want = s.value, t is SConst
            if isinstance(v, bool):
                return lambda j: (j is v) is want
            return lambda j: (type(j) in _NUMBER and j == v) is want
        if t is SRef:
            fs = tuple(map(ref, s.ref.sorted_members()))
            return fs[0] if len(fs) == 1 else _all_of(fs)
        if t is SAllOf:
            return _all_of(tuple(map(comp, s.items)))
        if t is SAnyOf:
            fs = tuple(map(comp, s.items))

            def any_of(j):
                for f in fs:
                    if f(j):
                        return True
                return False

            return any_of
        if t is SOneOf:
            fs = tuple(map(comp, s.items))

            def one_of(j):
                found = False
                for f in fs:
                    if f(j):
                        if found:
                            return False
                        found = True
                return found

            return one_of
        if t is SNot:
            f = comp(s.item)
            return lambda j: not f(j)
        if t in (SPatternProps, SPatternReq):
            accepts = P.compile_pattern(s.pattern).accepts
            f = comp(s.schema)
            if t is SPatternProps:
                return lambda j: type(j) is not dict or all(
                    f(v) for k, v in j.items() if accepts(k)
                )
            return lambda j: type(j) is not dict or any(
                accepts(k) and f(v) for k, v in j.items()
            )
        if t is SPattern:
            accepts = P.compile_pattern(s.pattern).accepts
            return lambda j: type(j) is not str or accepts(j)
        if t is SItemAt:
            i, f = s.index, comp(s.schema)
            return lambda j: type(j) is not list or len(j) <= i or f(j[i])
        if t is SItemsFrom:
            i, f = s.index, comp(s.schema)
            return lambda j: type(j) is not list or all(f(v) for v in j[i:])
        if t is SContainsFrom:
            i, f = s.index, comp(s.schema)
            return lambda j: type(j) is not list or any(f(v) for v in j[i:])
        if t is SMinProps:
            b = s.bound
            return lambda j: type(j) is not dict or len(j) >= b
        if t is SMaxProps:
            b = s.bound
            return lambda j: type(j) is not dict or len(j) <= b
        if t is SMinItems:
            b = s.bound
            return lambda j: type(j) is not list or len(j) >= b
        if t is SMaxItems:
            b = s.bound
            return lambda j: type(j) is not list or len(j) <= b
        if t is SUniqueItems:
            return lambda j: type(j) is not list or not _repeats(j)
        if t is SRepeatedItems:
            return lambda j: type(j) is not list or _repeats(j)
        if t is SMinimum:
            b = s.bound
            if s.exclusive:
                return lambda j: type(j) not in _NUMBER or j > b
            return lambda j: type(j) not in _NUMBER or j >= b
        if t is SMaximum:
            b = s.bound
            if s.exclusive:
                return lambda j: type(j) not in _NUMBER or j < b
            return lambda j: type(j) not in _NUMBER or j <= b
        if t in (SMultipleOf, SNotMultipleOf):
            # j / (n/d) is an integer iff j's denominator times n divides
            # j's numerator times d
            n, d = s.factor.numerator, s.factor.denominator
            want = t is SMultipleOf
            return lambda j: type(j) not in _NUMBER or (
                j.numerator * d % (j.denominator * n) == 0
            ) is want
        raise TypeError(f"not a schema term: {s!r}")

    return comp(schema)


# ---------------------------------------------------------------------------
# inclusion / equivalence


@dataclass
class InclusionResult:
    included: bool
    witness: Any
    stats: Stats

    @property
    def verdict(self) -> str:
        return "included" if self.included else "not_included"


@dataclass
class EquivalenceResult:
    relation: str  # equivalent | left_not_in_right | right_not_in_left | incomparable
    forward: InclusionResult
    backward: InclusionResult


def check_inclusion_terms(
    s1: Schema,
    s2: Schema,
    env: Env,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    timeout: float = DEFAULT_TIMEOUT,
) -> InclusionResult:
    """Decide s1 <: s2 against a shared environment.

    The caller's environment is never mutated; the refutation pipeline
    works on a copy.  A returned witness has already been validated: it
    satisfies s1 and violates s2 under `satisfies`.  The terms should be
    trees: `well_formed` and `stratify` walk a shared subterm once per
    path, before any budget runs.
    """
    _require_well_formed(s1, s2, env)
    return _decide(s1, s2, env, max_steps, timeout)


def _require_well_formed(s1: Schema, s2: Schema, env: Env) -> None:
    # both inputs, before the smart constructor can fold one of them away
    problems = well_formed(Document(SAllOf((s1, s2)), env))
    if problems:
        raise MalformedSchema("; ".join(problems))


def _decide(s1: Schema, s2: Schema, env: Env, max_steps: int, timeout: float) -> InclusionResult:
    """check_inclusion_terms on terms already known to be well formed."""
    doc = stratify(Document(s_all_of((s1, s_not(s2))), env.copy()))
    doc = expand_oneof_doc(doc)

    ctx = NormContext(doc.env, max_steps=max_steps, timeout=timeout)
    gen = Generator(ctx)
    start = time.monotonic()
    try:
        tried: list[Conj] = []
        for c in dnf_of(doc.root, ctx):
            tried.append(c)
            got = gen.first_try(c)
            if got is not UNSAT:
                break
        else:
            if not tried:
                return InclusionResult(True, None, ctx.stats)
            root = tuple(tried)
            prepare(root, ctx)
            got = generate(root, ctx, gen)
    finally:
        ctx.stats.elapsed = time.monotonic() - start

    if got is UNSAT:
        return InclusionResult(True, None, ctx.stats)
    if not satisfies(got, s1, env) or satisfies(got, s2, env):
        raise AssertionError(
            "internal error: generated witness failed semantic cross-check"
        )
    return InclusionResult(False, got, ctx.stats)


def check_inclusion(
    left: Any,
    right: Any,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    timeout: float = DEFAULT_TIMEOUT,
) -> InclusionResult:
    """Decide inclusion between two raw Draft-06 schema values."""
    s1, s2, env = _load_pair(left, right)
    return _decide(s1, s2, env, max_steps, timeout)


def _load_pair(left: Any, right: Any) -> tuple[Schema, Schema, Env]:
    """Load two documents into one environment holding both documents'
    bindings. Each is checked as it loads; their names carry different
    prefixes, so the union joins no reference of one to the other and
    needs no check of its own."""
    ldoc = load_document(left, "left")
    rdoc = load_document(right, "right")
    env = Env()
    env.bindings.update(ldoc.env.bindings)
    env.bindings.update(rdoc.env.bindings)
    return ldoc.root, rdoc.root, env


# the relation named by whether each direction is an inclusion
_RELATIONS = {
    (True, True): "equivalent",
    (True, False): "right_not_in_left",
    (False, True): "left_not_in_right",
    (False, False): "incomparable",
}


def check_equivalence_terms(
    s1: Schema,
    s2: Schema,
    env: Env,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    timeout: float = DEFAULT_TIMEOUT,
) -> EquivalenceResult:
    _require_well_formed(s1, s2, env)
    return _equivalence(s1, s2, env, max_steps, timeout)


def check_equivalence(
    left: Any,
    right: Any,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    timeout: float = DEFAULT_TIMEOUT,
) -> EquivalenceResult:
    s1, s2, env = _load_pair(left, right)
    return _equivalence(s1, s2, env, max_steps, timeout)


def _equivalence(
    s1: Schema, s2: Schema, env: Env, max_steps: int, timeout: float
) -> EquivalenceResult:
    fwd = _decide(s1, s2, env, max_steps, timeout)
    bwd = _decide(s2, s1, env, max_steps, timeout)
    return EquivalenceResult(_RELATIONS[fwd.included, bwd.included], fwd, bwd)


# ---------------------------------------------------------------------------
# bounded brute-force oracle


@dataclass(frozen=True)
class UniverseParams:
    """Bounds for the enumerated value universe.

    `max_depth` counts nesting levels (a scalar is 1, a flat container 2).
    `max_count` caps the enumeration; exceeding it raises UniverseTooLarge
    since an inclusion verdict over a truncated universe would be
    meaningless.
    """

    max_depth: int = 2
    max_width: int = 2
    keys: tuple[str, ...] = ("a", "b")
    strings: tuple[str, ...] = ("", "a", "b")
    numbers: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
    max_count: int = 200_000


@dataclass(frozen=True)
class OracleOutcome:
    counterexample_found: bool
    value: Any = None


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # ordered tuples of positive ints summing to total
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def iter_universe(params: UniverseParams) -> Iterator[Any]:
    """Every value within the bounds, smallest first, deterministically.

    Order within one size class: null, false, true, numbers ascending,
    strings in parameter order, then arrays, then objects.  A value's size
    is its node count: a container costs 1 plus its children.
    """
    numbers = sorted({Fraction(q) for q in params.numbers})
    strings = list(dict.fromkeys(params.strings))
    keys = sorted(set(params.keys))
    width = params.max_width
    # one shape per array width and per selection of keys, arrays first
    shapes: list[tuple[int, Any]] = [(k, None) for k in range(1, width + 1)]
    shapes += [
        (k, sel)
        for k in range(1, min(width, len(keys)) + 1)
        for sel in itertools.combinations(keys, k)
    ]

    def containers(size: int, pools: dict[int, list]) -> Iterator[Any]:
        # the containers of one size whose children all come from pools
        for k, sel in shapes:
            for comp in _compositions(size - 1, k):
                for combo in itertools.product(*(pools.get(c, ()) for c in comp)):
                    yield list(combo) if sel is None else dict(zip(sel, combo))

    # empty containers carry no children, so they sit in the size-1 class
    level_one: list[Any] = [None, False, True, *numbers, *strings, [], {}]
    # pools[s]: the values of size s shallow enough to be a child, that is
    # of depth below max_depth; each level of them is built from the one
    # below, so no combination is built and then rejected for its depth
    pools: dict[int, list] = {1: level_one}
    for depth in range(2, params.max_depth):
        top = sum(width**d for d in range(depth))
        pools = {1: level_one} | {s: list(containers(s, pools)) for s in range(2, top + 1)}

    def values() -> Iterator[Any]:
        yield from level_one
        if params.max_depth < 2:
            return
        # geometric bound on the size of any value within depth/width limits
        max_size = sum(width**d for d in range(params.max_depth))
        for size in range(2, max_size + 1):
            yield from containers(size, pools)

    for count, v in enumerate(values(), 1):
        if count > params.max_count:
            raise UniverseTooLarge(f"universe exceeds the {params.max_count}-value cap")
        yield v


def oracle_included(
    s1: Schema, s2: Schema, env: Env, universe: UniverseParams
) -> OracleOutcome:
    """Search the bounded universe for an instance of s1 that violates s2."""
    in_s1, in_s2 = compile_validator(s1, env), compile_validator(s2, env)
    for j in iter_universe(universe):
        if in_s1(j) and not in_s2(j):
            return OracleOutcome(True, j)
    return OracleOutcome(False)


# ---------------------------------------------------------------------------
# universe derivation


def _reachable_terms(roots: Iterable[Schema], env: Env) -> Iterator[Schema]:
    seen_names = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, SRef):
            for name in s.ref.sorted_members():
                if name not in seen_names and name in env.bindings:
                    seen_names.add(name)
                    stack.append(env.body(name))
        stack.extend(child_schemas(s))


def _probe_strings(pats: list) -> list[str]:
    """Example strings that separate the patterns in play.

    One witness per pattern, one per pairwise intersection and per
    pairwise difference, the empty string, and one string matching no
    pattern at all.
    """
    probes: dict[str, None] = {"": None}

    def note(e) -> None:
        got = P.p_example(e)
        if got is not None:
            probes[got] = None

    for e in pats:
        note(e)
    for e1, e2 in itertools.combinations(pats, 2):
        note(P.p_and(e1, e2))
        note(P.p_diff(e1, e2))
        note(P.p_diff(e2, e1))
    if pats:
        note(P.p_not(P.p_or(*pats)))
    return list(probes)


def derive_universe(
    roots: Iterable[Schema],
    env: Env,
    *,
    max_depth: int = 2,
    max_width: int = 2,
    max_count: int = 200_000,
    extra_keys: Iterable[str] = (),
    extra_strings: Iterable[str] = (),
    extra_numbers: Iterable[Fraction] = (),
) -> UniverseParams:
    """Build universe bounds from the constants a set of terms mentions.

    String probes follow the separation recipe of `_probe_strings`, run
    separately for value-position and field-name-position patterns.
    Numeric probes bracket every bound and scale every factor so that
    interval endpoints and divisibility classes are all represented.
    """
    name_pats: list = []
    string_pats: list = []
    numbers: set[Fraction] = {Fraction(0), Fraction(1)}

    for s in _reachable_terms(roots, env):
        if isinstance(s, (SPatternProps, SPatternReq)):
            name_pats.append(s.pattern)
        elif isinstance(s, SPattern):
            string_pats.append(s.pattern)
        elif isinstance(s, (SMinimum, SMaximum)):
            numbers.update((s.bound, s.bound - 1, s.bound + 1))
        elif isinstance(s, (SMultipleOf, SNotMultipleOf)):
            numbers.update((s.factor, 2 * s.factor, 3 * s.factor, s.factor / 2))
        elif isinstance(s, (SConst, SNotConst)) and is_number(s.value):
            numbers.update((s.value, s.value + 1))

    strings = _probe_strings(string_pats)
    for extra in extra_strings:
        if extra not in strings:
            strings.append(extra)

    keys = _probe_strings(name_pats) if name_pats else []
    key_set = dict.fromkeys(k for k in keys if k)
    for extra in extra_keys:
        key_set.setdefault(extra)
    if not key_set:
        key_set = dict.fromkeys(("a", "b"))
    numbers.update(Fraction(q) for q in extra_numbers)

    return UniverseParams(
        max_depth=max_depth,
        max_width=max_width,
        keys=tuple(key_set),
        strings=tuple(strings),
        numbers=tuple(sorted(numbers)),
        max_count=max_count,
    )

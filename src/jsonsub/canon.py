"""Disjunctive canonical forms and the rewrites that feed them.

A canonical disjunct commits to exactly one JSON type (or to a plain
type set when nothing beyond the type is constrained). Object disjuncts
keep a partition of the property-name space into fragments; array
disjuncts keep per-index slots, one tail constraint, containment
obligations at or past the tail start, and length bounds; number
disjuncts keep one interval, one combined factor, and excluded factors.
A disjunction (Dnf) is an alias for a plain tuple of such disjuncts.
Conjunctions and fragments are values by contract, as the terms of
`model` are. The classes do not enforce it, because a frozen dataclass
pays an `object.__setattr__` per field on every construction. Fragment,
CNumber and CArray compute their hash on first use and keep it; CObject
computes its hash when built.

The negation rewrite pushes a single negation one level down: a negated
type-guarded operator becomes its type (OP_TYPE) plus its dual, the
operators that hold on that type exactly where it fails. Before
normalization, stratification replaces every structural argument with a
reference set, so that normalization only ever meets references there:
true becomes the empty set and false the contradictory one, which
normalization settles without a memo entry, and any other body a single
name. It walks the loaded terms, which are trees. oneOf is expanded after
it, into anyOf over exclusive conjunctions that share children between
branches, which a tree walk would visit once per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import is_not
from typing import Iterable, Optional, Sequence

from . import patterns as P
from .model import (
    ALL_TYPES,
    CRef,
    CREF_TRUE,
    Document,
    Env,
    FALSE,
    FALSE_REF,
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
    SRefSingle,
    SRepeatedItems,
    STRUCTURAL,
    SType,
    STypeSet,
    SUniqueItems,
    Schema,
    TRUE,
    child_schemas,
    rebuild,
    s_all_of,
    s_any_of,
    s_not,
    s_type_set,
)


# ---------------------------------------------------------------------------
# Conjunction forms


class Conj:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class CTypeSet(Conj):
    types: frozenset[str]


C_TRUE = CTypeSet(ALL_TYPES)


@dataclass(slots=True, unsafe_hash=True)
class CBoolean(Conj):
    value: bool


@dataclass(slots=True)
class CNumber(Conj):
    lo: Optional[Fraction] = None
    lo_strict: bool = False
    hi: Optional[Fraction] = None
    hi_strict: bool = False
    factor: Optional[Fraction] = None
    excluded: tuple[Fraction, ...] = ()
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self.lo, self.lo_strict, self.hi, self.hi_strict, self.factor, self.excluded)
            )
        return h


@dataclass(slots=True, unsafe_hash=True)
class CString(Conj):
    pattern: P.PatternExpr


@dataclass(slots=True)
class Fragment:
    """One block of the property-name partition: all fields whose name
    matches the pattern take values under ref; each entry of reqs demands
    one such field whose value also meets that entry."""

    pattern: P.PatternExpr
    ref: CRef
    reqs: tuple[CRef, ...] = ()
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.pattern, self.ref, self.reqs))
        return h

    def with_reqs(self, reqs: Iterable[CRef]) -> "Fragment":
        return Fragment(self.pattern, self.ref, sort_reqs(reqs))


def sort_reqs(reqs: Iterable[CRef]) -> tuple[CRef, ...]:
    return tuple(sorted(set(reqs), key=lambda r: r.key()))


TRIVIAL_FRAGMENT = Fragment(P.TOP, CREF_TRUE, ())


class CObject(Conj):
    __slots__ = ("fragments", "min_props", "max_props", "_hash", "_key_index", "_loose")

    def __init__(
        self,
        fragments: tuple[Fragment, ...] = (TRIVIAL_FRAGMENT,),
        min_props: int = 0,
        max_props: Optional[int] = None,
    ):
        self.fragments = tuple(fragments)
        self.min_props = min_props
        self.max_props = max_props
        self._hash = hash((frozenset(self.fragments), min_props, max_props))
        key_index: dict[str, int] = {}
        loose: list[int] = []
        for i, frag in enumerate(self.fragments):
            lit = P.key_literal(frag.pattern)
            if lit is not None:
                key_index[lit] = i
            else:
                loose.append(i)
        self._key_index = key_index
        self._loose = tuple(loose)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CObject)
            and self.min_props == other.min_props
            and self.max_props == other.max_props
            and frozenset(self.fragments) == frozenset(other.fragments)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CObject({self.fragments!r}, min={self.min_props}, max={self.max_props})"

    def candidates(self, pattern: P.PatternExpr) -> tuple[int, ...]:
        """Indices of fragments that may overlap the pattern. Fragments for
        other literal keys are skipped outright."""
        lit = P.key_literal(pattern)
        if lit is not None:
            hit = self._key_index.get(lit)
            return ((hit,) if hit is not None else ()) + self._loose
        return tuple(range(len(self.fragments)))

    def replace(self, changes: dict[int, list[Fragment]]) -> "CObject":
        out: list[Fragment] = []
        for i, frag in enumerate(self.fragments):
            if i in changes:
                out.extend(changes[i])
            else:
                out.append(frag)
        return CObject(tuple(out), self.min_props, self.max_props)


@dataclass(slots=True)
class CArray(Conj):
    items: tuple[CRef, ...] = ()
    tail: CRef = CREF_TRUE
    contains: tuple[tuple[int, CRef], ...] = ()
    min_items: int = 0
    max_items: Optional[int] = None
    unique: Optional[bool] = None
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self.items, self.tail, self.contains, self.min_items, self.max_items, self.unique)
            )
        return h


# a disjunction of canonical conjunctions; the empty one is false
Dnf = tuple[Conj, ...]
D_FALSE: Dnf = ()


def any_dd(ds: Sequence[Dnf]) -> Dnf:
    """The union of disjunctions: the first live one as it is, then every
    conjunction of the others not seen before, in order. One call per
    union, not a fold of pairs, which would hash the prefix again per part."""
    if len(ds) == 1:
        return ds[0]
    live = [d for d in ds if d]
    if len(live) <= 1:
        return live[0] if live else D_FALSE
    out = list(live[0])
    seen = set(out)
    for d in live[1:]:
        for c in d:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# Rendering canonical forms back to schema terms


def conj_ops(c: Conj) -> tuple[Schema, ...]:
    """The operators a typed conjunction adds to its type."""
    if isinstance(c, CBoolean):
        return (SConst(c.value),)
    if isinstance(c, CNumber):
        parts: list[Schema] = []
        if c.lo is not None:
            parts.append(SMinimum(c.lo, c.lo_strict))
        if c.hi is not None:
            parts.append(SMaximum(c.hi, c.hi_strict))
        if c.factor is not None:
            parts.append(SMultipleOf(c.factor))
        parts.extend(SNotMultipleOf(q) for q in c.excluded)
        return tuple(parts)
    if isinstance(c, CString):
        return (SPattern(c.pattern),)
    if isinstance(c, CObject):
        parts = []
        for frag in c.fragments:
            if not frag.ref.is_empty:
                parts.append(SPatternProps(frag.pattern, SRef(frag.ref)))
            parts.extend(SPatternReq(frag.pattern, SRef(req)) for req in frag.reqs)
        if c.min_props > 0:
            parts.append(SMinProps(c.min_props))
        if c.max_props is not None:
            parts.append(SMaxProps(c.max_props))
        return tuple(parts)
    if isinstance(c, CArray):
        parts = [SItemAt(i, SRef(slot)) for i, slot in enumerate(c.items) if not slot.is_empty]
        if not c.tail.is_empty:
            parts.append(SItemsFrom(len(c.items), SRef(c.tail)))
        parts.extend(SContainsFrom(idx, SRef(ref)) for idx, ref in c.contains)
        if c.min_items > 0:
            parts.append(SMinItems(c.min_items))
        if c.max_items is not None:
            parts.append(SMaxItems(c.max_items))
        if c.unique is not None:
            parts.append(SUniqueItems() if c.unique else SRepeatedItems())
        return tuple(parts)
    raise AssertionError(f"unknown conjunction {c!r}")


def conj_to_schema(c: Conj) -> Schema:
    if isinstance(c, CTypeSet):
        return s_type_set(c.types)
    return s_all_of((SType(conj_type(c)), *conj_ops(c)))


def dnf_to_schema(d: Dnf) -> Schema:
    return s_any_of(conj_to_schema(c) for c in d)


_CONJ_TYPE = {CBoolean: "boolean", CNumber: "number", CString: "string",
              CArray: "array", CObject: "object"}


def conj_type(c: Conj) -> Optional[str]:
    return _CONJ_TYPE.get(type(c))


# ---------------------------------------------------------------------------
# Negation, pushed one level

# The JSON type of each type-guarded operator, which holds on every value
# of any other type
OP_TYPE: dict[type, str] = {
    **dict.fromkeys((SPatternProps, SPatternReq, SMinProps, SMaxProps), "object"),
    **dict.fromkeys((SItemAt, SItemsFrom, SContainsFrom, SMinItems, SMaxItems), "array"),
    **dict.fromkeys((SUniqueItems, SRepeatedItems), "array"),
    **dict.fromkeys((SMinimum, SMaximum, SMultipleOf, SNotMultipleOf), "number"),
    SPattern: "string",
}


def not_push(s: Schema) -> Schema:
    if type(s) in OP_TYPE:
        return s_all_of((SType(OP_TYPE[type(s)]), dual(s)))
    if isinstance(s, SBool):
        return FALSE if s.value else TRUE
    if isinstance(s, SNot):
        return s.item
    if isinstance(s, SAllOf):
        return s_any_of(s_not(i) for i in s.items)
    if isinstance(s, SAnyOf):
        return s_all_of(s_not(i) for i in s.items)
    if isinstance(s, SOneOf):
        return s_not(expand_oneof(s))
    if isinstance(s, SRef):
        if s.ref.is_empty:
            return FALSE
        return s_any_of(SRefSingle(m.negate()) for m in s.ref.sorted_members())
    if isinstance(s, SConst):
        return SNotConst(s.value)
    if isinstance(s, SNotConst):
        return SConst(s.value)
    if isinstance(s, SType):
        return s_type_set(ALL_TYPES - {s.name})
    if isinstance(s, STypeSet):
        return s_type_set(ALL_TYPES - s.names)
    raise AssertionError(f"no negation rule for {s!r}")


def dual(s: Schema) -> Schema:
    """The operators that, on values of type OP_TYPE[type(s)], hold exactly
    where the type-guarded operator s fails."""
    if isinstance(s, SPatternProps):
        return SPatternReq(s.pattern, _negate_arg(s.schema))
    if isinstance(s, SPatternReq):
        return SPatternProps(s.pattern, _negate_arg(s.schema))
    if isinstance(s, SMinProps):
        return SMaxProps(s.bound - 1) if s.bound else FALSE
    if isinstance(s, SMaxProps):
        return SMinProps(s.bound + 1)
    if isinstance(s, SItemAt):
        return SAllOf((SItemAt(s.index, _negate_arg(s.schema)), SMinItems(s.index + 1)))
    if isinstance(s, SItemsFrom):
        return SContainsFrom(s.index, _negate_arg(s.schema))
    if isinstance(s, SContainsFrom):
        return SItemsFrom(s.index, _negate_arg(s.schema))
    if isinstance(s, SMinItems):
        return SMaxItems(s.bound - 1) if s.bound else FALSE
    if isinstance(s, SMaxItems):
        return SMinItems(s.bound + 1)
    if isinstance(s, SUniqueItems):
        return SRepeatedItems()
    if isinstance(s, SRepeatedItems):
        return SUniqueItems()
    if isinstance(s, SMinimum):
        return SMaximum(s.bound, not s.exclusive)
    if isinstance(s, SMaximum):
        return SMinimum(s.bound, not s.exclusive)
    if isinstance(s, SMultipleOf):
        return SNotMultipleOf(s.factor)
    if isinstance(s, SNotMultipleOf):
        return SMultipleOf(s.factor)
    if isinstance(s, SPattern):
        return SPattern(P.p_not(s.pattern))
    raise AssertionError(f"{s!r} is not a type-guarded operator")


def _negate_arg(s: Schema) -> Schema:
    """Negate a structural argument. A stratified one is a single name, or
    the empty set (true) or the contradictory set (false), which swap."""
    if type(s) is SRef:
        ref = s.ref
        if len(ref.members) == 1:
            return SRefSingle(next(iter(ref.members)).negate())
        if ref.is_empty or ref == FALSE_REF:
            return SRef(CREF_TRUE if ref.members else FALSE_REF)
    return s_not(s)


# ---------------------------------------------------------------------------
# oneOf expansion


def expand_oneof(s: Schema) -> Schema:
    """s with every oneOf rewritten, children first, into an anyOf over
    exclusive conjunctions. A term that holds no oneOf comes back as the
    same object, so a parent compares its children by identity."""
    kids = child_schemas(s)
    if kids:
        new_kids = tuple(map(expand_oneof, kids))
        if any(map(is_not, new_kids, kids)):
            s = rebuild(s, new_kids)
    if type(s) is not SOneOf:
        return s
    items = s.items
    branches = []
    for i, pick in enumerate(items):
        rest = [s_not(other) for j, other in enumerate(items) if j != i]
        branches.append(s_all_of([pick, *rest]))
    return s_any_of(branches)


def expand_oneof_doc(doc: Document) -> Document:
    env = doc.env
    for name in list(env.bindings):
        env.bindings[name] = expand_oneof(env.bindings[name])
    return Document(expand_oneof(doc.root), env)


# ---------------------------------------------------------------------------
# Stratification: structural arguments become singleton references


class _Stratifier:
    def __init__(self, env: Env):
        self.env = env
        # a false argument is the contradictory set; its names must resolve
        self.false_arg = SRef(env.false_ref())
        # by value: a body's own structural arguments are names already
        self.by_body: dict[Schema, RefName] = {}
        self.counter = 0

    def name_for(self, body: Schema) -> RefName:
        hit = self.by_body.get(body)
        if hit is not None:
            return hit
        while True:
            name = RefName(f"#~s{self.counter}")
            self.counter += 1
            if name not in self.env.bindings:
                break
        self.env.bind(name, body)
        self.by_body[body] = name
        return name

    def arg(self, s: Schema) -> Schema:
        body = self.walk(s)
        if type(body) is SBool:
            return SRef(CREF_TRUE) if body.value else self.false_arg
        if isinstance(body, SRef) and len(body.ref.members) == 1:
            return body
        return SRefSingle(self.name_for(body))

    def walk(self, s: Schema) -> Schema:
        kids = child_schemas(s)
        if not kids:
            return s
        if type(s) in STRUCTURAL:
            arg = self.arg(s.schema)
            return s if arg is s.schema else rebuild(s, (arg,))
        new_kids = tuple(map(self.walk, kids))
        return rebuild(s, new_kids) if any(map(is_not, new_kids, kids)) else s


def stratify(doc: Document) -> Document:
    """doc with every structural argument replaced by a reference set:
    the empty set for true, the contradictory set for false (its name is
    bound here) and otherwise a single name, each distinct body bound once.
    It walks a term once per occurrence, so it runs before
    expand_oneof_doc shares any."""
    st = _Stratifier(doc.env)
    for name in list(doc.env.bindings):
        doc.env.bindings[name] = st.walk(doc.env.bindings[name])
    root = st.walk(doc.root)
    return Document(root, doc.env)

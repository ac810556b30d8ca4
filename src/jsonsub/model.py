"""Algebraic schema terms, reference sets, and the binding environment.

Terms are values: no code assigns to a field of a term once it is built.
The classes do not enforce this. A frozen dataclass stores each field
through `object.__setattr__`, and a sampled profile of the benchmark
workloads put that construction at 13-17% of their time, so terms are
plain slotted dataclasses. CRef computes its hash when built; RefName
here, and PKeys, Fragment, CNumber and CArray elsewhere, compute theirs
on first use and keep it, which a later assignment would make stale.

Structural operators (property, required-field, item, tail, containment)
are vacuously satisfied by values of any other type; type assertions and
bounds carry the actual type commitments.
Smart constructors keep boolean combinations flat and collapse double
negation. They and the traversal helpers dispatch on a term's exact type
(`type(s) is SBool`, a table from term type to children), never on
dataclass equality or isinstance chains: term classes have no subclasses,
and these primitives run on every node the front end builds or walks.
The environment binds positive names; a negated name reads the
negation of its twin's body, derived on each read and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .errors import UnresolvableRef
from .patterns import PatternExpr
from .values import TYPE_NAMES

ALL_TYPES = frozenset(TYPE_NAMES)


@dataclass(slots=True)
class RefName:
    uri: str
    negated: bool = False
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.uri, self.negated))
        return h

    def negate(self) -> "RefName":
        return RefName(self.uri, not self.negated)

    def __str__(self) -> str:
        return ("!" if self.negated else "") + self.uri


class CRef:
    """A set of signed reference names, read as the conjunction of their bodies."""

    __slots__ = ("members", "_hash", "has_clash")

    def __init__(self, members: Iterable[RefName] = ()):
        self.members = members = frozenset(members)
        self._hash = hash(members)
        # a name and its negation share a uri; read far more often than built,
        # and most sets are built from one name
        self.has_clash = len(members) > 1 and len({m.uri for m in members}) < len(members)

    def __eq__(self, other) -> bool:
        return isinstance(other, CRef) and self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.members:
            return "CRef()"
        return "CRef({%s})" % ", ".join(str(m) for m in self.sorted_members())

    def sorted_members(self) -> tuple[RefName, ...]:
        return tuple(sorted(self.members, key=lambda r: (r.uri, r.negated)))

    def key(self):
        return tuple((r.uri, r.negated) for r in self.sorted_members())

    def union(self, other: "CRef") -> "CRef":
        if not other.members:
            return self
        if not self.members:
            return other
        return CRef(self.members | other.members)

    @property
    def is_empty(self) -> bool:
        return not self.members


CREF_TRUE = CRef()

FALSE_NAME = RefName("#~never")
FALSE_REF = CRef((FALSE_NAME, FALSE_NAME.negate()))


def cref(*names: RefName) -> CRef:
    return CRef(names)


# ---------------------------------------------------------------------------
# Schema terms


class Schema:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SBool(Schema):
    value: bool


TRUE = SBool(True)
FALSE = SBool(False)


@dataclass(slots=True, unsafe_hash=True)
class SType(Schema):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class STypeSet(Schema):
    names: frozenset[str]


class _ConstTerm(Schema):
    """Equality for constant terms that tells a boolean from a number,
    which Python equates (False == 0, with equal hashes)."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and isinstance(self.value, bool) == isinstance(other.value, bool)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((type(self), isinstance(self.value, bool), self.value))


@dataclass(slots=True, eq=False)
class SConst(_ConstTerm):
    # payload is a boolean or an exact number; other constants are encoded
    # with type and pattern operators before terms are built
    value: object


@dataclass(slots=True, eq=False)
class SNotConst(_ConstTerm):
    value: object


@dataclass(slots=True, unsafe_hash=True)
class SRef(Schema):
    ref: CRef


@dataclass(slots=True, unsafe_hash=True)
class SAllOf(Schema):
    items: tuple[Schema, ...]


@dataclass(slots=True, unsafe_hash=True)
class SAnyOf(Schema):
    items: tuple[Schema, ...]


@dataclass(slots=True, unsafe_hash=True)
class SOneOf(Schema):
    items: tuple[Schema, ...]


@dataclass(slots=True, unsafe_hash=True)
class SNot(Schema):
    item: Schema


@dataclass(slots=True, unsafe_hash=True)
class SPatternProps(Schema):
    """Every field whose name matches the pattern has a value in the schema."""

    pattern: PatternExpr
    schema: Schema


@dataclass(slots=True, unsafe_hash=True)
class SPatternReq(Schema):
    """Some field whose name matches the pattern has a value in the schema."""

    pattern: PatternExpr
    schema: Schema


@dataclass(slots=True, unsafe_hash=True)
class SMinProps(Schema):
    bound: int


@dataclass(slots=True, unsafe_hash=True)
class SMaxProps(Schema):
    bound: int


@dataclass(slots=True, unsafe_hash=True)
class SItemAt(Schema):
    """If a value exists at this index, it satisfies the schema."""

    index: int
    schema: Schema


@dataclass(slots=True, unsafe_hash=True)
class SItemsFrom(Schema):
    """Every value at this index or later satisfies the schema."""

    index: int
    schema: Schema


@dataclass(slots=True, unsafe_hash=True)
class SContainsFrom(Schema):
    """Some value at this index or later satisfies the schema."""

    index: int
    schema: Schema


@dataclass(slots=True, unsafe_hash=True)
class SMinItems(Schema):
    bound: int


@dataclass(slots=True, unsafe_hash=True)
class SMaxItems(Schema):
    bound: int


@dataclass(slots=True, unsafe_hash=True)
class SUniqueItems(Schema):
    pass


@dataclass(slots=True, unsafe_hash=True)
class SRepeatedItems(Schema):
    """Satisfied by arrays with at least one duplicated element."""


@dataclass(slots=True, unsafe_hash=True)
class SMinimum(Schema):
    bound: Fraction
    exclusive: bool = False


@dataclass(slots=True, unsafe_hash=True)
class SMaximum(Schema):
    bound: Fraction
    exclusive: bool = False


@dataclass(slots=True, unsafe_hash=True)
class SMultipleOf(Schema):
    factor: Fraction


@dataclass(slots=True, unsafe_hash=True)
class SNotMultipleOf(Schema):
    factor: Fraction


@dataclass(slots=True, unsafe_hash=True)
class SPattern(Schema):
    pattern: PatternExpr


# ---------------------------------------------------------------------------
# Smart constructors


def s_all_of(items: Iterable[Schema]) -> Schema:
    flat: list[Schema] = []
    for it in items:
        t = type(it)
        if t is SBool:
            if it.value:
                continue
            return FALSE
        if t is SAllOf:
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return SAllOf(tuple(flat))


def s_any_of(items: Iterable[Schema]) -> Schema:
    flat: list[Schema] = []
    for it in items:
        t = type(it)
        if t is SBool:
            if it.value:
                return TRUE
            continue
        if t is SAnyOf:
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return SAnyOf(tuple(flat))


def s_not(item: Schema) -> Schema:
    t = type(item)
    if t is SNot:
        return item.item
    if t is SBool:
        return FALSE if item.value else TRUE
    return SNot(item)


def s_type_set(names: Iterable[str]) -> Schema:
    ns = frozenset(names)
    if not ns:
        return FALSE
    if len(ns) == 1:
        return SType(next(iter(ns)))
    return STypeSet(ns)


# ---------------------------------------------------------------------------
# Traversal helpers


STRUCTURAL = (SPatternProps, SPatternReq, SItemAt, SItemsFrom, SContainsFrom)

# the children of every term type that has any
_CHILDREN: dict[type, Callable[[Schema], tuple[Schema, ...]]] = {
    **dict.fromkeys((SAllOf, SAnyOf, SOneOf), attrgetter("items")),
    SNot: lambda s: (s.item,),
    **dict.fromkeys(STRUCTURAL, lambda s: (s.schema,)),
}


def child_schemas(s: Schema) -> tuple[Schema, ...]:
    kids = _CHILDREN.get(type(s))
    return () if kids is None else kids(s)


def rebuild(s: Schema, kids: tuple[Schema, ...]) -> Schema:
    t = type(s)
    if t is SAllOf:
        return s_all_of(kids)
    if t is SAnyOf:
        return s_any_of(kids)
    if t is SOneOf:
        return SOneOf(kids)
    if t is SNot:
        return s_not(kids[0])
    if t is SPatternProps or t is SPatternReq:
        return t(s.pattern, kids[0])
    if t in STRUCTURAL:
        return t(s.index, kids[0])
    raise AssertionError(f"{s!r} has no children")


def iter_refs(s: Schema, guarded: bool = False) -> list[tuple[RefName, bool]]:
    """All reference names in s in depth-first order, each with a flag
    telling whether the occurrence sits under at least one structural
    operator. The walk keeps its own stack, so deep terms nest no calls."""
    out: list[tuple[RefName, bool]] = []
    stack = [(s, guarded)]
    while stack:
        node, under = stack.pop()
        t = type(node)
        if t is SRef:
            for name in node.ref.members:
                out.append((name, under))
            continue
        kids = _CHILDREN.get(t)
        if kids is not None:
            under = under or t in STRUCTURAL
            for kid in reversed(kids(node)):
                stack.append((kid, under))
    return out


# ---------------------------------------------------------------------------
# Environment and documents


class Env:
    """Bindings from reference names to bodies."""

    def __init__(self, bindings: Optional[dict[RefName, Schema]] = None):
        self.bindings: dict[RefName, Schema] = dict(bindings or {})

    def copy(self) -> "Env":
        return Env(self.bindings)

    def bind(self, name: RefName, body: Schema) -> None:
        self.bindings[name] = body

    def body(self, name: RefName) -> Schema:
        """The body bound to name; an unbound negated name reads the
        negation of its twin's body, built per read and never bound."""
        if name in self.bindings:
            return self.bindings[name]
        if name.negated and (twin := name.negate()) in self.bindings:
            return s_not(self.bindings[twin])
        raise UnresolvableRef(f"unbound reference {name}")

    def cref_body(self, ref: CRef) -> Schema:
        if len(ref.members) == 1:
            return self.body(next(iter(ref.members)))
        return s_all_of(SRefSingle(m) for m in ref.sorted_members())

    def false_ref(self) -> CRef:
        """The reserved contradictory reference set {never, not never},
        bound on first use."""
        if FALSE_NAME not in self.bindings:
            self.bind(FALSE_NAME, FALSE)
        return FALSE_REF


def SRefSingle(name: RefName) -> SRef:
    return SRef(CRef((name,)))


@dataclass
class Document:
    root: Schema
    env: Env


def well_formed(doc: Document) -> list[str]:
    """Diagnostics for unbound reachable references and unguarded reference cycles."""
    diags: list[str] = []
    known = set(doc.env.bindings)

    def positive(name: RefName) -> RefName:
        return RefName(name.uri)

    seen: set[RefName] = set()
    queue: list[RefName] = []
    for name, _ in iter_refs(doc.root):
        base = positive(name)
        if name not in known and base not in known:
            diags.append(f"unbound reference {name}")
        elif base not in seen:
            seen.add(base)
            queue.append(base)

    # unguarded-edge graph over positive uris; an edge is unguarded when any
    # occurrence of the target sits under boolean operators only; a negated
    # body has the same references under the same guards as its twin's
    edges: dict[str, set[str]] = {}
    while queue:
        base = queue.pop()
        body = doc.env.bindings.get(base)
        if body is None:
            continue
        for ref, guarded in iter_refs(body):
            tgt = positive(ref)
            if ref not in known and tgt not in known:
                diags.append(f"unbound reference {ref} in body of {base}")
                continue
            if not guarded:
                edges.setdefault(base.uri, set()).add(tgt.uri)
            if tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)

    cycle = _find_cycle(edges)
    if cycle:
        diags.append("unguarded reference cycle: " + " -> ".join(cycle))
    return diags


def _find_cycle(edges: dict[str, set[str]]) -> Optional[list[str]]:
    """The first cycle of a depth-first walk in sorted order, kept on an
    explicit stack so that a long chain nests no calls."""
    color: dict[str, int] = {}  # 1 while on the path, 2 once left
    for root in sorted(edges):
        if root in color:
            continue
        color[root] = 1
        path, todo = [root], [iter(sorted(edges[root]))]
        while todo:
            for v in todo[-1]:
                if color.get(v) == 1:
                    return path[path.index(v):] + [v]
                if v not in color:
                    color[v] = 1
                    path.append(v)
                    todo.append(iter(sorted(edges.get(v, ()))))
                    break
            else:
                todo.pop()
                color[path.pop()] = 2
    return None

"""Normalization of schema conjunctions into canonical disjunctions.

all_cs folds a schema term into a disjunction of canonical conjunctions,
a plain tuple of them (canon.Dnf), the empty tuple being false. An allOf
has one fold, _fold, which meets its conjuncts one at a time, depth first:
each disjunct of a prefix meets the next conjunct as soon as it is built,
and a branch ends as soon as its prefix collapses to the empty
disjunction. all_cs drains the fold into a tuple. The entry point, dnf_of,
streams it at the root instead, as it does the root's own anyOf items, so
a caller that needs one disjunct does not pay for the others. The fold
takes the conjuncts narrowest first, by a static estimate of the
disjuncts each spreads into (_width: anyOf sums, allOf multiplies, the
two swap under not; a reference counts 2, any other term 1; capped at
2^20), so a conjunct that refutes the rest is met before a wide one
multiplies the running disjuncts. The sort is stable.
Expanded oneOfs share children, so the estimate is cached on the context
by term identity; an entry keeps its term alive, so the id stays its own.

A cheap refutational pass, fast_check, meets the conjunction with each
conjunct alone, so that a contradiction anywhere in an allOf is found
before the terms ahead of it are normalized; it answers with the empty
disjunction or with the conjunction it was given. It answers liveness
and builds no conjunction: it stops at the first live outcome. When the
conjunction is not C_TRUE, or the caller is itself fast, it runs before
the fold. At C_TRUE it waits until a level of the fold first yields a
second disjunct with two or more conjuncts still ahead, and then probes
those: a fold that does not spread costs no more than the pass would, and
a conjunct that refutes alone but sorts after a wide one is still met
before the running disjuncts multiply.

Two canonical conjunctions are intersected by one routine, meet. A type,
constant, number or string operator enters as its own canonical
disjuncts and meets the conjunction; an object or array operator is
inserted into it. A negated type-guarded operator enters as its type,
which the conjunction meets first, plus its dual (canon.dual).

Reference sets are normalized through a memo table on the normalization
context. One routine, memo_dnf, fills it and counts its hits, for the
normalizer and the witness stage alike; only the witness rounds read its
settled entries in place. A conjunction meets each disjunct of a memo
entry directly, never a schema rendered from it. A combination that is
currently being normalized is returned as a plain union; guardedness of
recursion keeps that sound. A combination whose body normalizes to the
empty disjunction is collapsed to the canonical contradictory set, which
lets later unions refute instantly.

A property pattern that cuts a fragment splits it in two, and every
requirement of the fragment then picks the side whose field meets it;
the same split serves property and required-field insertion. One rule,
_insert_slots, serves items and additionalItems: a range of array slots.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import product as cartesian
from typing import Iterable, Iterator, Optional

from . import patterns as P
from .canon import (
    CArray,
    CBoolean,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    C_TRUE,
    Conj,
    D_FALSE,
    Dnf,
    Fragment,
    OP_TYPE,
    any_dd,
    conj_ops,
    conj_type,
    dual,
    not_push,
    sort_reqs,
)
from .errors import BudgetExceeded
from .model import (
    ALL_TYPES,
    CRef,
    CREF_TRUE,
    Env,
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
    SPattern,
    SPatternProps,
    SPatternReq,
    SRef,
    SRepeatedItems,
    SType,
    STypeSet,
    SUniqueItems,
    Schema,
    s_not,
)

DEFAULT_MAX_STEPS = 50_000_000
DEFAULT_TIMEOUT = 600.0
MAX_REQ_SPLIT = 16


@dataclass
class Stats:
    steps: int = 0
    fast_path_hits: int = 0
    fast_path_misses: int = 0
    # memo_dnf: sets whose body it started normalizing, and settled entries it found
    crefs_created: int = 0
    memo_hits: int = 0
    # the widest disjunction built; the root's own width, and that of each
    # level of its fold, are noted only when dnf_of's stream is used up
    max_disjuncts: int = 0
    cs_calls: int = 0
    # witness rounds: round 1 starts with the first try of the first root
    # disjunct, so a check that ends at a first try counts 1
    gen_rounds: int = 0
    gen_budget_hits: int = 0
    # the stream yielded a root disjunct, so the witness stage tried it
    generation_invoked: bool = False
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


IN_PROGRESS = object()


class NormContext:
    def __init__(
        self,
        env: Env,
        max_steps: int = DEFAULT_MAX_STEPS,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.env = env
        # reference set -> its body's disjunction, or IN_PROGRESS
        self.memo: dict[CRef, object] = {}
        # (id(term), neg) -> (term, _width(term, neg)); the entry keeps its
        # term alive, so the id stays its own
        self.widths: dict[tuple[int, bool], tuple[Schema, int]] = {}
        self.stats = Stats()
        self.max_steps = max_steps
        self.deadline = time.monotonic() + timeout

    def tick(self, n: int = 1) -> None:
        st = self.stats
        st.steps += n
        if st.steps > self.max_steps:
            raise BudgetExceeded(f"step budget {self.max_steps} exceeded", st)
        if st.steps % 256 < n and time.monotonic() > self.deadline:
            raise BudgetExceeded("wall clock budget exceeded", st)

    def note_width(self, n: int) -> None:
        if n > self.stats.max_disjuncts:
            self.stats.max_disjuncts = n


def dnf_of(s: Schema, ctx: NormContext) -> Iterator[Conj]:
    """The root disjunction of s as a stream: the disjuncts all_cs(C_TRUE, s)
    lists, in its order, each yielded as soon as it is built. Only s's own
    anyOf items and allOf conjuncts are taken lazily; all_cs folds every
    term below them at once. Each fold level drops the disjuncts it has
    already yielded, as any_dd does, and the widths of the levels and of
    the root are noted only once the stream is used up."""
    if isinstance(s, SAnyOf):
        ctx.tick()
        ctx.stats.cs_calls += 1
        seen: set[Conj] = set()
        for item in s.items:
            for c in all_cs(C_TRUE, item, ctx):
                if c not in seen:
                    seen.add(c)
                    yield c
        ctx.note_width(len(seen))
    elif isinstance(s, SAllOf):
        ctx.tick()
        ctx.stats.cs_calls += 1
        yield from _fold(C_TRUE, s.items, ctx, False)
    else:
        d = all_cs(C_TRUE, s, ctx)
        ctx.note_width(len(d))
        yield from d


def _fold(c: Conj, items: tuple[Schema, ...], ctx: NormContext, probed: bool) -> Iterator[Conj]:
    """The disjuncts of c met with every conjunct of an allOf, narrowest
    first by _width, in the order a breadth-first fold lists them, each
    yielded as soon as it is built: all_cs drains them, dnf_of streams them.
    Level i holds the disjuncts of the i+1 narrowest conjuncts, and a set
    per level drops those it has already yielded, as any_dd does. The
    levels' iterators sit on an explicit stack, so an allOf's length costs
    no frames. Unless probed, the conjuncts still ahead are probed once by
    fast_check when a level first yields a second disjunct with two or more
    of them left. The all_cs call that opens each chunk ticks, so the fold
    does not; the levels' widths are noted once the fold is used up."""
    items = sorted(items, key=lambda it: _width(it, False, ctx))
    last = len(items) - 1
    seen: list[set[Conj]] = [set() for _ in items]
    chunks = [iter(all_cs(c, items[0], ctx))]
    while chunks:
        i = len(chunks) - 1
        level = seen[i]
        for c2 in chunks[i]:
            if c2 in level:
                continue
            level.add(c2)
            if i == last:
                yield c2
                continue
            if not probed and len(level) == 2 and i + 1 < last:
                probed = True
                if not fast_check(c, items[i + 1:], ctx):
                    return
            chunks.append(iter(all_cs(c2, items[i + 1], ctx)))
            break
        else:
            chunks.pop()
    for level in seen:
        ctx.note_width(len(level))


def all_cs(c: Conj, s: Schema, ctx: NormContext, fast: bool = False) -> Dnf:
    ctx.tick()
    ctx.stats.cs_calls += 1
    if isinstance(s, SBool):
        return (c,) if s.value else D_FALSE
    if isinstance(s, SRef):
        ref = s.ref
        if ref.is_empty:
            return (c,)
        if ref.has_clash:
            return D_FALSE
        memo = memo_dnf(ref, ctx)
        if memo is IN_PROGRESS:
            # body under normalization higher in the stack; unfold it inline
            return all_cs(c, ctx.env.cref_body(ref), ctx, fast)
        parts = []
        for m in memo:
            parts.append(meet(c, m, ctx))
            if fast and parts[-1]:
                return parts[-1]
        out = any_dd(parts)
        ctx.note_width(len(out))
        return out
    if isinstance(s, SNot):
        t = OP_TYPE.get(type(s.item))
        if t is not None:
            d = meet(c, _ONLY[t], ctx)
            return all_cs(d[0], dual(s.item), ctx, fast) if d else D_FALSE
        if fast and isinstance(s.item, SAllOf):
            # live when one negated conjunct is; their union is never built
            for item in s.item.items:
                d = all_cs(c, s_not(item), ctx, True)
                if d:
                    return d
            return D_FALSE
        return all_cs(c, not_push(s.item), ctx, fast)
    if isinstance(s, SAnyOf):
        parts = []
        for item in s.items:
            parts.append(all_cs(c, item, ctx, fast))
            if fast and parts[-1]:
                # fast callers only ask whether the result is false, and
                # one live disjunct already settles that
                return parts[-1]
        out = any_dd(parts)
        ctx.note_width(len(out))
        return out
    if isinstance(s, SAllOf):
        probed = fast or c is not C_TRUE
        if probed:
            d = fast_check(c, s.items, ctx)
            if fast or not d:
                return d
        return tuple(_fold(c, s.items, ctx, probed))
    return all_ck(c, s, ctx, fast)


MAX_WIDTH = 1 << 20


def _width(s: Schema, neg: bool, ctx: NormContext) -> int:
    """A static estimate of how many disjuncts s (its negation when neg)
    spreads into: anyOf sums its items and allOf multiplies them, the two
    swapping under negation; a reference counts 2 and any other term 1."""
    while isinstance(s, SNot):
        # not_push builds a fresh SNot per call; its item is the persistent term
        s, neg = s.item, not neg
    if isinstance(s, SRef):
        return 2
    if not isinstance(s, (SAllOf, SAnyOf)):
        return 1
    entry = ctx.widths.get((id(s), neg))
    if entry is not None:
        return entry[1]
    sums = isinstance(s, SAnyOf) != neg
    w = 0 if sums else 1
    for it in s.items:
        # a loop, not sum(): a generator would cost a frame per nesting level
        x = _width(it, neg, ctx)
        w = w + x if sums else w * x
    w = min(w, MAX_WIDTH)
    ctx.widths[id(s), neg] = (s, w)
    return w


def fast_check(c: Conj, items: tuple[Schema, ...], ctx: NormContext) -> Dnf:
    """Refute c against each conjunct alone: the empty disjunction when one
    of them refutes it, else c as its one disjunct. The pass answers only
    liveness, so it stops at the first live outcome and builds no conjunction."""
    ctx.tick()
    for item in items:
        if not all_cs(c, item, ctx, fast=True):
            ctx.stats.fast_path_hits += 1
            return D_FALSE
    ctx.stats.fast_path_misses += 1
    return (c,)


def memo_dnf(ref: CRef, ctx: NormContext):
    """The memo entry of a reference set: its body's disjunction, or
    IN_PROGRESS while that body is being normalized higher in the stack.
    A set without an entry is normalized first; its entry reads
    IN_PROGRESS meanwhile and is dropped again if normalization fails.
    Starting an entry counts in crefs_created, finding a settled one in
    memo_hits."""
    memo = ctx.memo.get(ref)
    if memo is not None:
        if memo is not IN_PROGRESS:
            ctx.stats.memo_hits += 1
        return memo
    ctx.stats.crefs_created += 1
    ctx.memo[ref] = IN_PROGRESS
    try:
        d = all_cs(C_TRUE, ctx.env.cref_body(ref), ctx)
    except BaseException:
        del ctx.memo[ref]
        raise
    ctx.memo[ref] = d
    return d


def all_xx(x: CRef, y: CRef, ctx: NormContext) -> CRef:
    """Combine two reference sets: their union, kept as it is while its
    body is being normalized higher in the stack, or the canonical
    contradictory set when the union clashes or memo_dnf normalizes its
    body to nothing."""
    ctx.tick()
    u = x.union(y)
    if u == x:
        return x
    if u == y:
        return y
    if u.has_clash:
        return ctx.env.false_ref()
    memo = memo_dnf(u, ctx)
    return u if memo is IN_PROGRESS or memo else ctx.env.false_ref()


# ---------------------------------------------------------------------------
# Meeting two canonical conjunctions, and inserting a single operator


def meet(c: Conj, c2: Conj, ctx: NormContext) -> Dnf:
    """The intersection of two canonical conjunctions. Scalars combine
    directly; an object or array takes c2's operators one at a time."""
    if isinstance(c2, CTypeSet):
        if isinstance(c, CTypeSet):
            both = c.types & c2.types
            return (CTypeSet(both),) if both else D_FALSE
        return (c,) if conj_type(c) in c2.types else D_FALSE
    if isinstance(c, CTypeSet):
        return (c2,) if conj_type(c2) in c.types else D_FALSE
    if type(c) is not type(c2):
        return D_FALSE
    if isinstance(c, CNumber):
        return _meet_number(c, c2)
    if isinstance(c, CString):
        pat = P.p_and(c.pattern, c2.pattern)
        return D_FALSE if P.p_is_empty(pat) else (CString(pat),)
    if isinstance(c, CBoolean):
        return (c,) if c.value == c2.value else D_FALSE
    insert = _insert_object if isinstance(c, CObject) else _insert_array
    d = (c,)
    for k in conj_ops(c2):
        # a loop, not _flat_map: its comprehension and lambda cost frames
        parts = []
        for x in d:
            parts.append(insert(x, k, ctx))
        d = any_dd(parts)
    return d


# every value of the given type, and every value not of it
_ONLY = {t: CTypeSet(frozenset((t,))) for t in ALL_TYPES}
_OFF = {t: CTypeSet(ALL_TYPES - {t}) for t in ALL_TYPES}


def _scalar_dnf(k: Schema) -> Dnf:
    """A type, constant, number or string operator as canonical
    disjuncts. Number and string operators hold vacuously off their type."""
    if isinstance(k, SType):
        return (_ONLY[k.name],)
    if isinstance(k, STypeSet):
        return (CTypeSet(k.names),)
    if isinstance(k, SConst):
        if isinstance(k.value, bool):
            return (CBoolean(k.value),)
        q = Fraction(k.value)
        return (CNumber(lo=q, hi=q),)
    if isinstance(k, SNotConst):
        if isinstance(k.value, bool):
            return (_OFF["boolean"], CBoolean(not k.value))
        q = Fraction(k.value)
        below, above = CNumber(hi=q, hi_strict=True), CNumber(lo=q, lo_strict=True)
        return (_OFF["number"], below, above)
    if isinstance(k, SMinimum):
        c2 = CNumber(lo=k.bound, lo_strict=k.exclusive)
    elif isinstance(k, SMaximum):
        c2 = CNumber(hi=k.bound, hi_strict=k.exclusive)
    elif isinstance(k, SMultipleOf):
        c2 = CNumber(factor=k.factor)
    elif isinstance(k, SNotMultipleOf):
        c2 = CNumber(excluded=(k.factor,))
    elif isinstance(k, SPattern):
        if P.p_is_empty(k.pattern):
            return (_OFF["string"],)
        c2 = CString(k.pattern)
    else:
        raise AssertionError(f"not an operator: {k!r}")
    return (_OFF[conj_type(c2)], c2)


def all_ck(c: Conj, k: Schema, ctx: NormContext, fast: bool = False) -> Dnf:
    ctx.tick()
    k_type = OP_TYPE.get(type(k))
    if k_type not in ("object", "array"):
        d = _flat_map(_scalar_dnf(k), lambda c2: meet(c, c2, ctx))
        ctx.note_width(len(d))
        return d

    if isinstance(c, CTypeSet):
        if k_type not in c.types:
            return (c,)
        parts: list[Conj] = []
        rest = c.types - {k_type}
        if rest:
            parts.append(CTypeSet(rest))
        fresh = CObject() if k_type == "object" else CArray()
        parts.extend(all_ck(fresh, k, ctx, fast))
        ctx.note_width(len(parts))
        return tuple(parts)

    if conj_type(c) != k_type:
        return (c,)
    if isinstance(c, CObject):
        return _insert_object(c, k, ctx, fast)
    return _insert_array(c, k, ctx)


# -- objects


def _cut(frag: Fragment, pattern: P.PatternExpr) -> tuple[P.PatternExpr, P.PatternExpr]:
    """The parts of a fragment inside and outside a pattern that cuts it
    (keeping the contained pattern itself so key literals stay indexable)."""
    inside = pattern if P.p_subset(pattern, frag.pattern) else P.p_and(frag.pattern, pattern)
    return inside, P.p_diff(frag.pattern, pattern)


def _req_sides(
    reqs: tuple[CRef, ...], x: CRef, ctx: NormContext
) -> list[tuple[tuple[CRef, ...], tuple[CRef, ...]]]:
    """Every way the requirements of a cut fragment can pick a side, as
    (inside, outside) pairs. Each requirement is met by one field, which
    lies on one side; the inside ones are combined with x, and a choice
    where one of them clashes is dropped."""
    if not reqs:
        return [((), ())]
    m = len(reqs)
    if m > MAX_REQ_SPLIT:
        raise BudgetExceeded(
            f"fragment split over {m} requirements exceeds the supported {MAX_REQ_SPLIT}",
            ctx.stats,
        )
    options = []
    for mask in range(1 << m):
        ctx.tick()
        reqs_in: list[CRef] = []
        reqs_out: list[CRef] = []
        for i, req in enumerate(reqs):
            if mask >> i & 1:
                w = all_xx(req, x, ctx)
                if w.has_clash:
                    break
                reqs_in.append(w)
            else:
                reqs_out.append(req)
        else:
            options.append((sort_reqs(reqs_in), sort_reqs(reqs_out)))
    return options


def merge_frag_prop(
    frag: Fragment, pattern: P.PatternExpr, x: CRef, ctx: NormContext, fast: bool = False
) -> list[list[Fragment]]:
    """Ways to rewrite one fragment under 'every field matching the pattern
    satisfies x'. An empty list means the object is unsatisfiable. A fast
    call answers only that: any other outcome comes back as [[frag]]."""
    ctx.tick()
    if (fast and not frag.reqs) or P.p_disjoint(frag.pattern, pattern):
        return [[frag]]
    if P.p_subset(frag.pattern, pattern):
        new_reqs = []
        for req in frag.reqs:
            w = all_xx(req, x, ctx)
            if w.has_clash:
                return []
            new_reqs.append(w)
        if not fast:
            return [[Fragment(frag.pattern, all_xx(frag.ref, x, ctx), sort_reqs(new_reqs))]]
    if fast:
        # no clash left; a cut keeps the choice with every requirement
        # outside, which needs no more fields than frag did
        return [[frag]]
    inside, outside = _cut(frag, pattern)
    ref_in = all_xx(frag.ref, x, ctx)
    return [
        [Fragment(inside, ref_in, reqs_in), Fragment(outside, frag.ref, reqs_out)]
        for reqs_in, reqs_out in _req_sides(frag.reqs, x, ctx)
    ]


def insert_preq(
    co: CObject, pattern: P.PatternExpr, y: CRef, ctx: NormContext, fast: bool = False
) -> Dnf:
    """'Some field matching the pattern satisfies y': one disjunct per
    fragment that can host the required field, and per side each of that
    fragment's requirements takes when the pattern cuts it. A fast call
    returns co itself at the first fragment that can host the field."""
    ctx.tick()
    if P.p_is_empty(pattern):
        return D_FALSE
    out: list[Conj] = []
    for i in co.candidates(pattern):
        frag = co.fragments[i]
        if P.p_disjoint(frag.pattern, pattern):
            continue
        w = all_xx(frag.ref, y, ctx)
        if w.has_clash:
            continue
        if fast:
            # keeping every requirement of a cut fragment inside always works
            # (all_xx(req, CREF_TRUE) never clashes) and needs the fewest fields
            if not _short_of_fields(co.fragments, co.max_props, 0 if frag.reqs else 1):
                return (co,)
            continue
        if P.p_subset(frag.pattern, pattern):
            out.append(co.replace({i: [frag.with_reqs(frag.reqs + (w,))]}))
            continue
        # split the fragment so the requirement names a definite block; both
        # blocks keep frag.ref, so a requirement moving inside stays as it is
        inside, outside = _cut(frag, pattern)
        for reqs_in, reqs_out in _req_sides(frag.reqs, CREF_TRUE, ctx):
            out.append(co.replace({i: [
                Fragment(inside, frag.ref, sort_reqs((w,) + reqs_in)),
                Fragment(outside, frag.ref, reqs_out),
            ]}))
    ctx.note_width(len(out))
    return tuple(out)


def _insert_object(co: CObject, k: Schema, ctx: NormContext, fast: bool = False) -> Dnf:
    if isinstance(k, SMinProps):
        n = max(co.min_props, k.bound)
        if co.max_props is not None and n > co.max_props:
            return D_FALSE
        return (CObject(co.fragments, n, co.max_props),)
    if isinstance(k, SMaxProps):
        m = k.bound if co.max_props is None else min(co.max_props, k.bound)
        if m < co.min_props:
            return D_FALSE
        if _short_of_fields(co.fragments, m):
            return D_FALSE
        return (CObject(co.fragments, co.min_props, m),)
    if isinstance(k, SPatternProps):
        x = _arg_ref(k.schema)
        if P.p_is_empty(k.pattern):
            return (co,)
        changes: list[tuple[int, list[list[Fragment]]]] = []
        for i in co.candidates(k.pattern):
            opts = merge_frag_prop(co.fragments[i], k.pattern, x, ctx, fast)
            if not opts:
                return D_FALSE
            if len(opts) == 1 and opts[0] == [co.fragments[i]]:
                continue
            changes.append((i, opts))
        if not changes:
            return (co,)
        out = []
        for moves in cartesian(*(opts for _, opts in changes)):
            ctx.tick()
            out.append(co.replace({i: list(mv) for (i, _), mv in zip(changes, moves)}))
        d = _object_guard(out)
        ctx.note_width(len(d))
        return d
    if isinstance(k, SPatternReq):
        d = insert_preq(co, k.pattern, _arg_ref(k.schema), ctx, fast)
        return _object_guard(d)
    raise AssertionError(f"no object insertion for {k!r}")


def _object_guard(conjs: Iterable[Conj]) -> Dnf:
    """Drop rewritten objects whose requirements cannot fit the field budget."""
    return tuple(
        c for c in conjs
        if not (isinstance(c, CObject) and _short_of_fields(c.fragments, c.max_props))
    )


def _short_of_fields(frags: tuple[Fragment, ...], max_props: Optional[int], extra: int = 0) -> bool:
    # fragments are name-disjoint, so each fragment holding requirements
    # needs at least one field of its own; extra counts fields still to come
    return max_props is not None and max_props < extra + sum(1 for f in frags if f.reqs)


def _arg_ref(s: Schema) -> CRef:
    if not isinstance(s, SRef):
        raise AssertionError(
            "structural argument is not a reference; stratify the document first"
        )
    return s.ref


# -- arrays


def _flat_map(d: Dnf, f) -> Dnf:
    return any_dd([f(c) for c in d])


def _sorted_contains(entries: Iterable[tuple[int, CRef]]) -> tuple[tuple[int, CRef], ...]:
    return tuple(sorted(set(entries), key=lambda e: (e[0], e[1].key())))


def _insert_array(ca: CArray, k: Schema, ctx: NormContext) -> Dnf:
    if isinstance(k, SMinItems):
        n = max(ca.min_items, k.bound)
        if ca.max_items is not None and n > ca.max_items:
            return D_FALSE
        return (replace(ca, min_items=n),)
    if isinstance(k, SMaxItems):
        m = k.bound if ca.max_items is None else min(ca.max_items, k.bound)
        return _cap_array(ca, m)
    if isinstance(k, SUniqueItems):
        if ca.unique is False:
            return D_FALSE
        return (replace(ca, unique=True),)
    if isinstance(k, SRepeatedItems):
        if ca.unique is True:
            return D_FALSE
        if ca.max_items is not None and ca.max_items < 2:
            return D_FALSE
        return (replace(ca, unique=False),)
    if isinstance(k, SItemAt):
        return _insert_slots(ca, k.index, k.index + 1, _arg_ref(k.schema), ctx)
    if isinstance(k, SItemsFrom):
        return _insert_slots(ca, k.index, None, _arg_ref(k.schema), ctx)
    if isinstance(k, SContainsFrom):
        return _insert_contains(ca, k.index, _arg_ref(k.schema), ctx)
    raise AssertionError(f"no array insertion for {k!r}")


def _cap_array(ca: CArray, m: int) -> Dnf:
    """Apply an upper length bound, truncating vacuous structure."""
    if m < ca.min_items or (ca.unique is False and m < 2):
        return D_FALSE
    for idx, _ in ca.contains:
        if idx >= m:
            return D_FALSE
    items = ca.items[:m]
    tail = ca.tail if m > len(items) else CREF_TRUE
    return (replace(ca, items=items, tail=tail, max_items=m),)


def _insert_slots(ca: CArray, lo: int, hi: Optional[int], x: CRef, ctx: NormContext) -> Dnf:
    """Every element at an index in [lo, hi) satisfies x, or every element
    from lo on when hi is None. The slots grow with tail copies to cover
    the range; containment entries that the grown slots cover are re-hosted."""
    if ca.max_items is not None and lo >= ca.max_items:
        return (ca,)
    n = max(len(ca.items), lo if hi is None else hi)
    items = list(ca.items + (ca.tail,) * (n - len(ca.items)))
    for i in range(lo, n if hi is None else hi):
        w = all_xx(items[i], x, ctx)
        if w.has_clash:
            # no element fits at index i, so the array stops short of it
            return _flat_map(_cap_array(ca, i), lambda c: _insert_slots(c, lo, hi, x, ctx))
        items[i] = w
    # entries that the grown slots cover are re-hosted; an open range meets the rest
    pending = [e for e in ca.contains if e[0] < n]
    keep = [e for e in ca.contains if e[0] >= n]
    tail = ca.tail
    if hi is None:
        tail = all_xx(ca.tail, x, ctx)
        if tail.has_clash:
            # no element fits past the slots either, so the array ends with them
            capped = _cap_array(replace(ca, items=tuple(items), contains=tuple(keep)), n)
            return _relift(capped, pending, ctx)
        for j, (idx, ref) in enumerate(keep):
            w = all_xx(ref, x, ctx)
            if w.has_clash:
                return D_FALSE
            keep[j] = (idx, w)
    base = replace(ca, items=tuple(items), tail=tail, contains=_sorted_contains(keep))
    return _relift((base,), pending, ctx)


def _insert_contains(ca: CArray, index: int, z: CRef, ctx: NormContext) -> Dnf:
    ctx.tick()
    if ca.max_items is not None and index >= ca.max_items:
        return D_FALSE
    n_a = len(ca.items)
    if index >= n_a:
        w = all_xx(z, ca.tail, ctx)
        if w.has_clash:
            return D_FALSE
        entries = _sorted_contains(ca.contains + ((index, w),))
        return (replace(ca, contains=entries),)
    # the obligation may be met by one of the fixed slots or past them
    parts: list[Dnf] = []
    for j in range(index, n_a):
        w = all_xx(ca.items[j], z, ctx)
        if w.has_clash:
            continue
        items = ca.items[:j] + (w,) + ca.items[j + 1 :]
        hosted = replace(ca, items=items, min_items=max(ca.min_items, j + 1))
        if hosted.max_items is None or hosted.min_items <= hosted.max_items:
            parts.append((hosted,))
    parts.append(_insert_contains(ca, n_a, z, ctx))
    out = any_dd(parts)
    ctx.note_width(len(out))
    return out


def _relift(d: Dnf, pending: list[tuple[int, CRef]], ctx: NormContext) -> Dnf:
    for idx, ref in pending:
        d = _flat_map(d, lambda c, i=idx, r=ref: _insert_contains(c, i, r, ctx)
                      if isinstance(c, CArray) else (c,))
    return d


# -- numbers


def _meet_number(a: CNumber, b: CNumber) -> Dnf:
    """Tighten both bounds, combine the factors, unite the exclusions."""
    lo, lo_s, hi, hi_s = a.lo, a.lo_strict, a.hi, a.hi_strict
    if b.lo is not None and (lo is None or b.lo > lo or (b.lo == lo and b.lo_strict)):
        lo, lo_s = b.lo, b.lo_strict
    if b.hi is not None and (hi is None or b.hi < hi or (b.hi == hi and b.hi_strict)):
        hi, hi_s = b.hi, b.hi_strict
    factor = a.factor
    if b.factor is not None:
        factor = b.factor if factor is None else _lcm_fraction(factor, b.factor)
    excluded = tuple(sorted(set(a.excluded) | set(b.excluded)))
    if lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_s or hi_s))):
        return D_FALSE
    if factor is not None and any((factor / q).denominator == 1 for q in excluded):
        return D_FALSE
    if lo is not None and lo == hi:
        # a single point must meet the factor and avoid every exclusion
        if factor is not None and (lo / factor).denominator != 1:
            return D_FALSE
        if any((lo / q).denominator == 1 for q in excluded):
            return D_FALSE
    return (CNumber(lo, lo_s, hi, hi_s, factor, excluded),)


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    # smallest positive q with q/a and q/b integral
    num = a.numerator * b.numerator // math.gcd(a.numerator, b.numerator)
    den = math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Preparation: normalize every reference set reachable from a disjunction


def refs_of_conj(c: Conj) -> list[CRef]:
    out: list[CRef] = []
    if isinstance(c, CObject):
        for frag in c.fragments:
            out.append(frag.ref)
            out.extend(frag.reqs)
    elif isinstance(c, CArray):
        out.extend(c.items)
        out.append(c.tail)
        out.extend(ref for _, ref in c.contains)
    return out


def prepare(d: Dnf, ctx: NormContext) -> None:
    """Normalize the body of every reference set reachable from d, so the
    witness rounds find each in the memo."""
    seen: set[CRef] = set()
    queue: list[CRef] = []
    while True:
        for c in d:
            for ref in refs_of_conj(c):
                if ref not in seen:
                    seen.add(ref)
                    queue.append(ref)
        if not queue:
            return
        ref = queue.pop()
        d = D_FALSE if ref.has_clash else memo_dnf(ref, ctx)

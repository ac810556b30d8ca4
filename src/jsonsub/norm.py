"""Normalization of schema conjunctions into canonical disjunctions.

The entry point folds a schema term into a disjunction of canonical
conjunctions, working lazily: a conjunction of terms is refuted as soon
as any prefix of the fold collapses to the empty disjunction, and a
cheap fast-fail pass over the remaining conjuncts runs first so that
contradictions anywhere in an allOf are found without paying for full
normalization of the terms before them.

Reference sets are combined through a memo table on the environment,
which one routine fills. A combination that is currently being
normalized is returned as a plain union; guardedness of recursion keeps
that sound. A combination whose body normalizes to the empty disjunction
is collapsed to the canonical contradictory set, which lets later unions
refute instantly.

A property pattern that cuts a fragment splits it in two, and every
requirement of the fragment then picks the side whose field meets it;
the same split serves property and required-field insertion.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import product as cartesian
from typing import Iterable, Optional

from . import patterns as P
from .canon import (
    CArray,
    CBoolean,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    Conj,
    D_FALSE,
    D_TRUE,
    Dnf,
    Fragment,
    any_dd,
    conj_type,
    dnf_to_schema,
    fresh_conj,
    not_push,
    sort_reqs,
)
from .errors import BudgetExceeded
from .model import (
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
    SRefSingle,
    SRepeatedItems,
    SType,
    STypeSet,
    SUniqueItems,
    Schema,
    s_all_of,
)

DEFAULT_MAX_STEPS = 50_000_000
DEFAULT_TIMEOUT = 600.0
MAX_REQ_SPLIT = 16


@dataclass
class Stats:
    steps: int = 0
    fast_path_hits: int = 0
    fast_path_misses: int = 0
    crefs_created: int = 0
    memo_hits: int = 0
    max_disjuncts: int = 0
    cs_calls: int = 0
    gen_rounds: int = 0
    gen_budget_hits: int = 0
    generation_invoked: bool = False
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


class FastFail(Exception):
    """Internal: the cheap pass could not refute the conjunction."""


class NormContext:
    def __init__(
        self,
        env: Env,
        max_steps: int = DEFAULT_MAX_STEPS,
        timeout: float = DEFAULT_TIMEOUT,
        stats: Optional[Stats] = None,
    ):
        self.env = env
        self.stats = stats or Stats()
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


def dnf_of(s: Schema, ctx: NormContext) -> Dnf:
    return all_ds(D_TRUE, s, ctx)


def all_ds(d: Dnf, s: Schema, ctx: NormContext, fast: bool = False) -> Dnf:
    ctx.tick()
    if d.is_false:
        return D_FALSE
    out = D_FALSE
    for c in d.conjs:
        out = any_dd(out, all_cs(c, s, ctx, fast))
    ctx.note_width(len(out.conjs))
    return out


def all_cs(c: Conj, s: Schema, ctx: NormContext, fast: bool = False) -> Dnf:
    ctx.tick()
    ctx.stats.cs_calls += 1
    if isinstance(s, SBool):
        return Dnf((c,)) if s.value else D_FALSE
    if isinstance(s, SRef):
        return _conj_with_ref(c, s.ref, ctx, fast)
    if isinstance(s, SNot):
        return all_cs(c, not_push(s.item, ctx.env), ctx, fast)
    if isinstance(s, SAnyOf):
        out = D_FALSE
        for item in s.items:
            out = any_dd(out, all_cs(c, item, ctx, fast))
            if fast and out.conjs:
                # fast callers only ask whether the result is false, and
                # one live disjunct already settles that
                return out
        ctx.note_width(len(out.conjs))
        return out
    if isinstance(s, SAllOf):
        if fast:
            return fast_check(c, s.items, ctx)
        try:
            return fast_check(c, s.items, ctx)
        except FastFail:
            pass
        d = all_cs(c, s.items[0], ctx)
        for item in s.items[1:]:
            d = all_ds(d, item, ctx)
        return d
    return all_ck(c, s, ctx)


def fast_check(c: Conj, items: tuple[Schema, ...], ctx: NormContext) -> Dnf:
    """Try to refute c against any single conjunct cheaply. Returns the
    empty disjunction on success, raises FastFail when nothing refutes."""
    ctx.tick()
    for item in items:
        try:
            if all_cs(c, item, ctx, fast=True).is_false:
                ctx.stats.fast_path_hits += 1
                return D_FALSE
        except FastFail:
            continue
    ctx.stats.fast_path_misses += 1
    raise FastFail()


def _conj_with_ref(c: Conj, ref: CRef, ctx: NormContext, fast: bool) -> Dnf:
    if ref.is_empty:
        return Dnf((c,))
    if ref.has_clash:
        return D_FALSE
    env = ctx.env
    memo = env.memo.get(ref)
    if memo is None and len(ref.members) == 1:
        memo = _memo_dnf(ref, env.body(next(iter(ref.members))), ctx)
    if isinstance(memo, Dnf):
        ctx.stats.memo_hits += 1
        if memo.is_false:
            return D_FALSE
        return all_cs(c, dnf_to_schema(memo), ctx, fast)
    if memo is Env.IN_PROGRESS and len(ref.members) == 1:
        # body under normalization higher in the stack; unfold it inline
        return all_cs(c, env.body(next(iter(ref.members))), ctx, fast)
    # multi-member set not combined yet (or being combined): fold members,
    # which reuses the per-member memoized disjunctions
    return all_cs(c, s_all_of(SRefSingle(m) for m in ref.sorted_members()), ctx, fast)


def _memo_dnf(ref: CRef, body: Schema, ctx: NormContext) -> Dnf:
    """Normalize a reference set's body into the memo. The entry reads
    IN_PROGRESS meanwhile and is dropped again if normalization fails."""
    # all_ds rather than dnf_of: one frame per reference on the recursion
    env = ctx.env
    env.memo[ref] = Env.IN_PROGRESS
    try:
        d = all_ds(D_TRUE, body, ctx)
    except BaseException:
        env.memo.pop(ref, None)
        raise
    env.memo[ref] = d
    return d


def all_xx(x: CRef, y: CRef, ctx: NormContext) -> CRef:
    """Combine two reference sets; collapses to the canonical contradictory
    set when the union clashes or its body normalizes to nothing."""
    ctx.tick()
    u = x.union(y)
    if u == x:
        return x
    if u == y:
        return y
    env = ctx.env
    if u.has_clash:
        return env.false_ref()
    memo = env.memo.get(u)
    if memo is Env.IN_PROGRESS:
        return u
    if isinstance(memo, Dnf):
        ctx.stats.memo_hits += 1
        return env.false_ref() if memo.is_false else u
    ctx.stats.crefs_created += 1
    d = _memo_dnf(u, env.cref_body(u), ctx)
    return env.false_ref() if d.is_false else u


# ---------------------------------------------------------------------------
# Insertion of a single operator into a canonical conjunction

_ANALYTICAL_TYPE = {
    SPatternProps: "object",
    SPatternReq: "object",
    SMinProps: "object",
    SMaxProps: "object",
    SItemAt: "array",
    SItemsFrom: "array",
    SContainsFrom: "array",
    SMinItems: "array",
    SMaxItems: "array",
    SUniqueItems: "array",
    SRepeatedItems: "array",
    SMinimum: "number",
    SMaximum: "number",
    SMultipleOf: "number",
    SNotMultipleOf: "number",
    SPattern: "string",
}


def all_ck(c: Conj, k: Schema, ctx: NormContext) -> Dnf:
    ctx.tick()
    if isinstance(k, SType):
        return _with_types(c, frozenset((k.name,)))
    if isinstance(k, STypeSet):
        return _with_types(c, k.names)
    if isinstance(k, SConst):
        return _with_const(c, k.value)
    if isinstance(k, SNotConst):
        return _with_not_const(c, k.value, ctx)

    k_type = _ANALYTICAL_TYPE.get(type(k))
    if k_type is None:
        raise AssertionError(f"not an operator: {k!r}")

    if isinstance(c, CTypeSet):
        if k_type not in c.types:
            return Dnf((c,))
        parts: list[Conj] = []
        rest = c.types - {k_type}
        if rest:
            parts.append(CTypeSet(rest))
        parts.extend(all_ck(fresh_conj(k_type), k, ctx).conjs)
        ctx.note_width(len(parts))
        return Dnf(tuple(parts))

    if conj_type(c) != k_type:
        return Dnf((c,))

    if isinstance(c, CObject):
        return _insert_object(c, k, ctx)
    if isinstance(c, CArray):
        return _insert_array(c, k, ctx)
    if isinstance(c, CNumber):
        return _insert_number(c, k)
    if isinstance(c, CString):
        return _insert_string(c, k)
    raise AssertionError(f"no insertion for {c!r} and {k!r}")


def _with_types(c: Conj, names: frozenset[str]) -> Dnf:
    if isinstance(c, CTypeSet):
        both = c.types & names
        if not both:
            return D_FALSE
        return Dnf((CTypeSet(both),))
    t = conj_type(c)
    return Dnf((c,)) if t in names else D_FALSE


def _with_const(c: Conj, value) -> Dnf:
    if isinstance(value, bool):
        if isinstance(c, CTypeSet):
            return Dnf((CBoolean(value),)) if "boolean" in c.types else D_FALSE
        if isinstance(c, CBoolean):
            if c.value is None or c.value == value:
                return Dnf((CBoolean(value),))
            return D_FALSE
        return D_FALSE
    q = Fraction(value)
    if isinstance(c, CTypeSet):
        if "number" not in c.types:
            return D_FALSE
        return Dnf((CNumber(lo=q, hi=q),))
    if isinstance(c, CNumber):
        d = _insert_number(c, SMinimum(q, False))
        if d.is_false:
            return D_FALSE
        return _insert_number(d.conjs[0], SMaximum(q, False))
    return D_FALSE


def _with_not_const(c: Conj, value, ctx: NormContext) -> Dnf:
    if isinstance(value, bool):
        if isinstance(c, CTypeSet):
            parts: list[Conj] = []
            rest = c.types - {"boolean"}
            if rest:
                parts.append(CTypeSet(rest))
            if "boolean" in c.types:
                parts.append(CBoolean(not value))
            return Dnf(tuple(parts))
        if isinstance(c, CBoolean):
            if c.value is None:
                return Dnf((CBoolean(not value),))
            return Dnf((c,)) if c.value != value else D_FALSE
        return Dnf((c,))
    q = Fraction(value)
    if isinstance(c, CTypeSet):
        parts = []
        rest = c.types - {"number"}
        if rest:
            parts.append(CTypeSet(rest))
        if "number" in c.types:
            parts.append(CNumber(hi=q, hi_strict=True))
            parts.append(CNumber(lo=q, lo_strict=True))
        return Dnf(tuple(parts))
    if isinstance(c, CNumber):
        below = _insert_number(c, SMaximum(q, True))
        above = _insert_number(c, SMinimum(q, True))
        out = any_dd(below, above)
        ctx.note_width(len(out.conjs))
        return out
    return Dnf((c,))


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
    frag: Fragment, pattern: P.PatternExpr, x: CRef, ctx: NormContext
) -> list[list[Fragment]]:
    """Ways to rewrite one fragment under 'every field matching the pattern
    satisfies x'. An empty list means the object is unsatisfiable."""
    ctx.tick()
    if P.p_disjoint(frag.pattern, pattern):
        return [[frag]]
    if P.p_subset(frag.pattern, pattern):
        new_reqs = []
        for req in frag.reqs:
            w = all_xx(req, x, ctx)
            if w.has_clash:
                return []
            new_reqs.append(w)
        return [[Fragment(frag.pattern, all_xx(frag.ref, x, ctx), sort_reqs(new_reqs))]]
    inside, outside = _cut(frag, pattern)
    ref_in = all_xx(frag.ref, x, ctx)
    return [
        [Fragment(inside, ref_in, reqs_in), Fragment(outside, frag.ref, reqs_out)]
        for reqs_in, reqs_out in _req_sides(frag.reqs, x, ctx)
    ]


def insert_preq(co: CObject, pattern: P.PatternExpr, y: CRef, ctx: NormContext) -> Dnf:
    """'Some field matching the pattern satisfies y': one disjunct per
    fragment that can host the required field, and per side each of that
    fragment's requirements takes when the pattern cuts it."""
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
    return Dnf(tuple(out))


def _insert_object(co: CObject, k: Schema, ctx: NormContext) -> Dnf:
    if isinstance(k, SMinProps):
        n = max(co.min_props, k.bound)
        if co.max_props is not None and n > co.max_props:
            return D_FALSE
        return Dnf((CObject(co.fragments, n, co.max_props),))
    if isinstance(k, SMaxProps):
        m = k.bound if co.max_props is None else min(co.max_props, k.bound)
        if m < co.min_props:
            return D_FALSE
        if _short_of_fields(co.fragments, m):
            return D_FALSE
        return Dnf((CObject(co.fragments, co.min_props, m),))
    if isinstance(k, SPatternProps):
        x = _arg_ref(k.schema)
        if P.p_is_empty(k.pattern):
            return Dnf((co,))
        changes: list[tuple[int, list[list[Fragment]]]] = []
        for i in co.candidates(k.pattern):
            opts = merge_frag_prop(co.fragments[i], k.pattern, x, ctx)
            if not opts:
                return D_FALSE
            if len(opts) == 1 and opts[0] == [co.fragments[i]]:
                continue
            changes.append((i, opts))
        if not changes:
            return Dnf((co,))
        out = []
        for moves in cartesian(*(opts for _, opts in changes)):
            ctx.tick()
            out.append(co.replace({i: list(mv) for (i, _), mv in zip(changes, moves)}))
        d = _object_guard(out)
        ctx.note_width(len(d.conjs))
        return d
    if isinstance(k, SPatternReq):
        d = insert_preq(co, k.pattern, _arg_ref(k.schema), ctx)
        return _object_guard(list(d.conjs))
    raise AssertionError(f"no object insertion for {k!r}")


def _object_guard(conjs: list[Conj]) -> Dnf:
    """Drop rewritten objects whose requirements cannot fit the field budget."""
    return Dnf(tuple(
        c for c in conjs
        if not (isinstance(c, CObject) and _short_of_fields(c.fragments, c.max_props))
    ))


def _short_of_fields(fragments: tuple[Fragment, ...], max_props: Optional[int]) -> bool:
    # fragments are name-disjoint, so each fragment holding requirements
    # needs at least one field of its own
    return max_props is not None and max_props < sum(1 for f in fragments if f.reqs)


def _arg_ref(s: Schema) -> CRef:
    if not isinstance(s, SRef):
        raise AssertionError(
            "structural argument is not a reference; stratify the document first"
        )
    return s.ref


# -- arrays


def _flat_map(d: Dnf, f) -> Dnf:
    out = D_FALSE
    for c in d.conjs:
        out = any_dd(out, f(c))
    return out


def _sorted_contains(entries: Iterable[tuple[int, CRef]]) -> tuple[tuple[int, CRef], ...]:
    return tuple(sorted(set(entries), key=lambda e: (e[0], e[1].key())))


def _insert_array(ca: CArray, k: Schema, ctx: NormContext) -> Dnf:
    if isinstance(k, SMinItems):
        n = max(ca.min_items, k.bound)
        if ca.max_items is not None and n > ca.max_items:
            return D_FALSE
        return Dnf((replace(ca, min_items=n),))
    if isinstance(k, SMaxItems):
        m = k.bound if ca.max_items is None else min(ca.max_items, k.bound)
        return _cap_array(ca, m)
    if isinstance(k, SUniqueItems):
        if ca.unique is False:
            return D_FALSE
        return Dnf((replace(ca, unique=True),))
    if isinstance(k, SRepeatedItems):
        if ca.unique is True:
            return D_FALSE
        if ca.max_items is not None and ca.max_items < 2:
            return D_FALSE
        return Dnf((replace(ca, unique=False),))
    if isinstance(k, SItemAt):
        return _insert_item_at(ca, k.index, _arg_ref(k.schema), ctx)
    if isinstance(k, SItemsFrom):
        return _insert_items_from(ca, k.index, _arg_ref(k.schema), ctx)
    if isinstance(k, SContainsFrom):
        return _insert_contains(ca, k.index, _arg_ref(k.schema), ctx)
    raise AssertionError(f"no array insertion for {k!r}")


def _cap_array(ca: CArray, m: int) -> Dnf:
    """Apply an upper length bound, truncating vacuous structure."""
    if m < ca.min_items:
        return D_FALSE
    for idx, _ in ca.contains:
        if idx >= m:
            return D_FALSE
    items = ca.items[:m]
    tail = ca.tail if m > len(items) else CREF_TRUE
    return Dnf((replace(ca, items=items, tail=tail, max_items=m),))


def _insert_item_at(ca: CArray, index: int, x: CRef, ctx: NormContext) -> Dnf:
    if ca.max_items is not None and index >= ca.max_items:
        return Dnf((ca,))
    n_a = len(ca.items)
    if index < n_a:
        w = all_xx(ca.items[index], x, ctx)
        if w.has_clash:
            # a value at this index is impossible, so the array stops short
            return _cap_array(ca, index)
        items = ca.items[:index] + (w,) + ca.items[index + 1 :]
        return Dnf((replace(ca, items=items),))
    # extend the slot range; entries that land inside it are re-hosted
    w = all_xx(ca.tail, x, ctx)
    if w.has_clash:
        return _cap_array(ca, index)
    items = ca.items + (ca.tail,) * (index - n_a) + (w,)
    pending = [e for e in ca.contains if e[0] <= index]
    rest = _sorted_contains(e for e in ca.contains if e[0] > index)
    base = replace(ca, items=items, contains=rest)
    return _relift(Dnf((base,)), pending, ctx)


def _insert_items_from(ca: CArray, index: int, x: CRef, ctx: NormContext) -> Dnf:
    if ca.max_items is not None and index >= ca.max_items:
        return Dnf((ca,))
    n_a = len(ca.items)
    if index <= n_a:
        items = list(ca.items)
        for i in range(index, n_a):
            w = all_xx(items[i], x, ctx)
            if w.has_clash:
                return _flat_map(_cap_array(ca, i), lambda c: _insert_items_from(c, index, x, ctx))
            items[i] = w
        tail = all_xx(ca.tail, x, ctx)
        if tail.has_clash:
            return _cap_array(replace(ca, items=tuple(items)), n_a)
        entries = []
        for idx, ref in ca.contains:
            w = all_xx(ref, x, ctx)
            if w.has_clash:
                return D_FALSE
            entries.append((idx, w))
        return Dnf((replace(ca, items=tuple(items), tail=tail,
                            contains=_sorted_contains(entries)),))
    # index > n_a: materialize slots up to the index, then re-host entries
    items = ca.items + (ca.tail,) * (index - n_a)
    tail = all_xx(ca.tail, x, ctx)
    if tail.has_clash:
        return _cap_array(replace(ca, items=items), index)
    keep: list[tuple[int, CRef]] = []
    pending: list[tuple[int, CRef]] = []
    for idx, ref in ca.contains:
        if idx >= index:
            w = all_xx(ref, x, ctx)
            if w.has_clash:
                return D_FALSE
            keep.append((idx, w))
        else:
            pending.append((idx, ref))
    base = replace(ca, items=items, tail=tail, contains=_sorted_contains(keep))
    return _relift(Dnf((base,)), pending, ctx)


def _insert_contains(ca: CArray, index: int, z: CRef, ctx: NormContext) -> Dnf:
    ctx.tick()
    if ca.max_items is not None and index >= ca.max_items:
        return D_FALSE
    n_a = len(ca.items)
    if index >= n_a:
        w = all_xx(z, ca.tail, ctx)
        if w.has_clash:
            return D_FALSE
        # combine with the other obligations up front so the witness stage
        # can read grouped combinations from the memo
        for _, other in ca.contains:
            all_xx(w, other, ctx)
        entries = _sorted_contains(ca.contains + ((index, w),))
        return Dnf((replace(ca, contains=entries),))
    # the obligation may be met by one of the fixed slots or past them
    out = D_FALSE
    for j in range(index, n_a):
        w = all_xx(ca.items[j], z, ctx)
        if w.has_clash:
            continue
        items = ca.items[:j] + (w,) + ca.items[j + 1 :]
        hosted = replace(ca, items=items, min_items=max(ca.min_items, j + 1))
        if hosted.max_items is None or hosted.min_items <= hosted.max_items:
            out = any_dd(out, Dnf((hosted,)))
    out = any_dd(out, _insert_contains(ca, n_a, z, ctx))
    ctx.note_width(len(out.conjs))
    return out


def _relift(d: Dnf, pending: list[tuple[int, CRef]], ctx: NormContext) -> Dnf:
    for idx, ref in pending:
        d = _flat_map(d, lambda c, i=idx, r=ref: _insert_contains(c, i, r, ctx)
                      if isinstance(c, CArray) else Dnf((c,)))
    return d


# -- numbers


def _insert_number(cn: CNumber, k: Schema) -> Dnf:
    lo, lo_s, hi, hi_s = cn.lo, cn.lo_strict, cn.hi, cn.hi_strict
    factor, excluded = cn.factor, cn.excluded
    if isinstance(k, SMinimum):
        if lo is None or k.bound > lo or (k.bound == lo and k.exclusive and not lo_s):
            lo, lo_s = k.bound, k.exclusive
    elif isinstance(k, SMaximum):
        if hi is None or k.bound < hi or (k.bound == hi and k.exclusive and not hi_s):
            hi, hi_s = k.bound, k.exclusive
    elif isinstance(k, SMultipleOf):
        factor = k.factor if factor is None else _lcm_fraction(factor, k.factor)
    elif isinstance(k, SNotMultipleOf):
        excluded = tuple(sorted(set(excluded) | {k.factor}))
    else:
        raise AssertionError(f"no number insertion for {k!r}")
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_s or hi_s)):
            return D_FALSE
    if factor is not None:
        for q in excluded:
            if (factor / q).denominator == 1:
                return D_FALSE
        if lo is not None and hi is not None and lo == hi:
            if (lo / factor).denominator != 1:
                return D_FALSE
    if lo is not None and hi is not None and lo == hi:
        for q in excluded:
            if (lo / q).denominator == 1:
                return D_FALSE
    return Dnf((CNumber(lo, lo_s, hi, hi_s, factor, excluded),))


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    # smallest positive q with q/a and q/b integral
    num = a.numerator * b.numerator // math.gcd(a.numerator, b.numerator)
    den = math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


# -- strings


def _insert_string(cs: CString, k: Schema) -> Dnf:
    if not isinstance(k, SPattern):
        raise AssertionError(f"no string insertion for {k!r}")
    pat = k.pattern if cs.pattern is None else P.p_and(cs.pattern, k.pattern)
    if P.p_is_empty(pat):
        return D_FALSE
    return Dnf((CString(pat),))


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
    witness stage can read final disjunctions from the memo."""
    env = ctx.env
    seen: set[CRef] = set()
    queue: list[CRef] = []

    def push(ref: CRef) -> None:
        if ref not in seen:
            seen.add(ref)
            queue.append(ref)

    for c in d.conjs:
        for ref in refs_of_conj(c):
            push(ref)
    while queue:
        ref = queue.pop()
        if ref.is_empty or ref.has_clash:
            continue
        memo = env.memo.get(ref)
        if memo is None or memo is Env.IN_PROGRESS:
            ctx.tick()
            memo = _memo_dnf(ref, env.cref_body(ref), ctx)
        if isinstance(memo, Dnf):
            for c in memo.conjs:
                for sub in refs_of_conj(c):
                    push(sub)

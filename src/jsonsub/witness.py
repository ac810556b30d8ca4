"""Bottom-up witness construction for canonical disjunctions.

Reference sets are solved in rounds: each round tries every unsolved set
whose body disjunction is in the memo, and a set is solved once one of
its disjuncts yields a value. When a round neither solves a set nor
meets a new one (lookups normalize sets lazily) the remaining sets are
unsatisfiable. That conclusion is sound because every reference cycle
passes through a structural operator, so a witness for a still-open set
would have to be infinitely deep.

Distinctness (for arrays that must not repeat elements) is handled by a
diversification pass that asks a reference set for several values, never
by fabricating one. When the pass cannot produce enough values even
though everything it depends on is solved, the run fails loudly instead
of guessing a verdict.

Number search is exact. One walk visits the multiples of a step inward
from the tight interval edge, or 0, +k, -k, ... when there is none; the
step is the factor when there is one, and otherwise 1, then finer
decimal steps. Exhausting the candidate budget marks the disjunct failed
for this run and bumps a diagnostic counter. Scalars answer from the
same value streams as diversification.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import patterns as P
from .canon import (
    CArray,
    CBoolean,
    CNull,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    Conj,
    Dnf,
)
from .errors import UnsupportedFeature
from .model import CRef, Env
from .norm import NormContext, all_xx, dnf_of, refs_of_conj
from .values import TYPE_NAMES, canonical_key

UNSAT = object()
_OPEN = object()

MAX_NUMBER_CANDIDATES = 4096
MAX_GROUP_SEARCH = 5


def generate(root: Dnf, ctx: NormContext):
    """A value satisfying some disjunct of root, or UNSAT."""
    return _Generator(ctx).run(root)


class _Generator:
    def __init__(self, ctx: NormContext):
        self.ctx = ctx
        self.env = ctx.env
        self.solved: dict[CRef, object] = {}
        self._diversifying: set[CRef] = set()

    # -- reference resolution

    def lookup(self, ref: CRef):
        """Value, UNSAT, or _OPEN (not solved yet this round)."""
        if ref.has_clash:
            return UNSAT
        if ref in self.solved:
            return self.solved[ref]
        memo = self.env.memo.get(ref)
        if memo is None or memo is Env.IN_PROGRESS:
            memo = dnf_of(self.env.cref_body(ref), self.ctx)
            self.env.memo[ref] = memo
        if memo.is_false:
            return UNSAT
        return _OPEN

    # -- fixpoint rounds

    def run(self, root: Dnf):
        universe: set[CRef] = set()

        def note(refs: Iterable[CRef]) -> None:
            for r in refs:
                if r not in self.solved and not r.has_clash:
                    universe.add(r)

        for c in root.conjs:
            note(refs_of_conj(c))
        note(self.env.memo)

        while True:
            self.ctx.stats.gen_rounds += 1
            value = self.try_dnf(root)
            if value is not UNSAT:
                return value
            progress = False
            # small sets first: their solutions feed the unions built from them
            for ref in sorted(universe, key=lambda r: (len(r.members), r.key())):
                if ref in self.solved:
                    continue
                memo = self.env.memo.get(ref)
                if not isinstance(memo, Dnf):
                    continue
                got = self.try_dnf(memo)
                if got is not UNSAT:
                    self.solved[ref] = got
                    progress = True
            # lookups normalize sets lazily; a set they added is still untried
            known = len(universe)
            note(self.env.memo)
            if not progress and len(universe) == known:
                return UNSAT

    def try_dnf(self, d: Dnf):
        for c in d.conjs:
            got = self.try_conj(c)
            if got is not _OPEN and got is not UNSAT:
                return got
        return UNSAT

    # -- per-conjunction solving

    def try_conj(self, c: Conj):
        self.ctx.tick()
        got = self.conj_values(c, 1)
        if got is _OPEN:
            return _OPEN
        if got:
            return got[0]
        if isinstance(c, CNumber):
            self.ctx.stats.gen_budget_hits += 1
        return UNSAT

    # -- arrays

    def try_array(self, ca: CArray):
        for groups in _groupings(list(ca.contains)):
            got = self.place_groups(ca, groups)
            if got is _OPEN:
                return _OPEN
            if got is UNSAT:
                continue
            if ca.unique is False:
                got = self.force_duplicate(ca, got)
                if got is _OPEN:
                    return _OPEN
            return got
        return UNSAT

    def place_groups(self, ca: CArray, groups: list[list[tuple[int, CRef]]]):
        """One array for this partition of the containment obligations, each
        block landing in a single element past the fixed slots."""
        next_free = len(ca.items)
        placed: list[tuple[int, CRef]] = []
        for group in sorted(groups, key=lambda g: max(i for i, _ in g)):
            combined: Optional[CRef] = None
            for _, ref in group:
                combined = ref if combined is None else all_xx(combined, ref, self.ctx)
            if combined.has_clash:
                return UNSAT
            pos = max(next_free, max(i for i, _ in group))
            placed.append((pos, combined))
            next_free = pos + 1
        length = max(ca.min_items, placed[-1][0] + 1 if placed else 0)
        if ca.max_items is not None and length > ca.max_items:
            return UNSAT
        by_pos = dict(placed)
        out: list = []
        used: set = set()
        for i in range(length):
            ref = by_pos.get(i)
            if ref is None:
                ref = ca.items[i] if i < len(ca.items) else ca.tail
            if ca.unique is True:
                got = self.distinct_value(ref, used)
            else:
                got = self.lookup(ref)
            if got is UNSAT:
                return UNSAT
            if got is _OPEN:
                return _OPEN
            used.add(canonical_key(got))
            out.append(got)
        return out

    def force_duplicate(self, ca: CArray, arr: list):
        keys = [canonical_key(v) for v in arr]
        if len(set(keys)) != len(keys):
            return arr
        base = len(arr)
        if ca.max_items is not None and base + 2 > ca.max_items:
            raise UnsupportedFeature(
                "array witness needs a duplicate pair but length bounds leave no room"
            )

        def slot(i: int) -> CRef:
            return ca.items[i] if i < len(ca.items) else ca.tail

        combined = all_xx(slot(base), slot(base + 1), self.ctx)
        got = self.lookup(combined)
        if got is UNSAT:
            raise UnsupportedFeature(
                "array witness needs a duplicate pair but the next two positions "
                "admit no common value"
            )
        if got is _OPEN:
            return _OPEN
        return arr + [got, got]

    # -- objects

    def try_object(self, co: CObject):
        per_frag = [list(_groupings(list(frag.reqs))) for frag in co.fragments]
        for combo in _plan_product(per_frag, co.max_props):
            got = self.fill_object(co, combo)
            if got is _OPEN:
                return _OPEN
            if got is not UNSAT:
                return got
        return UNSAT

    def fill_object(self, co: CObject, groups_per_frag):
        fields: dict[str, object] = {}
        frag_names: list[list[str]] = []
        for frag, groups in zip(co.fragments, groups_per_frag):
            needed = len(groups)
            names = P.p_examples(frag.pattern, needed) if needed else []
            if len(names) < needed:
                return UNSAT
            frag_names.append(names)
            for name, group in zip(names, groups):
                combined: CRef = frag.ref
                for ref in group:
                    combined = all_xx(combined, ref, self.ctx)
                if combined.has_clash:
                    return UNSAT
                got = self.lookup(combined)
                if got is UNSAT:
                    return UNSAT
                if got is _OPEN:
                    return _OPEN
                fields[name] = got
        if co.max_props is not None and len(fields) > co.max_props:
            return UNSAT
        if co.min_props > len(fields):
            got = self.pad_object(co, fields, frag_names)
            if got is not True:
                return got
        return fields

    def pad_object(self, co: CObject, fields: dict, frag_names: list[list[str]]):
        """Grow fields to min_props with members of witnessable fragments.
        True on success, UNSAT or _OPEN otherwise."""
        needed = co.min_props - len(fields)
        for fi, frag in enumerate(co.fragments):
            if needed == 0:
                break
            if frag.ref.has_clash:
                continue
            filler = self.lookup(frag.ref)
            if filler is _OPEN:
                return _OPEN
            if filler is UNSAT:
                continue
            have = len(frag_names[fi])
            names = P.p_examples(frag.pattern, have + needed)
            for name in names[have:]:
                if name in fields:
                    continue
                fields[name] = filler
                needed -= 1
                if needed == 0:
                    break
        return True if needed == 0 else UNSAT

    # -- diversification (distinct-element obligations)

    def distinct_value(self, ref: CRef, used: set):
        """A value of ref whose canonical key avoids used, or UNSAT/_OPEN.

        Raises when every value the diversifier can reach collides even
        though the reference set is solved: answering unsatisfiable there
        would be a guess.
        """
        vals = self.values_for(ref, len(used) + 1)
        if vals is UNSAT or vals is _OPEN:
            return vals
        for v in vals:
            if canonical_key(v) not in used:
                return v
        raise UnsupportedFeature(
            "array witness needs more distinct elements than the diversifier "
            "can produce"
        )

    def values_for(self, ref: CRef, want: int):
        """Up to want distinct values of ref, or UNSAT/_OPEN."""
        first = self.lookup(ref)
        if first is UNSAT or first is _OPEN:
            return first
        if want <= 1 or ref in self._diversifying:
            return [first]
        self._diversifying.add(ref)
        try:
            out = [first]
            keys = {canonical_key(first)}
            memo = self.env.memo[ref]
            for c in memo.conjs:
                if len(out) >= want:
                    break
                more = self.conj_values(c, want - len(out) + len(keys))
                if more is _OPEN:
                    return _OPEN
                for v in more:
                    k = canonical_key(v)
                    if k not in keys:
                        keys.add(k)
                        out.append(v)
                        if len(out) >= want:
                            break
            return out
        finally:
            self._diversifying.discard(ref)

    def conj_values(self, c: Conj, want: int):
        """Up to want values of one conjunction (list, possibly short), or
        _OPEN when blocked on unsolved references."""
        if isinstance(c, CTypeSet):
            streams = [_plain_values(t) for t in TYPE_NAMES if t in c.types]
            merged = itertools.chain.from_iterable(
                itertools.islice(s, want) for s in streams
            )
            return list(itertools.islice(merged, want))
        if isinstance(c, CNull):
            return [None]
        if isinstance(c, CBoolean):
            return [c.value] if c.value is not None else [False, True]
        if isinstance(c, CNumber):
            return list(itertools.islice(_number_candidates(c), want))
        if isinstance(c, CString):
            if c.pattern is None:
                return list(itertools.islice(_plain_values("string"), want))
            return P.p_examples(c.pattern, want)
        if isinstance(c, CArray):
            return self.array_values(c, want)
        if isinstance(c, CObject):
            return self.object_values(c, want)
        raise AssertionError(f"unknown conjunction {c!r}")

    def array_values(self, ca: CArray, want: int):
        base = self.try_array(ca)
        if base is _OPEN:
            return _OPEN
        if base is UNSAT:
            return []
        out = [base]
        cur = base
        while len(out) < want:
            if ca.max_items is not None and len(cur) + 1 > ca.max_items:
                break
            ref = ca.items[len(cur)] if len(cur) < len(ca.items) else ca.tail
            if ca.unique is True:
                used = {canonical_key(v) for v in cur}
                try:
                    got = self.distinct_value(ref, used)
                except UnsupportedFeature:
                    break
            else:
                got = self.lookup(ref)
            if got is _OPEN:
                return _OPEN
            if got is UNSAT:
                break
            cur = cur + [got]
            out.append(cur)
        return out

    def object_values(self, co: CObject, want: int):
        base = self.try_object(co)
        if base is _OPEN:
            return _OPEN
        if base is UNSAT:
            return []
        out = [base]
        cur = base
        extra = 1
        while len(out) < want:
            if co.max_props is not None and len(cur) + 1 > co.max_props:
                break
            grown = None
            for frag in co.fragments:
                if frag.ref.has_clash:
                    continue
                filler = self.lookup(frag.ref)
                if filler is _OPEN:
                    return _OPEN
                if filler is UNSAT:
                    continue
                names = P.p_examples(frag.pattern, len(cur) + extra)
                fresh = next((n for n in names if n not in cur), None)
                if fresh is not None:
                    grown = dict(cur)
                    grown[fresh] = filler
                    break
            if grown is None:
                break
            cur = grown
            out.append(cur)
            extra += 1
        return out


# ---------------------------------------------------------------------------
# Grouping search


def _groupings(items: list):
    """Partitions of a requirement list, finest first. Oversized lists fall
    back to just the finest and coarsest partitions."""
    if not items:
        yield []
        return
    if len(items) > MAX_GROUP_SEARCH:
        yield [[r] for r in items]
        yield [list(items)]
        return
    parts = list(_raw_partitions(items))
    parts.sort(key=len, reverse=True)
    yield from parts


def _raw_partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _raw_partitions(rest):
        yield [[head]] + [list(b) for b in part]
        for i in range(len(part)):
            copied = [list(b) for b in part]
            copied[i].append(head)
            yield copied


def _plan_product(per_frag: list[list], max_props: Optional[int]):
    """Joint grouping choices across fragments, skipping combinations whose
    field demand already overshoots the capacity."""

    def rec(i: int, acc: list):
        if i == len(per_frag):
            yield list(acc)
            return
        for choice in per_frag[i]:
            if max_props is not None:
                demand = sum(len(g) for g in acc) + len(choice)
                if demand > max_props:
                    continue
            acc.append(choice)
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# Plain values per type, unbounded streams for diversification


def _plain_values(type_name: str) -> Iterator:
    if type_name == "null":
        return iter([None])
    if type_name == "boolean":
        return iter([False, True])
    if type_name == "number":
        return (Fraction(k) for n in itertools.count() for k in ((n,) if n == 0 else (n, -n)))
    if type_name == "string":
        return itertools.chain([""], (str(n) for n in itertools.count()))
    if type_name == "array":
        return ([None] * n for n in itertools.count())
    if type_name == "object":
        return ({f"_{i}": None for i in range(n)} for n in itertools.count())
    raise AssertionError(type_name)


# ---------------------------------------------------------------------------
# Exact number search


def gen_number(c: CNumber) -> Optional[Fraction]:
    return next(_number_candidates(c), None)


def _number_candidates(c: CNumber) -> Iterator[Fraction]:
    lo, hi = c.lo, c.hi
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (c.lo_strict or c.hi_strict)):
            return
        if lo == hi:
            if _respects(lo, c):
                yield lo
            return
    if c.factor is not None:
        # when an excluded divisor divides the factor, every multiple is excluded
        if all((c.factor / ex).denominator != 1 for ex in c.excluded):
            yield from _walk(c, c.factor, MAX_NUMBER_CANDIDATES)
        return
    seen: set[Fraction] = set()
    for scale in range(0, _scale_limit(c) + 1):
        for cand in _walk(c, Fraction(1, 10**scale), 64):
            if cand not in seen:
                seen.add(cand)
                yield cand


def _decimal_scale(q: Fraction) -> int:
    """Power of ten that expresses q, plus one for non-decimal denominators."""
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) + (0 if den == 1 else 1)


def _scale_limit(c: CNumber) -> int:
    """Refinement depth that cannot miss a witness.

    A step finer than every excluded factor can never land on one of its
    multiples only, and a step below half the interval width always has a
    multiple strictly inside the interval.
    """
    s = 12
    for q in c.excluded:
        s = max(s, _decimal_scale(q) + 1)
    if c.lo is not None:
        s = max(s, _decimal_scale(c.lo) + 1)
    if c.hi is not None:
        s = max(s, _decimal_scale(c.hi) + 1)
    if c.lo is not None and c.hi is not None and c.hi > c.lo:
        width = c.hi - c.lo
        t = 0
        while Fraction(1, 10**t) >= width and t < 64:
            t += 1
        s = max(s, t + 1)
    return s


def _bound_ok_low(q: Fraction, c: CNumber) -> bool:
    if c.lo is None:
        return True
    return q > c.lo if c.lo_strict else q >= c.lo


def _bound_ok_high(q: Fraction, c: CNumber) -> bool:
    if c.hi is None:
        return True
    return q < c.hi if c.hi_strict else q <= c.hi


def _respects(q: Fraction, c: CNumber) -> bool:
    if not (_bound_ok_low(q, c) and _bound_ok_high(q, c)):
        return False
    if c.factor is not None and (q / c.factor).denominator != 1:
        return False
    return all((q / ex).denominator != 1 for ex in c.excluded)


def _walk(c: CNumber, step: Fraction, limit: int) -> Iterator[Fraction]:
    """The multiples of step among limit grid points that respect c,
    walked inward from the tight interval edge, or 0, +k, -k, ... when c
    has no bounds."""
    if c.lo is not None:
        k0 = -(-c.lo.numerator * step.denominator // (c.lo.denominator * step.numerator))
        if k0 * step == c.lo and c.lo_strict:
            k0 += 1
        ks: Iterable[int] = range(k0, k0 + limit)
    elif c.hi is not None:
        k0 = c.hi.numerator * step.denominator // (c.hi.denominator * step.numerator)
        if k0 * step == c.hi and c.hi_strict:
            k0 -= 1
        ks = range(k0, k0 - limit, -1)
    else:
        ks = itertools.chain((0,), *((k, -k) for k in range(1, limit)))
    for k in ks:
        cand = k * step
        if not (_bound_ok_low(cand, c) and _bound_ok_high(cand, c)):
            return
        if _respects(cand, c):
            yield cand

"""Bottom-up witness construction for canonical disjunctions.

Reference sets are solved in rounds: each round tries every unsolved set
whose body disjunction is in the memo, and a set is solved once one of
its disjuncts yields a value. When a round neither solves a set nor
meets a new one (lookups normalize sets lazily) the remaining sets are
unsatisfiable. That conclusion is sound because every reference cycle
passes through a structural operator, so a witness for a still-open set
would have to be infinitely deep.

Requirements that must share a field or an array element are grouped by
one complete search: it tries every partition of the requirements into at
most as many blocks as the input has room for (names the fragment's
pattern admits, the maxProperties budget left, maxItems past the fixed
slots), finest first, cuts blocks whose references clash as they form and
ticks the step budget at every node. A blow-up therefore ends in
BudgetExceeded, never in a guessed verdict, and field names come from the
exact example search of the pattern layer.

Distinctness (for arrays that must not repeat elements) is handled by a
diversification pass that asks a reference set for several values, never
by fabricating one. When the pass cannot produce enough values even
though everything it depends on is solved, the run fails loudly instead
of guessing a verdict.

Number search is exact. One walk per step visits its multiples inward
from the tight interval edge to the other one, or 0, +k, -k, ... when
there is none; the step is the factor when there is one, and otherwise
1, 1/10, 1/100, ... A step that an excluded factor divides is skipped. On
any other step each excluded factor rules out the k*step with k = 0
modulo some m >= 2, so k = 1 modulo their lcm always escapes: a walk ends
only at an interval edge, and a nonempty interval holds such a point at
some step. A number disjunct without a value is therefore empty, and
gen_budget_hits counts those. Scalars answer from the same value streams
as diversification.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import patterns as P
from .canon import (
    CArray,
    CBoolean,
    CNumber,
    CObject,
    CString,
    CTypeSet,
    Conj,
    Dnf,
)
from .errors import UnsupportedFeature
from .model import CREF_TRUE, CRef
from .norm import NormContext, all_xx, memo_dnf, refs_of_conj
from .values import TYPE_NAMES, canonical_key

UNSAT = object()
_OPEN = object()


def generate(root: Dnf, ctx: NormContext):
    """A value satisfying some disjunct of root, or UNSAT."""
    return _Generator(ctx).run(root)


class _Generator:
    def __init__(self, ctx: NormContext):
        self.ctx = ctx
        self.solved: dict[CRef, object] = {}
        self._diversifying: set[CRef] = set()

    # -- reference resolution

    def lookup(self, ref: CRef):
        """Value, UNSAT, or _OPEN (not solved yet this round)."""
        if ref.has_clash:
            return UNSAT
        if ref in self.solved:
            return self.solved[ref]
        return UNSAT if memo_dnf(ref, self.ctx).is_false else _OPEN

    # -- fixpoint rounds

    def run(self, root: Dnf):
        universe: set[CRef] = set()

        def note(refs: Iterable[CRef]) -> None:
            for r in refs:
                if r not in self.solved and not r.has_clash:
                    universe.add(r)

        for c in root.conjs:
            note(refs_of_conj(c))
        note(self.ctx.memo)

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
                memo = self.ctx.memo.get(ref)
                if not isinstance(memo, Dnf):
                    continue
                got = self.try_dnf(memo)
                if got is not UNSAT:
                    self.solved[ref] = got
                    progress = True
            # lookups normalize sets lazily; a set they added is still untried
            known = len(universe)
            note(self.ctx.memo)
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

    # -- grouping search

    def groupings(
        self, base: CRef, reqs: tuple[tuple[int, CRef], ...], room: int
    ) -> Iterator[list[tuple[int, CRef]]]:
        """Partitions of the requirements into at most room blocks, finest
        first. A block is (its largest position, base combined with its
        refs); a block whose refs clash is cut as it forms."""
        if not reqs:
            yield []
        for target in range(min(len(reqs), room), 0, -1):
            yield from self.place(base, reqs, [], len(reqs) - 1, target)

    def place(self, base: CRef, reqs, blocks: list[tuple[int, CRef]], j: int, target: int):
        """Completions of blocks to exactly target blocks by placing
        reqs[j], reqs[j-1], ..., reqs[0]: a new block first, in front of
        the others, then joining each block in turn. That fixes the order
        within each block count."""
        # a method, not a nested closure: a closure that calls itself is a
        # reference cycle that would keep the check's environment alive
        self.ctx.tick()
        if j < 0:
            yield list(blocks)
            return
        pos, ref = reqs[j]
        if len(blocks) < target:
            combined = all_xx(base, ref, self.ctx)
            if not combined.has_clash:
                blocks.insert(0, (pos, combined))
                yield from self.place(base, reqs, blocks, j - 1, target)
                del blocks[0]
        if len(blocks) + j < target:
            return  # the rest could no longer open enough blocks
        for i, (at, held) in enumerate(blocks):
            combined = all_xx(held, ref, self.ctx)
            if not combined.has_clash:
                blocks[i] = (max(at, pos), combined)
                yield from self.place(base, reqs, blocks, j - 1, target)
                blocks[i] = (at, held)

    # -- arrays

    def try_array(self, ca: CArray):
        # every block takes its own position past the fixed slots
        room = len(ca.contains)
        if ca.max_items is not None:
            room = min(room, ca.max_items - len(ca.items))
        for blocks in self.groupings(CREF_TRUE, ca.contains, room):
            got = self.place_blocks(ca, blocks)
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

    def place_blocks(self, ca: CArray, blocks: list[tuple[int, CRef]]):
        """One array for this partition of the containment obligations, each
        block landing in a single element past the fixed slots."""
        next_free = len(ca.items)
        placed: list[tuple[int, CRef]] = []
        for at, combined in sorted(blocks, key=lambda b: b[0]):
            pos = max(next_free, at)
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
        names = [P.p_examples(f.pattern, len(f.reqs)) if f.reqs else [] for f in co.fragments]
        for plan in self.object_plans(co, names, 0, 0):
            got = self.fill_object(co, names, plan)
            if got is _OPEN:
                return _OPEN
            if got is not UNSAT:
                return got
        return UNSAT

    def object_plans(self, co: CObject, names: list[list[str]], i: int, used: int):
        """Groupings of fragments i.. under the field budget left after used
        fields; a block takes a name of its own, so the names the fragment's
        pattern admits bound its blocks too."""
        if i == len(co.fragments):
            yield []
            return
        frag = co.fragments[i]
        room = len(names[i])
        if co.max_props is not None:
            room = min(room, co.max_props - used)
        for blocks in self.groupings(frag.ref, tuple((0, r) for r in frag.reqs), room):
            for rest in self.object_plans(co, names, i + 1, used + len(blocks)):
                yield [blocks] + rest

    def fill_object(self, co: CObject, names: list[list[str]], plan):
        fields: dict[str, object] = {}
        for frag_names, blocks in zip(names, plan):
            for name, (_, ref) in zip(frag_names, blocks):
                got = self.lookup(ref)
                if got is UNSAT or got is _OPEN:
                    return got
                fields[name] = got
        got = self.pad_object(co, fields, co.min_props)
        return fields if got is True else got

    def pad_object(self, co: CObject, fields: dict, size: int):
        """Grow fields to size with members of witnessable fragments, in
        fragment order. True on success, UNSAT or _OPEN otherwise."""
        needed = size - len(fields)
        for frag in co.fragments:
            if needed <= 0:
                break
            if frag.ref.has_clash:
                continue
            filler = self.lookup(frag.ref)
            if filler is _OPEN:
                return _OPEN
            if filler is UNSAT:
                continue
            # at most len(fields) of these names are taken
            for name in P.p_examples(frag.pattern, len(fields) + needed):
                if name in fields:
                    continue
                fields[name] = filler
                needed -= 1
                if needed == 0:
                    break
        return True if needed <= 0 else UNSAT

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
            for c in memo_dnf(ref, self.ctx).conjs:
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
        if isinstance(c, CBoolean):
            return [c.value]
        if isinstance(c, CNumber):
            return list(itertools.islice(_number_candidates(c), want))
        if isinstance(c, CString):
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
        """The witness object and up to want - 1 growths of it, one field
        more each."""
        base = self.try_object(co)
        if base is _OPEN:
            return _OPEN
        if base is UNSAT:
            return []
        size = len(base) + want - 1
        if co.max_props is not None:
            size = min(size, co.max_props)
        grown = dict(base)
        if self.pad_object(co, grown, size) is _OPEN:
            return _OPEN
        items = list(grown.items())
        return [dict(items[:n]) for n in range(len(base), len(grown) + 1)]


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
    steps = [c.factor] if c.factor is not None else (Fraction(1, 10**s) for s in itertools.count())
    seen: set[Fraction] = set()
    for step in steps:
        # every multiple of a step that an excluded factor divides is excluded
        if any((step / ex).denominator == 1 for ex in c.excluded):
            continue
        for cand in _walk(c, step):
            if cand not in seen:
                seen.add(cand)
                yield cand


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


def _walk(c: CNumber, step: Fraction) -> Iterator[Fraction]:
    """The multiples of step that respect c, walked inward from the tight
    interval edge to the other one, or 0, +k, -k, ... when c has no
    bounds."""
    if c.lo is not None:
        k0 = -(-c.lo.numerator * step.denominator // (c.lo.denominator * step.numerator))
        if k0 * step == c.lo and c.lo_strict:
            k0 += 1
        ks: Iterable[int] = itertools.count(k0)
    elif c.hi is not None:
        k0 = c.hi.numerator * step.denominator // (c.hi.denominator * step.numerator)
        if k0 * step == c.hi and c.hi_strict:
            k0 -= 1
        ks = itertools.count(k0, -1)
    else:
        ks = itertools.chain.from_iterable((k, -k) if k else (0,) for k in itertools.count())
    for k in ks:
        cand = k * step
        if not (_bound_ok_low(cand, c) and _bound_ok_high(cand, c)):
            return
        if _respects(cand, c):
            yield cand

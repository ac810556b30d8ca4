"""Bottom-up witness construction for canonical disjunctions.

Round 1 starts with first tries: each root disjunct is tried as the
normalizer's stream yields it, against the sets solved so far, and the
first value ends the search. The empty reference set is solved from the
start, by null, the value its one disjunct C_TRUE gives; no other set is
solved yet, so a first try succeeds only on a disjunct whose fields and
elements need no more than some value.

Otherwise reference sets are solved in rounds over the normalizer's memo,
which prepare has filled with every set reachable from the root: each
round tries every unsolved set in it, and a set is solved once one of its
disjuncts yields a value; the next round tries the root again. When a
round solves no set that a try waited on (looked up while unsolved), and
the memo did not grow (lookups normalize sets lazily), no try can take
another path, and the remaining sets are unsatisfiable. That conclusion is
sound because every reference cycle passes through a structural operator,
so a witness for a still-open set would have to be infinitely deep.

Requirements that must share a field or an array element are grouped by
one complete search: it tries every partition of the requirements into at
most as many blocks as the input has room for (names the fragment's
pattern admits, the maxProperties budget left, maxItems past the fixed
slots), finest first, cuts blocks whose references clash as they form and
ticks the step budget at every node. A blow-up therefore ends in
BudgetExceeded, never in a guessed verdict, and field names come from the
exact example search of the pattern layer. A grouping that waits on a set
not solved yet does not stop the ones after it: the rounds may never solve
that set.

Array elements that must be distinct, or must repeat, are decided by the
same fixpoint. Every value v gets a reference set bound to "equals v",
whose negated twin reads as "differs from v", so the members of a set
come out one at a time: the next one is a value of the set minus those
before it, a set that normalization refutes or the rounds solve like any
other. A unique array of length L takes the first L members of each
element's set and picks distinct ones by augmenting-path matching; by
Hall's theorem L candidates per element are enough. An array that must
repeat an element tries every pair of positions (the fixed slots, the
containment blocks and two tail positions) for a common member of their
two sets. Both searches end in an array or in a proof that none exists.

Number search is exact. One walk per step visits its multiples inward
from the tight interval edge to the other one, or 0, +k, -k, ... when
there is none; the step is the factor when there is one, and otherwise
1, 1/10, 1/100, ... A step that an excluded factor divides is skipped. On
any other step each excluded factor rules out the k*step with k = 0
modulo some m >= 2, so k = 1 modulo their lcm always escapes: a walk ends
only at an interval edge, and a nonempty interval holds such a point at
some step. A number disjunct without a value is therefore empty, and
gen_budget_hits counts those.
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
from .model import (
    CREF_TRUE,
    CRef,
    RefName,
    SConst,
    SItemAt,
    SMaxItems,
    SMaxProps,
    SMinItems,
    SPattern,
    SPatternReq,
    SRefSingle,
    SType,
    s_all_of,
)
from .norm import NormContext, all_xx, memo_dnf
from .values import TYPE_NAMES, canonical_key

UNSAT = object()
_OPEN = object()

# called without arguments, each gives the first value of its JSON type,
# fresh so that no two witnesses share a container
_FIRST_VALUE = dict(zip(TYPE_NAMES, (type(None), bool, Fraction, str, list, dict)))


def generate(root: Dnf, ctx: NormContext, gen: Optional[Generator] = None):
    """A value satisfying some disjunct of root, or UNSAT. A generator that
    has already made round 1's first tries of root's disjuncts goes on
    from there; without one, a fresh generator makes them first."""
    if gen is None:
        gen = Generator(ctx)
        for c in root:
            got = gen.first_try(c)
            if got is not UNSAT:
                return got
    return gen.run(root)


class Generator:
    def __init__(self, ctx: NormContext):
        self.ctx = ctx
        # the empty set is solved from the start, by the value round 1
        # would give its one disjunct C_TRUE
        self.solved: dict[CRef, object] = {CREF_TRUE: None}
        # the unsolved sets some try has looked up: only their solutions
        # can change a later try
        self.waited: set[CRef] = set()
        # canonical key of a value -> the name bound to "equals the value"
        self.eq_names: dict[object, RefName] = {}

    # -- reference resolution

    def lookup(self, ref: CRef):
        """Value, UNSAT, or _OPEN (not solved yet this round)."""
        if ref.has_clash:
            return UNSAT
        if ref in self.solved:
            return self.solved[ref]
        if not memo_dnf(ref, self.ctx):
            return UNSAT
        self.waited.add(ref)
        return _OPEN

    # -- fixpoint rounds

    def first_try(self, c: Conj):
        """Round 1's try of one root disjunct, made as the disjunct arrives,
        against the sets solved so far: a value, or UNSAT. The first one
        starts the witness stage and its first round."""
        st = self.ctx.stats
        if not st.generation_invoked:
            st.generation_invoked = True
            st.gen_rounds += 1
        return self.try_dnf((c,))

    def run(self, root: Dnf):
        """Rounds over the memo, read in place, after the first tries of
        root's disjuncts: each round then tries every unsolved set the memo
        holds, smallest first. A round that solves no set a try has waited
        on, while the memo does not grow, ends in UNSAT: a try that met
        none of the new solutions would take the same path again.
        Otherwise the next round tries the root again, then the sets."""
        memo = self.ctx.memo
        while True:
            # small sets first: their solutions feed the unions built from them
            refs = sorted(memo, key=lambda r: (len(r.members), r.key()))
            progress = False
            for ref in refs:
                if ref not in self.solved:
                    got = self.try_dnf(memo[ref])
                    if got is not UNSAT:
                        self.solved[ref] = got
                        progress = progress or ref in self.waited
            if not progress and len(memo) == len(refs):
                return UNSAT
            self.ctx.stats.gen_rounds += 1
            value = self.try_dnf(root)
            if value is not UNSAT:
                return value

    def try_dnf(self, d: Dnf):
        for c in d:
            got = self.try_conj(c)
            if got is not _OPEN and got is not UNSAT:
                return got
        return UNSAT

    # -- per-conjunction solving

    def try_conj(self, c: Conj):
        self.ctx.tick()
        if isinstance(c, CTypeSet):
            return next((_FIRST_VALUE[t]() for t in TYPE_NAMES if t in c.types), UNSAT)
        if isinstance(c, CBoolean):
            return c.value
        if isinstance(c, CNumber):
            got = gen_number(c)
            if got is None:
                self.ctx.stats.gen_budget_hits += 1
                return UNSAT
            return got
        if isinstance(c, CString):
            got = P.p_examples(c.pattern, 1)
            return got[0] if got else UNSAT
        if isinstance(c, CArray):
            return self.try_array(c)
        if isinstance(c, CObject):
            return self.try_object(c)
        raise AssertionError(f"unknown conjunction {c!r}")

    # -- grouping search

    def groupings(
        self, base: CRef, reqs: tuple[tuple[int, CRef], ...], room: int
    ) -> Iterator[list[tuple[int, CRef]]]:
        """Partitions of the requirements into at most room blocks, finest
        first. A block is (its largest position, base combined with its
        refs); a block whose refs clash is cut as it forms. Per block count,
        place puts reqs[-1], reqs[-2], ..., reqs[0] in turn, which fixes the
        order within the count; the placements sit on an explicit stack, so
        a search costs no frame per requirement."""
        if not reqs:
            yield []
        for target in range(min(len(reqs), room), 0, -1):
            self.ctx.tick()
            blocks: list[tuple[int, CRef]] = []
            stack = [self.place(base, reqs, blocks, len(reqs) - 1, target)]
            while stack:
                if not next(stack[-1], False):
                    stack.pop()
                    continue
                self.ctx.tick()
                j = len(reqs) - 1 - len(stack)
                if j < 0:
                    yield list(blocks)
                else:
                    stack.append(self.place(base, reqs, blocks, j, target))

    def place(self, base: CRef, reqs, blocks: list[tuple[int, CRef]], j: int, target: int):
        """Put reqs[j] on a new block in front of the others, while they are
        fewer than target, then into each block in turn: yield after each
        placement and undo it before the next."""
        pos, ref = reqs[j]
        if len(blocks) < target:
            combined = all_xx(base, ref, self.ctx)
            if not combined.has_clash:
                blocks.insert(0, (pos, combined))
                yield True
                del blocks[0]
        if len(blocks) + j < target:
            return  # the rest could no longer open enough blocks
        for i, (at, held) in enumerate(blocks):
            combined = all_xx(held, ref, self.ctx)
            if not combined.has_clash:
                blocks[i] = (max(at, pos), combined)
                yield True
                blocks[i] = (at, held)

    # -- arrays

    def try_array(self, ca: CArray):
        # every block takes its own position past the fixed slots
        room = len(ca.contains)
        if ca.max_items is not None:
            room = min(room, ca.max_items - len(ca.items))
        groupings = self.groupings(CREF_TRUE, ca.contains, room)
        sets = (self.element_sets(ca, blocks) for blocks in groupings)
        return _first(self.fill_array(ca, slots) for slots in sets if slots is not None)

    def fill_array(self, ca: CArray, slots: list[CRef]):
        if ca.unique is True:
            return self.distinct(slots)
        if ca.unique is False:
            return self.repeated(ca, slots)
        return self.fill(slots, {})

    def element_sets(self, ca: CArray, blocks: list[tuple[int, CRef]]) -> Optional[list[CRef]]:
        """The element sets of the shortest array for this partition of the
        containment obligations, each block landing in a single element past
        the fixed slots; None when that array exceeds maxItems."""
        next_free = len(ca.items)
        by_pos: dict[int, CRef] = {}
        for at, combined in sorted(blocks, key=lambda b: b[0]):
            pos = max(next_free, at)
            by_pos[pos] = combined
            next_free = pos + 1
        length = max(ca.min_items, next_free if by_pos else 0)
        if ca.max_items is not None and length > ca.max_items:
            return None
        return [by_pos[i] if i in by_pos else self.slot(ca, i) for i in range(length)]

    @staticmethod
    def slot(ca: CArray, i: int) -> CRef:
        return ca.items[i] if i < len(ca.items) else ca.tail

    def fill(self, slots: list[CRef], fixed: dict[int, object]):
        """One value per element set, taking fixed[i] at position i, or the
        first UNSAT/_OPEN met."""
        out: list = []
        for i, ref in enumerate(slots):
            got = fixed[i] if i in fixed else self.lookup(ref)
            if got is UNSAT or got is _OPEN:
                return got
            out.append(got)
        return out

    def distinct(self, slots: list[CRef]):
        """Pairwise distinct values, one per element set, or UNSAT/_OPEN."""
        found = {ref: self.members(ref, len(slots)) for ref in dict.fromkeys(slots)}
        picked = _match([found[ref][0] for ref in slots])
        if picked is not None:
            return picked
        # a set cut short may still hold the member the matching lacks
        return _OPEN if any(cut for _, cut in found.values()) else UNSAT

    def repeated(self, ca: CArray, slots: list[CRef]):
        """An array with two equal elements, or UNSAT/_OPEN. The pair takes
        a common member of two positions' sets: fixed slots, containment
        blocks, or tail positions, of which two are enough; the array grows
        past the shortest one only as far as the pair needs."""
        end = max(len(slots), len(ca.items)) + 2
        if ca.max_items is not None:
            end = min(end, ca.max_items)
        sets = slots + [self.slot(ca, i) for i in range(len(slots), end)]
        # the first two positions of each set stand for all of its positions
        picks: list[int] = []
        for p, ref in enumerate(sets):
            if sum(sets[q] == ref for q in picks) < 2:
                picks.append(p)
        # the first pair of positions per pair of sets
        pairs: dict[frozenset, tuple[int, int]] = {}
        for b, j in enumerate(picks):
            for i in picks[:b]:
                pairs.setdefault(frozenset((sets[i], sets[j])), (i, j))
        return _first(self.equal_at(sets[: max(len(slots), j + 1)], i, j)
                      for i, j in pairs.values())

    def equal_at(self, sets: list[CRef], i: int, j: int):
        """Values for sets with one common member at positions i and j."""
        got = self.lookup(all_xx(sets[i], sets[j], self.ctx))
        if got is UNSAT or got is _OPEN:
            return got
        return self.fill(sets, {i: got, j: got})

    # -- distinct members of a reference set

    def members(self, ref: CRef, k: int) -> tuple[list, bool]:
        """The first k distinct values of ref, and whether the list was cut
        short by a set not solved yet (rather than by an empty one)."""
        out: list = []
        while len(out) < k:
            got = self.lookup(ref)
            if got is _OPEN:
                return out, True
            if got is UNSAT:
                break
            out.append(got)
            ref = all_xx(ref, CRef((self.eq_name(got).negate(),)), self.ctx)
        return out, False

    def eq_name(self, v) -> RefName:
        """The name bound to "equals v", made on first use under the
        reserved #~ prefix that no $ref can produce."""
        key = canonical_key(v)
        name = self.eq_names.get(key)
        if name is not None:
            return name
        if isinstance(v, list):
            body = s_all_of((SType("array"), SMinItems(len(v)), SMaxItems(len(v)), *(
                SItemAt(i, SRefSingle(self.eq_name(x))) for i, x in enumerate(v))))
        elif isinstance(v, dict):
            body = s_all_of((SType("object"), SMaxProps(len(v)), *(
                SPatternReq(P.key(k), SRefSingle(self.eq_name(x))) for k, x in v.items())))
        elif isinstance(v, str):
            body = s_all_of((SType("string"), SPattern(P.key(v))))
        else:
            body = SType("null") if v is None else SConst(v if isinstance(v, bool) else Fraction(v))
        env = self.ctx.env
        n = len(self.eq_names)
        while (name := RefName(f"#~eq{n}")) in env.bindings:
            n += 1
        env.bind(name, body)
        self.eq_names[key] = name
        return name

    # -- objects

    def try_object(self, co: CObject):
        names = [P.p_examples(f.pattern, len(f.reqs)) if f.reqs else [] for f in co.fragments]
        plans = self.object_plans(co, names)
        return _first(self.fill_object(co, names, plan) for plan in plans)

    def object_plans(self, co: CObject, names: list[list[str]]):
        """A grouping per fragment, each under the field budget the ones
        before it leave, every combination in turn, the last fragment's
        grouping varying fastest; a block takes a name of its own, so the
        names the fragment's pattern admits bound its blocks too. The
        fragments' searches sit on an explicit stack, so a plan costs no
        frame per fragment."""
        if not co.fragments:
            yield []
            return
        plan: list[list[tuple[int, CRef]]] = []
        # (a fragment's groupings, the fields the fragments before it use)
        searches = [(self.fragment_groupings(co, names, 0, 0), 0)]
        while searches:
            groupings, used = searches[-1]
            blocks = next(groupings, None)
            if blocks is None:
                searches.pop()
                if plan:
                    plan.pop()
            elif len(searches) == len(co.fragments):
                yield plan + [blocks]
            else:
                plan.append(blocks)
                i, used = len(plan), used + len(blocks)
                searches.append((self.fragment_groupings(co, names, i, used), used))

    def fragment_groupings(self, co: CObject, names: list[list[str]], i: int, used: int):
        frag = co.fragments[i]
        room = len(names[i])
        if co.max_props is not None:
            room = min(room, co.max_props - used)
        return self.groupings(frag.ref, tuple((0, r) for r in frag.reqs), room)

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


def _first(results: Iterable):
    """The first value among results, else _OPEN if one of them waited on a
    set not solved yet, else UNSAT. Results are drawn one at a time."""
    opened = False
    for got in results:
        if got is _OPEN:
            opened = True
        elif got is not UNSAT:
            return got
    return _OPEN if opened else UNSAT


def _match(candidates: list[list]) -> Optional[list]:
    """One value per position, from its candidates and pairwise distinct, or
    None. Each position in turn takes a free value along an augmenting path
    found breadth first."""
    owner: dict = {}  # canonical key -> (position, value) holding it
    for start in range(len(candidates)):
        via: dict = {start: None}  # position -> (position, value) reaching it
        queue, free = [start], None
        for i in queue:
            for v in candidates[i]:
                held = owner.get(canonical_key(v))
                if held is None:
                    free = (i, v)
                    break
                if held[0] not in via:
                    via[held[0]] = (i, v)
                    queue.append(held[0])
            if free:
                break
        if free is None:
            return None
        # each position on the path takes the value it reached the next one by
        while free:
            owner[canonical_key(free[1])] = free
            free = via[free[0]]
    chosen = dict(owner.values())
    return [chosen[i] for i in range(len(candidates))]


# ---------------------------------------------------------------------------
# Exact number search


def gen_number(c: CNumber) -> Optional[Fraction]:
    lo, hi = c.lo, c.hi
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (c.lo_strict or c.hi_strict)):
            return None
        if lo == hi:
            return lo if _respects(lo, c) else None
    steps = [c.factor] if c.factor is not None else (Fraction(1, 10**s) for s in itertools.count())
    for step in steps:
        # every multiple of a step that an excluded factor divides is excluded
        if any((step / ex).denominator == 1 for ex in c.excluded):
            continue
        got = next(_walk(c, step), None)
        if got is not None:
            return got
    return None


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

"""Decidable algebra of string and property-name patterns.

Pattern expressions combine a regex subset, literal keys, and length
bounds under boolean operations. Every expression compiles to a minimal
DFA over Unicode code point intervals, which makes emptiness, inclusion,
disjointness and example extraction all decidable. Compiled automata are
cached per canonical expression. Relations between expressions built from
literal keys alone (finite name sets and their complements) are decided
by set algebra without touching automata; the others test the reachable
product of the two automata for an accepting state, without minimizing it.
Example extraction is exact too: it returns the first k members in
shortest-then-lexicographic order, expanding at most k prefixes per state.

Regexes follow ECMA-262 search semantics: an unanchored pattern matches
anywhere in the string, and ^/$ are honored wherever they occur. The
supported subset excludes backreferences, lookaround and word boundary
assertions; those raise UnsupportedRegexFeature.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import and_, or_
from typing import Iterable, Optional

from .errors import MalformedSchema, UnsupportedFeature, UnsupportedRegexFeature

MAX_CP = 0x10FFFF
MAX_BOUND = 4096

Interval = tuple[int, int]

_FULL: tuple[Interval, ...] = ((0, MAX_CP),)
# ECMA '.' excludes the four line terminators
_DOT: tuple[Interval, ...] = (
    (0, 0x09),
    (0x0B, 0x0C),
    (0x0E, 0x2027),
    (0x202A, MAX_CP),
)
_DIGIT: tuple[Interval, ...] = ((0x30, 0x39),)
_WORD: tuple[Interval, ...] = ((0x30, 0x39), (0x41, 0x5A), (0x5F, 0x5F), (0x61, 0x7A))
_SPACE: tuple[Interval, ...] = (
    (0x09, 0x0D),
    (0x20, 0x20),
    (0xA0, 0xA0),
    (0x1680, 0x1680),
    (0x2000, 0x200A),
    (0x2028, 0x2029),
    (0x202F, 0x202F),
    (0x205F, 0x205F),
    (0x3000, 0x3000),
    (0xFEFF, 0xFEFF),
)


def _norm_intervals(items: Iterable[Interval]) -> tuple[Interval, ...]:
    ivs = sorted(items)
    out: list[Interval] = []
    for lo, hi in ivs:
        if lo > hi:
            continue
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _complement(ivs: Iterable[Interval]) -> tuple[Interval, ...]:
    out: list[Interval] = []
    nxt = 0
    for lo, hi in ivs:
        if lo > nxt:
            out.append((nxt, lo - 1))
        nxt = hi + 1
    if nxt <= MAX_CP:
        out.append((nxt, MAX_CP))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pattern expressions


class PatternExpr:
    """Base class; subclasses are frozen and hash-comparable."""

    __slots__ = ()

    def _rank(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PRegex(PatternExpr):
    source: str

    def _rank(self):
        return (1, self.source)


@dataclass(frozen=True, slots=True)
class PKey(PatternExpr):
    literal: str

    def _rank(self):
        return (0, self.literal)


@dataclass(frozen=True, slots=True)
class PMinLen(PatternExpr):
    bound: int

    def _rank(self):
        return (2, self.bound)


@dataclass(frozen=True, slots=True)
class PMaxLen(PatternExpr):
    bound: int

    def _rank(self):
        return (3, self.bound)


@dataclass(frozen=True, slots=True)
class PNot(PatternExpr):
    item: PatternExpr

    def _rank(self):
        return (4, self.item._rank())


@dataclass(frozen=True, slots=True)
class PAll(PatternExpr):
    items: tuple[PatternExpr, ...]

    def _rank(self):
        return (5, tuple(i._rank() for i in self.items))


@dataclass(frozen=True, slots=True)
class PAny(PatternExpr):
    items: tuple[PatternExpr, ...]

    def _rank(self):
        return (6, tuple(i._rank() for i in self.items))


TOP = PMinLen(0)
BOTTOM = PNot(TOP)


def regex(source: str) -> PatternExpr:
    """Pattern from an ECMA-style regex, search semantics. Parses eagerly."""
    if not isinstance(source, str):
        raise MalformedSchema(f"regex must be a string, got {source!r}")
    _parse_regex(source)
    return PRegex(source)


def key(literal: str) -> PatternExpr:
    return PKey(literal)


def min_len(bound: int) -> PatternExpr:
    _check_bound(bound)
    return PMinLen(bound) if bound > 0 else TOP


def max_len(bound: int) -> PatternExpr:
    _check_bound(bound)
    return PMaxLen(bound)


def _check_bound(bound: int) -> None:
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise MalformedSchema(f"length bound must be a non-negative integer, got {bound!r}")
    if bound > MAX_BOUND:
        raise UnsupportedFeature(f"length bound {bound} above the supported limit {MAX_BOUND}")


def p_not(e: PatternExpr) -> PatternExpr:
    if isinstance(e, PNot):
        return e.item
    return PNot(e)


def p_and(*items: PatternExpr) -> PatternExpr:
    flat: list[PatternExpr] = []
    for it in items:
        if isinstance(it, PAll):
            flat.extend(it.items)
        elif it == TOP:
            continue
        else:
            flat.append(it)
    uniq = sorted(set(flat), key=lambda e: e._rank())
    if not uniq:
        return TOP
    if len(uniq) == 1:
        return uniq[0]
    return PAll(tuple(uniq))


def p_or(*items: PatternExpr) -> PatternExpr:
    flat: list[PatternExpr] = []
    for it in items:
        if isinstance(it, PAny):
            flat.extend(it.items)
        elif it == BOTTOM:
            continue
        else:
            flat.append(it)
    uniq = sorted(set(flat), key=lambda e: e._rank())
    if not uniq:
        return BOTTOM
    if len(uniq) == 1:
        return uniq[0]
    return PAny(tuple(uniq))


def p_diff(a: PatternExpr, b: PatternExpr) -> PatternExpr:
    return p_and(a, p_not(b))


def key_literal(e: PatternExpr) -> Optional[str]:
    """The literal if e is a single-key pattern, else None."""
    return e.literal if isinstance(e, PKey) else None


_KeySet = tuple[frozenset[str], bool]

_NO_NAMES: _KeySet = (frozenset(), False)
_ALL_NAMES: _KeySet = (frozenset(), True)


def _key_set(e: PatternExpr) -> Optional[_KeySet]:
    """(names, cofinite) when e is a boolean combination of literal keys and
    TOP: the language is `names`, or every string except `names` when
    cofinite. None when deciding e needs an automaton."""
    kind = type(e)
    if kind is PKey:
        return frozenset((e.literal,)), False
    if kind is PNot:
        inner = _key_set(e.item)
        return None if inner is None else (inner[0], not inner[1])
    if kind is PAll or kind is PAny:
        # a union is the complement of the intersection of the complements
        flip = kind is PAny
        acc = _ALL_NAMES
        for it in e.items:
            sub = _key_set(it)
            if sub is None:
                return None
            acc = _meet(acc, (sub[0], sub[1] != flip))
        return acc[0], acc[1] != flip
    return _ALL_NAMES if kind is PMinLen and e.bound == 0 else None


def _meet(a: _KeySet, b: _KeySet) -> _KeySet:
    """Intersection of two key sets."""
    (na, ca), (nb, cb) = a, b
    if ca and cb:
        return na | nb, True
    if ca:
        return nb - na, False
    if cb:
        return na - nb, False
    return na & nb, False


# ---------------------------------------------------------------------------
# Regex parsing. AST nodes are plain tuples:
#   ("class", intervals) ("cat", parts) ("alt", parts) ("star", sub)
#   ("rep", sub, lo, hi_or_None) ("eps",) ("bos",) ("eos",)


def _parse_regex(src: str):
    parser = _RegexParser(src)
    ast = parser.alternation()
    if parser.pos != len(src):
        raise MalformedSchema(f"unbalanced ')' in regex: {src!r}")
    return ast


class _RegexParser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.src[self.pos] if self.pos < len(self.src) else None

    def take(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        return ch

    def alternation(self):
        parts = [self.concat()]
        while self.peek() == "|":
            self.take()
            parts.append(self.concat())
        if len(parts) == 1:
            return parts[0]
        return ("alt", tuple(parts))

    def concat(self):
        items = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            items.append(self.repeatable())
        if not items:
            return ("eps",)
        if len(items) == 1:
            return items[0]
        return ("cat", tuple(items))

    def repeatable(self):
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = ("star", node)
            elif ch == "+":
                self.take()
                node = ("cat", (node, ("star", node)))
            elif ch == "?":
                self.take()
                node = ("alt", (node, ("eps",)))
            elif ch == "{":
                rep = self._try_quantifier()
                if rep is None:
                    break
                lo, hi = rep
                node = ("rep", node, lo, hi)
            else:
                break
            if self.peek() == "?":  # lazy marker, same language
                self.take()
        return node

    def _try_quantifier(self) -> Optional[tuple[int, Optional[int]]]:
        start = self.pos
        self.take()  # '{'
        digits = self._digits()
        if digits is None:
            self.pos = start
            return None
        lo = digits
        hi: Optional[int]
        ch = self.peek()
        if ch == "}":
            self.take()
            hi = lo
        elif ch == ",":
            self.take()
            if self.peek() == "}":
                self.take()
                hi = None
            else:
                digits = self._digits()
                if digits is None or self.peek() != "}":
                    self.pos = start
                    return None
                self.take()
                hi = digits
        else:
            self.pos = start
            return None
        if hi is not None and hi < lo:
            raise MalformedSchema(f"reversed repetition bounds in regex: {self.src!r}")
        cap = hi if hi is not None else lo
        if cap > MAX_BOUND:
            raise UnsupportedRegexFeature(
                f"repetition bound {cap} above the supported limit {MAX_BOUND}"
            )
        return (lo, hi)

    def _digits(self) -> Optional[int]:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.take()
        if self.pos == start:
            return None
        return int(self.src[start : self.pos])

    def atom(self):
        ch = self.peek()
        if ch is None:
            return ("eps",)
        if ch == "(":
            self.take()
            if self.peek() == "?":
                self.take()
                if self.peek() != ":":
                    raise UnsupportedRegexFeature(
                        f"lookaround or named group in regex: {self.src!r}"
                    )
                self.take()
            node = self.alternation()
            if self.peek() != ")":
                raise MalformedSchema(f"unterminated group in regex: {self.src!r}")
            self.take()
            return node
        if ch == "[":
            self.take()
            return ("class", self._char_class())
        if ch == "\\":
            self.take()
            item = self._escape(in_class=False)
            if isinstance(item, tuple):
                return ("class", item)
            return ("class", ((item, item),))
        if ch == ".":
            self.take()
            return ("class", _DOT)
        if ch == "^":
            self.take()
            return ("bos",)
        if ch == "$":
            self.take()
            return ("eos",)
        if ch in "*+?":
            raise MalformedSchema(f"nothing to repeat in regex: {self.src!r}")
        if ch == "{":
            rep = self._try_quantifier()
            if rep is not None:
                raise MalformedSchema(f"nothing to repeat in regex: {self.src!r}")
            self.take()
            return ("class", ((ord("{"), ord("{")),))
        self.take()
        return ("class", ((ord(ch), ord(ch)),))

    def _char_class(self) -> tuple[Interval, ...]:
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        items: list[Interval] = []
        while True:
            ch = self.peek()
            if ch is None:
                raise MalformedSchema(f"unterminated character class in regex: {self.src!r}")
            if ch == "]":
                self.take()
                break
            lo = self._class_atom()
            if isinstance(lo, tuple):
                items.extend(lo)
                continue
            if self.peek() == "-" and self.pos + 1 < len(self.src) and self.src[self.pos + 1] != "]":
                self.take()
                hi = self._class_atom()
                if isinstance(hi, tuple):
                    raise MalformedSchema(f"bad class range in regex: {self.src!r}")
                if hi < lo:
                    raise MalformedSchema(f"reversed class range in regex: {self.src!r}")
                items.append((lo, hi))
            else:
                items.append((lo, lo))
        ivs = _norm_intervals(items)
        if negated:
            ivs = _complement(ivs)
        return ivs

    def _class_atom(self):
        ch = self.take()
        if ch == "\\":
            return self._escape(in_class=True)
        return ord(ch)

    def _escape(self, in_class: bool):
        if self.peek() is None:
            raise MalformedSchema(f"trailing backslash in regex: {self.src!r}")
        ch = self.take()
        if ch == "d":
            return _DIGIT
        if ch == "D":
            return _complement(_DIGIT)
        if ch == "w":
            return _WORD
        if ch == "W":
            return _complement(_WORD)
        if ch == "s":
            return _SPACE
        if ch == "S":
            return _complement(_SPACE)
        simple = {"n": 0x0A, "r": 0x0D, "t": 0x09, "f": 0x0C, "v": 0x0B}
        if ch in simple:
            return simple[ch]
        if ch == "0":
            if self.peek() is not None and self.peek().isdigit():
                raise MalformedSchema(f"octal escape in regex: {self.src!r}")
            return 0
        if ch == "b":
            if in_class:
                return 0x08
            raise UnsupportedRegexFeature(f"word boundary in regex: {self.src!r}")
        if ch == "B":
            raise UnsupportedRegexFeature(f"word boundary in regex: {self.src!r}")
        if ch in "123456789":
            raise UnsupportedRegexFeature(f"backreference in regex: {self.src!r}")
        if ch == "k":
            raise UnsupportedRegexFeature(f"named backreference in regex: {self.src!r}")
        if ch in "pP":
            raise UnsupportedRegexFeature(f"unicode property class in regex: {self.src!r}")
        if ch == "x":
            return self._hex(2)
        if ch == "u":
            if self.peek() == "{":
                raise MalformedSchema(f"braced unicode escape needs the u flag: {self.src!r}")
            return self._hex(4)
        if ch == "c":
            raise MalformedSchema(f"control escape in regex: {self.src!r}")
        if ch.isalnum():
            raise MalformedSchema(f"unknown escape \\{ch} in regex: {self.src!r}")
        return ord(ch)

    def _hex(self, width: int) -> int:
        if self.pos + width > len(self.src):
            raise MalformedSchema(f"truncated hex escape in regex: {self.src!r}")
        chunk = self.src[self.pos : self.pos + width]
        try:
            cp = int(chunk, 16)
        except ValueError:
            raise MalformedSchema(f"bad hex escape in regex: {self.src!r}") from None
        self.pos += width
        return cp


# ---------------------------------------------------------------------------
# Thompson construction. Epsilon edges carry an assertion kind:
# 0 plain, 1 start-of-string, 2 end-of-string.


class _Nfa:
    __slots__ = ("count", "char_edges", "eps_edges", "start", "accept")

    def __init__(self):
        self.count = 0
        self.char_edges: list[tuple[int, int, int, int]] = []  # (src, lo, hi, dst)
        self.eps_edges: list[tuple[int, int, int]] = []  # (src, kind, dst)
        self.start = 0
        self.accept = 0

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def eps(self, src: int, dst: int, kind: int = 0) -> None:
        self.eps_edges.append((src, kind, dst))

    def edge(self, src: int, lo: int, hi: int, dst: int) -> None:
        self.char_edges.append((src, lo, hi, dst))


def _build_nfa(ast) -> _Nfa:
    nfa = _Nfa()
    start, end = _frag(nfa, ast)
    nfa.start, nfa.accept = start, end
    return nfa


def _frag(nfa: _Nfa, ast) -> tuple[int, int]:
    kind = ast[0]
    if kind == "eps":
        s = nfa.state()
        e = nfa.state()
        nfa.eps(s, e)
        return s, e
    if kind == "bos" or kind == "eos":
        s = nfa.state()
        e = nfa.state()
        nfa.eps(s, e, 1 if kind == "bos" else 2)
        return s, e
    if kind == "class":
        s = nfa.state()
        e = nfa.state()
        for lo, hi in ast[1]:
            nfa.edge(s, lo, hi, e)
        return s, e
    if kind == "cat":
        first = None
        prev_end = None
        for part in ast[1]:
            ps, pe = _frag(nfa, part)
            if first is None:
                first = ps
            else:
                nfa.eps(prev_end, ps)
            prev_end = pe
        return first, prev_end
    if kind == "alt":
        s = nfa.state()
        e = nfa.state()
        for part in ast[1]:
            ps, pe = _frag(nfa, part)
            nfa.eps(s, ps)
            nfa.eps(pe, e)
        return s, e
    if kind == "star":
        s = nfa.state()
        e = nfa.state()
        ps, pe = _frag(nfa, ast[1])
        nfa.eps(s, ps)
        nfa.eps(s, e)
        nfa.eps(pe, ps)
        nfa.eps(pe, e)
        return s, e
    if kind == "rep":
        _, sub, lo, hi = ast
        s = cur = nfa.state()
        for _ in range(lo):
            ps, pe = _frag(nfa, sub)
            nfa.eps(cur, ps)
            cur = pe
        if hi is None:
            ps, pe = _frag(nfa, ("star", sub))
            nfa.eps(cur, ps)
            return s, pe
        # the optional copies nest, and each may skip straight to the end,
        # so no epsilon closure spans the chain
        e = nfa.state()
        for _ in range(hi - lo):
            nfa.eps(cur, e)
            ps, pe = _frag(nfa, sub)
            nfa.eps(cur, ps)
            cur = pe
        nfa.eps(cur, e)
        return s, e
    raise AssertionError(f"unknown ast node {ast!r}")


# ---------------------------------------------------------------------------
# Determinization. A configuration is (state, committed) where committed
# means an end-of-string assertion was crossed, so no further character
# may be consumed on this path. Start assertions are traversable only
# while the subset still sits at position zero.


@dataclass(frozen=True)
class Dfa:
    start: int
    accepting: frozenset[int]
    rows: tuple[tuple[tuple[int, int, int], ...], ...]  # complete, sorted

    def step(self, state: int, cp: int) -> int:
        row = self.rows[state]
        lo, hi = 0, len(row) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            a, b, t = row[mid]
            if cp < a:
                hi = mid - 1
            elif cp > b:
                lo = mid + 1
            else:
                return t
        raise AssertionError("incomplete transition row")

    def accepts(self, text: str) -> bool:
        q = self.start
        for ch in text:
            q = self.step(q, ord(ch))
        return q in self.accepting


def _determinize(nfa: _Nfa) -> Dfa:
    eps_from: list[list[tuple[int, int]]] = [[] for _ in range(nfa.count)]
    for src, kind, dst in nfa.eps_edges:
        eps_from[src].append((kind, dst))
    chars_from: list[list[tuple[int, int, int]]] = [[] for _ in range(nfa.count)]
    for src, lo, hi, dst in nfa.char_edges:
        chars_from[src].append((lo, hi, dst))

    def closure(configs: set[tuple[int, bool]], at_start: bool) -> frozenset[tuple[int, bool]]:
        seen = set(configs)
        stack = list(configs)
        while stack:
            q, committed = stack.pop()
            for kind, dst in eps_from[q]:
                if kind == 1 and not at_start:
                    continue
                cfg = (dst, committed or kind == 2)
                if cfg not in seen:
                    seen.add(cfg)
                    stack.append(cfg)
        return frozenset(seen)

    start_set = closure({(nfa.start, False)}, True)
    ids: dict[frozenset[tuple[int, bool]], int] = {start_set: 0}
    order = [start_set]
    rows: list[tuple[tuple[int, int, int], ...]] = []
    accepting: set[int] = set()

    def state_id(s: frozenset[tuple[int, bool]]) -> int:
        if s not in ids:
            ids[s] = len(order)
            order.append(s)
        return ids[s]

    i = 0
    while i < len(order):
        subset = order[i]
        if any(q == nfa.accept for q, _ in subset):
            accepting.add(i)
        edges = [
            (lo, hi, dst)
            for q, committed in subset
            if not committed
            for lo, hi, dst in chars_from[q]
        ]
        marks = sorted({lo for lo, _, _ in edges} | {hi + 1 for _, hi, _ in edges if hi < MAX_CP})
        row: list[tuple[int, int, int]] = []
        prev = 0
        for mark in marks + [MAX_CP + 1]:
            if prev >= mark:
                continue
            lo, hi = prev, mark - 1
            targets = {(dst, False) for elo, ehi, dst in edges if elo <= lo <= ehi}
            _extend(row, lo, hi, state_id(closure(targets, False)))
            prev = mark
        rows.append(tuple(row))
        i += 1

    return Dfa(0, frozenset(accepting), tuple(rows))


def _extend(row: list[tuple[int, int, int]], lo: int, hi: int, t: int) -> None:
    """Append [lo, hi] -> t to a row built in order, merging with the last interval."""
    if row and row[-1][2] == t:
        row[-1] = (row[-1][0], hi, t)
    else:
        row.append((lo, hi, t))


def _minimize(dfa: Dfa) -> Dfa:
    """Hopcroft's algorithm over a block index.

    Every DFA here is built breadth-first from its start state, so every
    state, and hence every block, is reachable. Blocks are numbered by
    their smallest state, which keeps the breadth-first numbering: equal
    languages compile to equal DFAs.
    """
    n = len(dfa.rows)
    marks = sorted({lo for row in dfa.rows for lo, _, _ in row})
    inv: list[dict[int, list[int]]] = [{} for _ in marks]  # symbol -> target -> sources
    for q, row in enumerate(dfa.rows):
        ri = 0
        for k, m in enumerate(marks):
            while row[ri][1] < m:
                ri += 1
            inv[k].setdefault(row[ri][2], []).append(q)

    blocks = [b for b in (set(dfa.accepting), set(range(n)) - dfa.accepting) if b]
    block_of = [0] * n
    for bi, block in enumerate(blocks):
        for q in block:
            block_of[q] = bi
    work = set(range(len(blocks)))
    while work:
        splitter = list(blocks[work.pop()])
        for pre in inv:
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for q in pre.get(t, ()):
                    touched.setdefault(block_of[q], []).append(q)
            for y, moved in touched.items():
                if len(moved) == len(blocks[y]):
                    continue
                z = len(blocks)
                blocks.append(set(moved))
                blocks[y].difference_update(moved)
                for q in moved:
                    block_of[q] = z
                work.add(z if y in work or len(moved) <= len(blocks[y]) else y)

    first: dict[int, int] = {}  # block -> its smallest state, ordered by that state
    for q, bi in enumerate(block_of):
        first.setdefault(bi, q)
    number = {bi: i for i, bi in enumerate(first)}
    rows = []
    for q in first.values():
        row: list[tuple[int, int, int]] = []
        for lo, hi, t in dfa.rows[q]:
            _extend(row, lo, hi, number[block_of[t]])
        rows.append(tuple(row))
    accepting = frozenset(number[block_of[q]] for q in dfa.accepting)
    return Dfa(number[block_of[dfa.start]], accepting, tuple(rows))


def _product(a: Dfa, b: Dfa, keep) -> Dfa:
    """Reachable product of two DFAs, accepting where keep(in a, in b); not minimal."""
    ids: dict[tuple[int, int], int] = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    rows: list[tuple[tuple[int, int, int], ...]] = []
    accepting: set[int] = set()
    i = 0
    while i < len(order):
        qa, qb = order[i]
        if keep(qa in a.accepting, qb in b.accepting):
            accepting.add(i)
        row: list[tuple[int, int, int]] = []
        ra, rb = a.rows[qa], b.rows[qb]
        ia = ib = 0
        lo = 0
        while lo <= MAX_CP:
            while ra[ia][1] < lo:
                ia += 1
            while rb[ib][1] < lo:
                ib += 1
            hi = min(ra[ia][1], rb[ib][1])
            pair = (ra[ia][2], rb[ib][2])
            if pair not in ids:
                ids[pair] = len(order)
                order.append(pair)
            _extend(row, lo, hi, ids[pair])
            lo = hi + 1
        rows.append(tuple(row))
        i += 1
    return Dfa(0, frozenset(accepting), tuple(rows))


def _flip(dfa: Dfa) -> Dfa:
    return Dfa(dfa.start, frozenset(range(len(dfa.rows))) - dfa.accepting, dfa.rows)


# ---------------------------------------------------------------------------
# Compilation cache

_DFA_CACHE: dict[PatternExpr, Dfa] = {}

_ANY_STAR = ("star", ("class", _FULL))


def compile_pattern(e: PatternExpr) -> Dfa:
    hit = _DFA_CACHE.get(e)
    if hit is not None:
        return hit
    if isinstance(e, PRegex):
        ast = _parse_regex(e.source)
        dfa = _minimize(_determinize(_build_nfa(("cat", (_ANY_STAR, ast, _ANY_STAR)))))
    elif isinstance(e, PKey):
        parts = tuple(("class", ((ord(c), ord(c)),)) for c in e.literal)
        ast = ("cat", parts) if parts else ("eps",)
        dfa = _minimize(_determinize(_build_nfa(ast)))
    elif isinstance(e, (PMinLen, PMaxLen)):
        # state i counts i characters read; the last state absorbs the rest
        last = e.bound + isinstance(e, PMaxLen)
        rows = tuple(((0, MAX_CP, min(i + 1, last)),) for i in range(last + 1))
        accepting = (last,) if isinstance(e, PMinLen) else range(last)
        dfa = Dfa(0, frozenset(accepting), rows)
    elif isinstance(e, PNot):
        dfa = _flip(compile_pattern(e.item))
    elif isinstance(e, (PAll, PAny)):
        keep = and_ if isinstance(e, PAll) else or_
        dfa = compile_pattern(e.items[0])
        for it in e.items[1:]:
            # minimizing each step keeps the next product small
            dfa = _minimize(_product(dfa, compile_pattern(it), keep))
    else:
        raise AssertionError(f"unknown pattern expression {e!r}")
    _DFA_CACHE[e] = dfa
    return dfa


def p_matches(e: PatternExpr, text: str) -> bool:
    return compile_pattern(e).accepts(text)


def p_is_empty(e: PatternExpr) -> bool:
    keys = _key_set(e)
    if keys is not None:
        return keys == _NO_NAMES
    return not compile_pattern(e).accepting


# The two relations are the most frequent calls of normalization, so each
# decides key sets inline rather than through a shared helper.
def p_subset(a: PatternExpr, b: PatternExpr) -> bool:
    ka, kb = _key_set(a), _key_set(b)
    if ka is not None and kb is not None:
        (na, ca), (nb, cb) = ka, kb
        if ca:
            return cb and nb <= na
        return na.isdisjoint(nb) if cb else na <= nb
    if a == b or ka == _NO_NAMES or kb == _ALL_NAMES:
        return True
    if ka == _ALL_NAMES:
        return p_is_empty(p_not(b))
    return _product_is_empty(a, b, negate_b=True)


def p_disjoint(a: PatternExpr, b: PatternExpr) -> bool:
    ka, kb = _key_set(a), _key_set(b)
    if ka is not None and kb is not None:
        (na, ca), (nb, cb) = ka, kb
        if ca:
            return not cb and nb <= na
        return na <= nb if cb else na.isdisjoint(nb)
    if _NO_NAMES in (ka, kb):
        return True
    if _ALL_NAMES in (ka, kb):
        return p_is_empty(b if ka == _ALL_NAMES else a)
    return _product_is_empty(a, b, negate_b=False)


def _product_is_empty(a: PatternExpr, b: PatternExpr, negate_b: bool) -> bool:
    """Whether no string is in a and in b (in a and not in b when negate_b).
    Minimizing never changes emptiness, so the raw product answers it."""
    keep = lambda x, y: x and y != negate_b
    return not _product(compile_pattern(a), compile_pattern(b), keep).accepting


def p_equiv(a: PatternExpr, b: PatternExpr) -> bool:
    return p_subset(a, b) and p_subset(b, a)


def p_example(e: PatternExpr) -> Optional[str]:
    """Shortest member, ties broken by smallest code points; None if empty."""
    got = p_examples(e, 1)
    return got[0] if got else None


def p_examples(e: PatternExpr, k: int) -> list[str]:
    """The first k members (all of them if fewer) in shortest-then-
    lexicographic order.

    Prefixes leave the heap in that order, and the order survives appending
    a suffix. So once k prefixes have reached a state, every member through
    a later prefix to that state is beaten by k others, and the search drops
    it: at most k prefixes per state are expanded.
    """
    dfa = compile_pattern(e)
    live = _coreachable(dfa)
    out: list[str] = []
    visits = [0] * len(dfa.rows)
    # heap entries: (length, text, state, sibling_hi). sibling_hi is the top
    # of the interval the last character was drawn from; every character of
    # one interval reaches the same state, so the next sibling is enqueued
    # only when this one is expanded.
    heap: list[tuple[int, str, int, int]] = [(0, "", dfa.start, -1)] if dfa.start in live else []
    while heap and len(out) < k:
        length, text, q, sib_hi = heapq.heappop(heap)
        if visits[q] == k:
            continue
        visits[q] += 1
        if text and ord(text[-1]) < sib_hi:
            heapq.heappush(heap, (length, text[:-1] + chr(ord(text[-1]) + 1), q, sib_hi))
        if q in dfa.accepting:
            out.append(text)
        for lo, hi, t in dfa.rows[q]:
            if t in live:
                heapq.heappush(heap, (length + 1, text + chr(lo), t, hi))
    return out


def _coreachable(dfa: Dfa) -> frozenset[int]:
    rev: dict[int, set[int]] = {}
    for q, row in enumerate(dfa.rows):
        for _, _, t in row:
            rev.setdefault(t, set()).add(q)
    seen = set(dfa.accepting)
    stack = list(dfa.accepting)
    while stack:
        q = stack.pop()
        for p in rev.get(q, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Regex source extraction (for serializing name patterns that are not a
# plain regex already). Works on the minimal DFA by state elimination.

_CLASS_META = set("\\^$.|?*+()[]{}/")
_IN_CLASS_META = set("\\]^-")


def _cp_source(cp: int, in_class: bool) -> str:
    named = {0x0A: "\\n", 0x0D: "\\r", 0x09: "\\t", 0x0C: "\\f", 0x0B: "\\v"}
    if cp in named:
        return named[cp]
    ch = chr(cp)
    meta = _IN_CLASS_META if in_class else _CLASS_META
    if ch in meta:
        return "\\" + ch
    if 0x20 <= cp < 0x7F:
        return ch
    if cp <= 0xFFFF:
        return f"\\u{cp:04x}"
    return ch  # embedded literally; JSON escaping handles transport


def _class_source(ivs: tuple[Interval, ...]) -> str:
    if ivs == _FULL:
        return "[\\s\\S]"
    if len(ivs) == 1 and ivs[0][0] == ivs[0][1]:
        return _cp_source(ivs[0][0], in_class=False)
    comp = _complement(ivs)
    body, neg = (ivs, "") if len(ivs) <= len(comp) else (comp, "^")
    parts = []
    for lo, hi in body:
        if lo == hi:
            parts.append(_cp_source(lo, in_class=True))
        elif hi == lo + 1:
            parts.append(_cp_source(lo, in_class=True) + _cp_source(hi, in_class=True))
        else:
            parts.append(f"{_cp_source(lo, True)}-{_cp_source(hi, True)}")
    return f"[{neg}{''.join(parts)}]"


def _ast_source(ast, prec: int = 0) -> str:
    # prec: 0 alternation, 1 concatenation, 2 repeatable atom
    kind = ast[0]
    if kind == "eps":
        src, level = "", 1
    elif kind == "class":
        if not ast[1]:
            # empty class matches nothing; callers avoid emitting this
            src, level = "[^\\s\\S]", 2
        else:
            src, level = _class_source(ast[1]), 2
    elif kind == "cat":
        src, level = "".join(_ast_source(p, 1) for p in ast[1]), 1
    elif kind == "alt":
        src, level = "|".join(_ast_source(p, 0) for p in ast[1]), 0
    elif kind == "star":
        src, level = _ast_source(ast[1], 2) + "*", 1
    else:
        raise AssertionError(f"unexpected node in source rendering: {ast!r}")
    if level < prec or (kind == "eps" and prec >= 1):
        return f"(?:{src})"
    return src


def regex_source(e: PatternExpr) -> Optional[str]:
    """Anchored ECMA regex for the full language of e; None if empty."""
    dfa = compile_pattern(e)
    if not dfa.accepting:
        return None
    ast = _eliminate(dfa)
    return "^(?:" + _ast_source(ast, 0) + ")$"


def _alt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    parts = (a[1] if a[0] == "alt" else (a,)) + (b[1] if b[0] == "alt" else (b,))
    return ("alt", parts)


def _cat(a, b):
    if a[0] == "eps":
        return b
    if b[0] == "eps":
        return a
    parts = (a[1] if a[0] == "cat" else (a,)) + (b[1] if b[0] == "cat" else (b,))
    return ("cat", parts)


def _eliminate(dfa: Dfa):
    n = len(dfa.rows)
    start, end = n, n + 1
    edges: dict[tuple[int, int], object] = {}

    def add(i: int, j: int, ast) -> None:
        edges[(i, j)] = _alt(edges.get((i, j)), ast)

    add(start, dfa.start, ("eps",))
    for q in dfa.accepting:
        add(q, end, ("eps",))
    live = _coreachable(dfa)
    for q, row in enumerate(dfa.rows):
        if q not in live:
            continue
        by_target: dict[int, list[Interval]] = {}
        for lo, hi, t in row:
            if t in live:
                by_target.setdefault(t, []).append((lo, hi))
        for t, ivs in by_target.items():
            add(q, t, ("class", _norm_intervals(ivs)))

    for q in range(n):
        if q == start or q == end:
            continue
        self_loop = edges.pop((q, q), None)
        loop = ("star", self_loop) if self_loop is not None else None
        ins = [(i, a) for (i, j), a in edges.items() if j == q]
        outs = [(j, a) for (i, j), a in edges.items() if i == q]
        for (i, j) in [k for k in edges if k[0] == q or k[1] == q]:
            edges.pop((i, j), None)
        for i, a_in in ins:
            for j, a_out in outs:
                mid = a_in
                if loop is not None:
                    mid = _cat(mid, loop)
                add(i, j, _cat(mid, a_out))
    final = edges.get((start, end))
    if final is None:
        raise AssertionError("state elimination lost the language")
    return final


def escape_literal(text: str) -> str:
    """Regex source matching exactly this text (for anchored key patterns)."""
    return "".join(_cp_source(ord(c), in_class=False) for c in text)


def anchored_key_source(literal: str) -> str:
    return "^" + escape_literal(literal) + "$"

"""Decidable algebra of string and property-name patterns.

Pattern expressions combine a regex subset, key sets, and length bounds
under boolean operations. A key set (PKeys) is one node: a finite set of
names, or every string except them. The constructors fold every boolean
combination of key sets into one such node, so TOP and BOTTOM are key
sets too. Every expression compiles to a minimal DFA over Unicode code
point intervals, which makes emptiness, inclusion, disjointness and
example extraction all decidable. Regexes, key sets and length bounds
all compile one way: Thompson construction, determinize, minimize.
Compiled automata are cached per canonical expression. Relations between
two key sets are decided by set algebra without touching automata; the
others test the reachable product of the two automata for an accepting
state, without minimizing it.
Example extraction is exact too: it returns the first k members in
shortest-then-lexicographic order, expanding at most k prefixes per state.

Regexes follow ECMA-262 search semantics: an unanchored pattern matches
anywhere in the string, and ^/$ are honored wherever they occur. The
supported subset excludes backreferences, lookaround and word boundary
assertions; those raise UnsupportedRegexFeature.
No automaton is written back as a regex: a regex keeps its source.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import and_, itemgetter, or_
from typing import Iterable, Optional

from .errors import MalformedSchema, UnsupportedFeature, UnsupportedRegexFeature

MAX_CP = 0x10FFFF
MAX_BOUND = 4096

Interval = tuple[int, int]
_LO = itemgetter(0)  # a transition's lowest code point

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
    """Base class; subclasses are values by contract (see `model`) and
    hash-comparable."""

    __slots__ = ()

    def _rank(self) -> tuple:
        raise NotImplementedError


@dataclass(slots=True, unsafe_hash=True)
class PRegex(PatternExpr):
    source: str

    def _rank(self):
        return (1, self.source)


@dataclass(slots=True)
class PKeys(PatternExpr):
    """The listed names, or every string except them when cofinite."""

    names: frozenset[str]
    cofinite: bool = False
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.names, self.cofinite))
        return h

    def _rank(self):
        return (0, self.cofinite, tuple(sorted(self.names)))


@dataclass(slots=True, unsafe_hash=True)
class PMinLen(PatternExpr):
    bound: int

    def _rank(self):
        return (2, self.bound)


@dataclass(slots=True, unsafe_hash=True)
class PMaxLen(PatternExpr):
    bound: int

    def _rank(self):
        return (3, self.bound)


@dataclass(slots=True, unsafe_hash=True)
class PNot(PatternExpr):
    item: PatternExpr

    def _rank(self):
        return (4, self.item._rank())


@dataclass(slots=True, unsafe_hash=True)
class PAll(PatternExpr):
    items: tuple[PatternExpr, ...]

    def _rank(self):
        return (5, tuple(i._rank() for i in self.items))


@dataclass(slots=True, unsafe_hash=True)
class PAny(PatternExpr):
    items: tuple[PatternExpr, ...]

    def _rank(self):
        return (6, tuple(i._rank() for i in self.items))


TOP = PKeys(frozenset(), True)
BOTTOM = PKeys(frozenset())


def regex(source: str) -> PatternExpr:
    """Pattern from an ECMA-style regex, search semantics. Parses eagerly."""
    if not isinstance(source, str):
        raise MalformedSchema(f"regex must be a string, got {source!r}")
    _parse_regex(source)
    return PRegex(source)


def key(literal: str) -> PatternExpr:
    return PKeys(frozenset((literal,)))


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
    if type(e) is PKeys:
        return PKeys(e.names, not e.cofinite)
    if isinstance(e, PNot):
        return e.item
    return PNot(e)


def p_and(*items: PatternExpr) -> PatternExpr:
    return _fold(items, PAll, TOP, False)


def p_or(*items: PatternExpr) -> PatternExpr:
    return _fold(items, PAny, BOTTOM, True)


def _fold(items: tuple[PatternExpr, ...], node: type, unit: PKeys, flip: bool) -> PatternExpr:
    """Flatten items into one node (PAll, or PAny when flip), meeting every
    key set among them (joining, when flip) into a single PKeys."""
    keys = unit
    rest: set[PatternExpr] = set()
    for it in items:
        for sub in it.items if type(it) is node else (it,):
            if type(sub) is PKeys:
                keys = _meet(keys, sub, flip)
                if not keys.names and keys.cofinite == flip:
                    return keys  # no names, or every name
            else:
                rest.add(sub)
    parts = sorted(rest, key=lambda e: e._rank())
    if keys != unit:
        parts.insert(0, keys)
    if len(parts) == 1:
        return parts[0]
    return node(tuple(parts)) if parts else unit


def _meet(a: PKeys, b: PKeys, flip: bool) -> PKeys:
    """Intersection of two key sets; their union when flip, as the
    complement of the intersection of the complements."""
    ca, cb = a.cofinite != flip, b.cofinite != flip
    if ca:
        names = a.names | b.names if cb else b.names - a.names
    else:
        names = a.names - b.names if cb else a.names & b.names
    return PKeys(names, (ca and cb) != flip)


def p_diff(a: PatternExpr, b: PatternExpr) -> PatternExpr:
    return p_and(a, p_not(b))


def key_literal(e: PatternExpr) -> Optional[str]:
    """The name if e is a one-name finite key set, else None."""
    if type(e) is PKeys and len(e.names) == 1 and not e.cofinite:
        (name,) = e.names
        return name
    return None


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


# ECMA-262 reads only ASCII digits, where str.isdigit() and int() take any
_DECIMAL = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_QUANTIFIER = re.compile(r"\{([0-9]+)(?:,([0-9]*))?\}")


def _bound(digits: str) -> int:
    # int() refuses thousands of digits; any bound that wide is over MAX_BOUND
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= len(str(MAX_BOUND)) else MAX_BOUND + 1


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
        """The bounds of the {lo}, {lo,} or {lo,hi} at the cursor, read past
        it; None, the cursor unmoved, where the brace is a literal."""
        m = _QUANTIFIER.match(self.src, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        lo = _bound(m[1])
        hi = lo if m[2] is None else _bound(m[2]) if m[2] else None
        if hi is not None and hi < lo:
            raise MalformedSchema(f"reversed repetition bounds in regex: {self.src!r}")
        if (hi or lo) > MAX_BOUND:
            raise UnsupportedRegexFeature(
                f"repetition bound {m[2] or m[1]} above the supported limit {MAX_BOUND}"
            )
        return (lo, hi)

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
            if self.peek() in _DECIMAL:
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
            return self._hex(ch, 2)
        if ch == "u":
            if self.peek() == "{":
                raise MalformedSchema(f"braced unicode escape needs the u flag: {self.src!r}")
            return self._hex(ch, 4)
        if ch == "c":
            raise MalformedSchema(f"control escape in regex: {self.src!r}")
        if ch.isascii() and ch.isalnum():
            raise MalformedSchema(f"unknown escape \\{ch} in regex: {self.src!r}")
        # any other character escapes itself (ECMA-262 Annex B identity escape)
        return ord(ch)

    def _hex(self, letter: str, width: int) -> int:
        """The code unit of \\x or \\u and its run of hex digits. Without the
        full run the escape is the letter itself, as ECMA-262 Annex B reads it."""
        chunk = self.src[self.pos : self.pos + width]
        if len(chunk) < width or not _HEX_DIGITS.issuperset(chunk):
            return ord(letter)
        self.pos += width
        return int(chunk, 16)


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

    def accepts(self, text: str) -> bool:
        q, rows = self.start, self.rows
        for ch in text:
            row = rows[q]
            q = row[bisect_right(row, ord(ch), key=_LO) - 1][2]
        return q in self.accepting

    @cached_property
    def live(self) -> frozenset[int]:
        """The states from which some accepting state is reachable."""
        rev: dict[int, set[int]] = {}
        for q, row in enumerate(self.rows):
            for _, _, t in row:
                rev.setdefault(t, set()).add(q)
        seen = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            q = stack.pop()
            for p in rev.get(q, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)


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


def _literal_ast(text: str):
    parts = tuple(("class", ((ord(c), ord(c)),)) for c in text)
    return ("cat", parts) if parts else ("eps",)


def compile_pattern(e: PatternExpr) -> Dfa:
    hit = _DFA_CACHE.get(e)
    if hit is not None:
        return hit
    if isinstance(e, PNot):
        dfa = _flip(compile_pattern(e.item))
    elif isinstance(e, (PAll, PAny)):
        keep = and_ if isinstance(e, PAll) else or_
        dfa = compile_pattern(e.items[0])
        for it in e.items[1:]:
            # minimizing each step keeps the next product small
            dfa = _minimize(_product(dfa, compile_pattern(it), keep))
    else:
        if isinstance(e, PRegex):
            ast = ("cat", (_ANY_STAR, _parse_regex(e.source), _ANY_STAR))
        elif isinstance(e, PKeys):
            ast = ("alt", tuple(_literal_ast(name) for name in sorted(e.names)))
        elif isinstance(e, PMinLen):
            ast = ("rep", ("class", _FULL), e.bound, None)
        elif isinstance(e, PMaxLen):
            ast = ("rep", ("class", _FULL), 0, e.bound)
        else:
            raise AssertionError(f"unknown pattern expression {e!r}")
        dfa = _minimize(_determinize(_build_nfa(ast)))
        if isinstance(e, PKeys) and e.cofinite:
            dfa = _flip(dfa)
    _DFA_CACHE[e] = dfa
    return dfa


def p_matches(e: PatternExpr, text: str) -> bool:
    return compile_pattern(e).accepts(text)


def p_is_empty(e: PatternExpr) -> bool:
    if type(e) is PKeys:
        return not e.names and not e.cofinite
    return not compile_pattern(e).accepting


# The two relations are the most frequent calls of normalization, so each
# decides two key sets inline by set algebra, without automata. Subset is
# disjointness from the complement. A finite key set against any other
# pattern is settled by membership tests of its names, and a cofinite one
# with no names by one emptiness test; the rest test the reachable product.
def p_subset(a: PatternExpr, b: PatternExpr) -> bool:
    if type(a) is PKeys and type(b) is PKeys:
        na, nb = a.names, b.names
        if a.cofinite:
            return b.cofinite and nb <= na
        return na.isdisjoint(nb) if b.cofinite else na <= nb
    return a == b or p_disjoint(a, p_not(b))


def p_disjoint(a: PatternExpr, b: PatternExpr) -> bool:
    if type(b) is PKeys and type(a) is not PKeys:
        a, b = b, a
    if type(a) is PKeys:
        na = a.names
        if type(b) is PKeys:
            nb = b.names
            if a.cofinite:
                return not b.cofinite and nb <= na
            return na <= nb if b.cofinite else na.isdisjoint(nb)
        if not a.cofinite:
            return not any(map(compile_pattern(b).accepts, na))
        if not na:
            return p_is_empty(b)
    # minimizing never changes emptiness, so the raw product answers it
    return not _product(compile_pattern(a), compile_pattern(b), and_).accepting


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
    live = dfa.live
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

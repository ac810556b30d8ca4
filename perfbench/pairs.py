"""Seeded schema pairs from the grammar of the acceptance `c1` family.

The benchmark keeps its own copy of that grammar, so a later change to
the tests cannot move the `pair-mix` and `oracle-mix` workloads; for the
same seed it draws the same stream as the tests' generator.  The grammar
keeps every observation shallow: structural keywords sit at the top
level and observe only scalars and bare container types, numbers come
from seven fixed decimals, and name patterns stay within single-character
classes over {a, b}.

Half of the pairs are inclusions by construction (`kind` "superset" or
"subset"), so their verdict is known without running the checker.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from jsonsub.values import parse_json

DECIMALS = (
    Fraction(-1),
    Fraction(0),
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(5, 2),
)
FACTORS = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2))
STRING_PATTERNS = ("^a", "b$", "^(a|b)*$", "^ab$", "a")
NAME_PATTERN = "^[ab]$"
TYPES = ("null", "boolean", "number", "string", "array", "object")


@dataclass(frozen=True)
class Pair:
    """Two schemas as JSON text, and how the pair was built.

    `kind` is "superset" (right = anyOf[left, extra]), "subset"
    (left = allOf[right, extra]) or "random"; the first two are
    inclusions by construction.
    """

    index: int
    kind: str
    left_text: str
    right_text: str

    @property
    def known_included(self) -> bool | None:
        return True if self.kind != "random" else None


def _dec(q: Fraction):
    # plain JSON numbers; parse_json restores exact values
    return int(q) if q.denominator == 1 else float(q)


def _scalar_leaf(rng: random.Random) -> dict:
    roll = rng.randrange(9)
    if roll == 0:
        return {"type": rng.choice(TYPES)}
    if roll == 1:
        return {"type": rng.sample(TYPES, 2)}
    if roll == 2:
        c = rng.choice([*DECIMALS, True, False])
        return {"const": _dec(c) if isinstance(c, Fraction) else c}
    if roll == 3:
        pool = [*(_dec(d) for d in DECIMALS), True, False, "a", "b"]
        return {"enum": rng.sample(pool, rng.randrange(1, 4))}
    if roll == 4:
        key = rng.choice(["minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"])
        return {key: _dec(rng.choice(DECIMALS))}
    if roll == 5:
        return {"multipleOf": _dec(rng.choice(FACTORS))}
    if roll == 6:
        return {"pattern": rng.choice(STRING_PATTERNS)}
    if roll == 7:
        return {"minLength": rng.randrange(3)}
    return {"maxLength": rng.randrange(2)}


def _arg_schema(rng: random.Random):
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice([True, False])
    if roll == 1:
        return {"allOf": [_scalar_leaf(rng), _scalar_leaf(rng)]}
    if roll == 2:
        return {"anyOf": [_scalar_leaf(rng), _scalar_leaf(rng)]}
    if roll == 3:
        return {"not": _scalar_leaf(rng)}
    return _scalar_leaf(rng)


def _object_atom(rng: random.Random) -> dict:
    roll = rng.randrange(5)
    if roll == 0:
        out: dict = {"properties": {}}
        for key in rng.sample(["a", "b"], rng.randrange(1, 3)):
            out["properties"][key] = _arg_schema(rng)
        if rng.random() < 0.4:
            out["required"] = [rng.choice(sorted(out["properties"]))]
        if rng.random() < 0.4:
            out["additionalProperties"] = _arg_schema(rng)
        return out
    if roll == 1:
        return {"patternProperties": {NAME_PATTERN: _arg_schema(rng)}}
    if roll == 2:
        return {"required": [rng.choice(["a", "b"])]}
    if roll == 3:
        return {"minProperties": rng.randrange(3)}
    return {"maxProperties": rng.randrange(2)}


def _array_atom(rng: random.Random) -> dict:
    roll = rng.randrange(5)
    if roll == 0:
        return {"items": _arg_schema(rng)}
    if roll == 1:
        if rng.random() < 0.5:
            out = {"items": [_arg_schema(rng)]}
            if rng.random() < 0.6:
                out["additionalItems"] = _arg_schema(rng)
            return out
        return {"items": [_arg_schema(rng), _arg_schema(rng)]}
    if roll == 2:
        return {"contains": _arg_schema(rng)}
    if roll == 3:
        return {"minItems": rng.randrange(3)}
    return {"maxItems": rng.randrange(2)}


def _atom(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.35:
        return _object_atom(rng)
    if roll < 0.7:
        return _array_atom(rng)
    return _scalar_leaf(rng)


def _schema(rng: random.Random):
    roll = rng.randrange(8)
    if roll == 0:
        return rng.choice([True, False])
    if roll <= 2:
        return _atom(rng)
    if roll <= 4:
        comb = rng.choice(["allOf", "anyOf", "oneOf"])
        return {comb: [_atom(rng) for _ in range(rng.randrange(2, 4))]}
    if roll == 5:
        return {"not": _atom(rng)}
    if roll == 6:
        return {"allOf": [{"anyOf": [_atom(rng), _atom(rng)]}, _atom(rng)]}
    merged: dict = {}
    for _ in range(2):
        a = _atom(rng)
        if all(k not in merged for k in a):
            merged.update(a)
    return merged or _atom(rng)


def draw_pairs(seed: int, count: int) -> list[Pair]:
    """The first `count` pairs of the family's stream for `seed`."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        left = _schema(rng)
        roll = rng.random()
        if roll < 0.25:
            kind, right = "superset", {"anyOf": [left, _atom(rng)]}
        elif roll < 0.5:
            kind, right, left = "subset", left, {"allOf": [left, _atom(rng)]}
        else:
            kind, right = "random", _schema(rng)
        out.append(Pair(i, kind, json.dumps(left), json.dumps(right)))
    return out


def parse_pair(pair: Pair) -> tuple[Any, Any]:
    """Raw parsed values, numbers exact, as the public API takes them."""
    return parse_json(pair.left_text), parse_json(pair.right_text)

"""Restricted schema generator whose semantics a bounded universe captures.

Schemas drawn here keep every observation shallow on purpose:

- structural keywords appear only at the top level, and their argument
  schemas observe scalars and bare container types, never lengths or
  nested structure;
- numeric constants come from seven fixed decimals, so interval and
  divisibility distinctions all fall on a known probe set;
- name patterns stay within single-character classes over {a, b}, so
  objects over the keys {a, b, c} exhaust every field-partition case
  (c stands for "any name the schema did not mention");
- at most one array slot is constrained when a tail schema is present,
  and length bounds stay at or below two.

Under those rules any two generated schemas that differ at all differ on
a value of depth at most 2 and width at most 3 built from the probe
scalars, which is exactly the universe `universe_for` returns.  The
claim is load-bearing for the oracle-agreement suite; widen the grammar
only together with the universe argument.
"""

import random
from fractions import Fraction

from jsonsub.engine import UniverseParams, derive_universe
from jsonsub.values import parse_json
import json

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

SENTINEL_NUMBERS = (Fraction(-2), Fraction(3))
FIXED_STRINGS = ("", "a", "b", "ab", "ba", "aa", "bb", "aaa")


def _dec(q: Fraction):
    # keep generated schemas JSON-plain; parse_json restores exactness
    return int(q) if q.denominator == 1 else float(q)


def scalar_leaf(rng: random.Random) -> dict:
    roll = rng.randrange(9)
    if roll == 0:
        return {"type": rng.choice(TYPES)}
    if roll == 1:
        picks = rng.sample(TYPES, 2)
        return {"type": picks}
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


def arg_schema(rng: random.Random):
    """Argument for a structural keyword: scalar observations only."""
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice([True, False])
    if roll == 1:
        return {"allOf": [scalar_leaf(rng), scalar_leaf(rng)]}
    if roll == 2:
        return {"anyOf": [scalar_leaf(rng), scalar_leaf(rng)]}
    if roll == 3:
        return {"not": scalar_leaf(rng)}
    return scalar_leaf(rng)


def object_atom(rng: random.Random) -> dict:
    roll = rng.randrange(5)
    if roll == 0:
        out: dict = {"properties": {}}
        for key in rng.sample(["a", "b"], rng.randrange(1, 3)):
            out["properties"][key] = arg_schema(rng)
        if rng.random() < 0.4:
            out["required"] = [rng.choice(sorted(out["properties"]))]
        if rng.random() < 0.4:
            out["additionalProperties"] = arg_schema(rng)
        return out
    if roll == 1:
        return {"patternProperties": {NAME_PATTERN: arg_schema(rng)}}
    if roll == 2:
        return {"required": [rng.choice(["a", "b"])]}
    if roll == 3:
        return {"minProperties": rng.randrange(3)}
    return {"maxProperties": rng.randrange(2)}


def array_atom(rng: random.Random) -> dict:
    roll = rng.randrange(5)
    if roll == 0:
        return {"items": arg_schema(rng)}
    if roll == 1:
        if rng.random() < 0.5:
            out = {"items": [arg_schema(rng)]}
            if rng.random() < 0.6:
                out["additionalItems"] = arg_schema(rng)
            return out
        return {"items": [arg_schema(rng), arg_schema(rng)]}
    if roll == 2:
        return {"contains": arg_schema(rng)}
    if roll == 3:
        return {"minItems": rng.randrange(3)}
    return {"maxItems": rng.randrange(2)}


def atom(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.35:
        return object_atom(rng)
    if roll < 0.7:
        return array_atom(rng)
    return scalar_leaf(rng)


def gen_schema(rng: random.Random):
    roll = rng.randrange(8)
    if roll == 0:
        return rng.choice([True, False])
    if roll <= 2:
        return atom(rng)
    if roll <= 4:
        comb = rng.choice(["allOf", "anyOf", "oneOf"])
        return {comb: [atom(rng) for _ in range(rng.randrange(2, 4))]}
    if roll == 5:
        return {"not": atom(rng)}
    if roll == 6:
        inner = {"anyOf": [atom(rng), atom(rng)]}
        return {"allOf": [inner, atom(rng)]}
    merged = {}
    for _ in range(2):
        a = atom(rng)
        if all(k not in merged for k in a):
            merged.update(a)
    return merged or atom(rng)


def gen_pair(rng: random.Random):
    """A schema pair; roughly half are inclusions by construction."""
    s1 = gen_schema(rng)
    roll = rng.random()
    if roll < 0.25:
        # guaranteed superset: anyOf with an extra branch
        s2 = {"anyOf": [s1, atom(rng)]}
    elif roll < 0.5:
        # guaranteed subset on the left: allOf with an extra conjunct
        s2 = s1
        s1 = {"allOf": [s2, atom(rng)]}
    else:
        s2 = gen_schema(rng)
    return _exact(s1), _exact(s2)


def alias_chain(n: int) -> dict:
    """A chain of n $ref-only definitions a0 -> a1 -> ... ending in a string."""
    defs = {f"a{i}": {"$ref": f"#/definitions/a{i + 1}"} for i in range(n)}
    defs[f"a{n}"] = {"type": "string"}
    return {"$ref": "#/definitions/a0", "definitions": defs}


def _exact(schema):
    return parse_json(json.dumps(schema))


def universe_for(docs) -> UniverseParams:
    """Universe bounds that exhaust the family's observable distinctions."""
    roots = [d.root for d in docs]
    env = docs[0].env.copy()
    for d in docs[1:]:
        env.bindings.update(d.env.bindings)
    return derive_universe(
        roots,
        env,
        max_depth=2,
        max_width=3,
        max_count=500_000,
        extra_keys=("a", "b", "c"),
        extra_strings=FIXED_STRINGS,
        extra_numbers=(*DECIMALS, *SENTINEL_NUMBERS),
    )

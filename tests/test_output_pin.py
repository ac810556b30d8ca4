"""Output pin: verdicts and witnesses of a fixed set of 8054 checks.

The set is the 4000 first `_family.gen_pair` pairs of seeds 7 and 8 (the
stream `perfbench/pairs.draw_pairs` draws for the same seeds), plus
`rec_depth(n)` for n = 8..48 and `self_incl(n, n)` for n = 4..16. One
sha256 covers the `(verdict, dump_json(witness))` rows in that order, so
a refactor of the normalizer or the witness stage that changes any
verdict or any witness fails here. A change that means to alter outputs
re-records the digest and says which rows moved and why.

The test also sums every `Stats` field but `elapsed` over the same checks,
so a change that moves the work the normalizer and the witness stage do
(steps, memo hits, fast-pass hits, ...) fails here too, and re-records
`TOTALS` with the cause of the move.

A last test reverses the item lists and key orders of the 8000 pairs and
requires every verdict to stay as it was; witnesses may move.
"""

import hashlib
import random
from collections import Counter

from jsonsub import check_inclusion, dump_json
from jsonsub.families import rec_depth, self_incl

from _family import gen_pair

DIGEST = "d020d0a03d8b3f503fcde0fb25e1659a57358632d4b8730f50a39bf86fe5d1fe"

TOTALS = {
    "steps": 592_643,
    "fast_path_hits": 9_268,
    "fast_path_misses": 10_132,
    "crefs_created": 8_091,
    "memo_hits": 27_518,
    "max_disjuncts": 18_591,
    "cs_calls": 269_604,
    "gen_rounds": 3_412,
    "gen_budget_hits": 0,
    "generation_invoked": 2_673,
}


def _pair_mix():
    for seed in (7, 8):
        rng = random.Random(seed)
        for _ in range(4000):
            yield gen_pair(rng)


def _checks():
    yield from _pair_mix()
    for n in range(8, 49):
        yield rec_depth(n)
    for n in range(4, 17):
        yield self_incl(n, n)


def test_outputs_unchanged_on_the_8054_checks():
    h = hashlib.sha256()
    count = 0
    totals: Counter = Counter()
    for left, right in _checks():
        res = check_inclusion(left, right)
        h.update(f"{res.verdict}\t{dump_json(res.witness, indent=None)}\n".encode())
        count += 1
        stats = res.stats.as_dict()
        del stats["elapsed"]
        totals.update(stats)
    assert count == 8054
    assert h.hexdigest() == DIGEST
    assert dict(totals) == TOTALS


_SCHEMA_LISTS = ("allOf", "anyOf", "oneOf")
_SCHEMA_MAPS = ("properties", "definitions", "patternProperties", "dependencies")
_SCHEMAS = ("not", "items", "additionalItems", "contains", "additionalProperties",
            "propertyNames")


def _reversed(schema):
    """The raw schema with every allOf/anyOf/oneOf item list and the key
    order of every schema map (properties, definitions, ...) reversed,
    subschemas included."""
    if not isinstance(schema, dict):
        return schema
    out = {}
    for key, value in schema.items():
        if key in _SCHEMA_LISTS:
            value = [_reversed(v) for v in reversed(value)]
        elif key in _SCHEMA_MAPS:
            value = {name: _reversed(value[name]) for name in reversed(value)}
        elif key in _SCHEMAS:
            value = [_reversed(v) for v in value] if isinstance(value, list) else _reversed(value)
        out[key] = value
    return out


def test_verdicts_do_not_depend_on_the_order_of_items_or_keys():
    # the normalizer folds an allOf in an order of its own, so the order a
    # schema is written in may move a witness but never a verdict
    for left, right in _pair_mix():
        want = check_inclusion(left, right).verdict
        got = check_inclusion(_reversed(left), _reversed(right)).verdict
        assert got == want, (left, right)

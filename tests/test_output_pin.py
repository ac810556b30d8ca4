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

Run as a script, the module writes the rows, whether each check ran
witness generation, the counter sums and the depth limits to a file, or
lists what moved between two such files: the rows, the rows whose settling
stage moved (normalization alone or generation), the counters and the
limits, then one summary line that counts the moved verdicts, witnesses
and stages. The limits are the largest n at which `rec_depth(n)`, an
`_family.alias_chain(n)` against `{"type": "string"}` and the reverse check
settle on a thread of their own rather than raise `RecursionError`, found
by bisection up to a cap. A file written before the stage or the limits
were recorded still compares on the rest.

    PYTHONPATH=src:tests python tests/test_output_pin.py --dump FILE
    PYTHONPATH=src:tests python tests/test_output_pin.py --diff OLD NEW
"""

import hashlib
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from jsonsub import check_inclusion, dump_json
from jsonsub.families import rec_depth, self_incl

from _family import alias_chain, gen_pair

DIGEST = "ac73295bd709b152e74a7547e839b6b03c2c15f24498b6e3a2ad959ebb626009"

TOTALS = {
    "steps": 451_854,
    "fast_path_hits": 8_948,
    "fast_path_misses": 7_931,
    "crefs_created": 10_468,
    "memo_hits": 10_580,
    "max_disjuncts": 16_878,
    "cs_calls": 217_711,
    "gen_rounds": 3_093,
    "gen_budget_hits": 0,
    "generation_invoked": 2_652,
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


def _outputs():
    """The (verdict, dump_json(witness)) row of each check, in order,
    whether each check ran witness generation, and every Stats field but
    elapsed summed over them."""
    rows, generated = [], []
    totals: Counter = Counter()
    for left, right in _checks():
        res = check_inclusion(left, right)
        rows.append((res.verdict, dump_json(res.witness, indent=None)))
        generated.append(res.stats.generation_invoked)
        stats = res.stats.as_dict()
        del stats["elapsed"]
        totals.update(stats)
    return rows, generated, dict(totals)


def test_outputs_unchanged_on_the_8054_checks():
    rows, _, totals = _outputs()
    assert len(rows) == 8054
    h = hashlib.sha256()
    for verdict, witness in rows:
        h.update(f"{verdict}\t{witness}\n".encode())
    assert h.hexdigest() == DIGEST
    assert totals == TOTALS


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


def _settles(left, right) -> bool:
    """Whether the check ends, rather than in RecursionError, on a thread
    of its own, so that the caller's frames take none of its depth."""
    def run():
        try:
            check_inclusion(left, right)
        except RecursionError:
            return False
        return True

    with ThreadPoolExecutor(1) as pool:
        return pool.submit(run).result()


def _deepest(pair, lo: int, cap: int) -> int:
    """The largest n below cap at which the check pair(n) settles, by
    bisection; pair(lo) settles, and cap - 1 means every n tried did."""
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _settles(*pair(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _limits() -> dict:
    string = {"type": "string"}
    return {
        "rec_depth": _deepest(rec_depth, 8, 1024),
        "chain_in_string": _deepest(lambda n: (alias_chain(n), string), 1, 4096),
        "string_in_chain": _deepest(lambda n: (string, alias_chain(n)), 1, 4096),
    }


_STAGE = {False: "normalization", True: "generation"}


def _diff(old: dict, new: dict) -> list[str]:
    """One line per moved row (`index: old -> new`), then one per row whose
    settling stage moved, when both files record it, then one per moved
    counter, then one per moved limit, when both files record them, then a
    summary: the moved verdicts, the moved witnesses of rows whose verdict
    stayed, how many of those got longer or shorter as JSON text, and the
    moved stages."""
    moved = [(i, a, b) for i, (a, b) in enumerate(zip(old["rows"], new["rows"])) if a != b]
    lines = [f"{i}: {' '.join(a)} -> {' '.join(b)}" for i, a, b in moved]
    if len(old["rows"]) != len(new["rows"]):
        lines.append(f"rows: {len(old['rows'])} -> {len(new['rows'])}")
    stages = None
    if "generated" in old and "generated" in new:
        stage_lines = [
            f"{i}: settled by {_STAGE[a]} -> {_STAGE[b]}"
            for i, (a, b) in enumerate(zip(old["generated"], new["generated"]))
            if a != b
        ]
        lines += stage_lines
        stages = len(stage_lines)
    for name in old["totals"]:
        a, b = old["totals"][name], new["totals"].get(name, 0)
        if a != b:
            lines.append(f"{name}: {a:,} -> {b:,} ({b - a:+,})")
    for name, a in old.get("limits", {}).items():
        b = new.get("limits", {}).get(name, a)
        if a != b:
            lines.append(f"limit {name}: {a} -> {b} ({b - a:+})")
    witnesses = [(len(a[1]), len(b[1])) for _, a, b in moved if a[0] == b[0]]
    longer = sum(b > a for a, b in witnesses)
    shorter = sum(b < a for a, b in witnesses)
    summary = (
        f"moved: {len(moved) - len(witnesses)} verdicts, {len(witnesses)} witnesses"
        f" ({longer} longer, {shorter} shorter as JSON text)"
    )
    if stages is not None:
        summary += f", {stages} stages"
    return lines + [summary]


def test_diff_lists_moved_stages_and_reads_a_dump_without_them():
    old = {"rows": [["included", "null"], ["not_included", "1"]],
           "generated": [True, True], "totals": {"steps": 5},
           "limits": {"rec_depth": 97, "string_in_chain": 325}}
    new = {"rows": [["included", "null"], ["not_included", "2"]],
           "generated": [False, True], "totals": {"steps": 4},
           "limits": {"rec_depth": 121, "string_in_chain": 325}}
    moved_row, moved_steps = "1: not_included 1 -> not_included 2", "steps: 5 -> 4 (-1)"
    moved_limit = "limit rec_depth: 97 -> 121 (+24)"
    summary = "moved: 0 verdicts, 1 witnesses (0 longer, 0 shorter as JSON text)"
    assert _diff(old, new) == [
        moved_row, "0: settled by generation -> normalization", moved_steps, moved_limit,
        summary + ", 1 stages",
    ]
    del old["generated"]
    assert _diff(old, new) == [moved_row, moved_steps, moved_limit, summary]
    del old["limits"]
    assert _diff(old, new) == [moved_row, moved_steps, summary]
    assert _diff(new, old)[-2:] == ["steps: 4 -> 5 (+1)", summary]
    # a moved verdict is not counted as a moved witness
    old["rows"][0], new["rows"][1] = ["not_included", "[]"], ["not_included", "{}"]
    new["rows"].append(["included", "null"])
    assert _diff(old, new)[-1] == "moved: 1 verdicts, 1 witnesses (1 longer, 0 shorter as JSON text)"


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description="dump or compare the pinned outputs")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="FILE", help="write the rows and counter sums as JSON")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="list what moved")
    args = parser.parse_args()
    if args.dump:
        rows, generated, totals = _outputs()
        dump = {"rows": rows, "generated": generated, "totals": totals, "limits": _limits()}
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    else:
        dumps = []
        for path in args.diff:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        print("\n".join(_diff(*dumps)))

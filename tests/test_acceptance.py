"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the -v report carries one verdict per
criterion.  Heavy runs live in module-scoped fixtures shared between
criteria: the 1000-pair oracle sweep feeds both the agreement check and
the witness-validity check.

Thresholds are part of the gate and must not be loosened: agreement and
witness validity are exact (100%), the rule-provable suite has to stay
under a 1.15 log-log step exponent, the wide-disjunction grid under
10^6 steps and 1 s at its largest point, and the recursive refutation
inside 10^4 steps.
"""

import decimal
import json
import math
import random
import time

import pytest

from jsonsub.canon import dnf_to_schema, expand_oneof_doc, stratify
from jsonsub.cli import one_to_any
from jsonsub.engine import (
    check_equivalence,
    check_inclusion,
    check_inclusion_terms,
    compile_validator,
    iter_universe,
    load_document,
    oracle_included,
    satisfies_value,
)
from jsonsub.families import self_incl
from jsonsub.model import Env
from jsonsub.norm import NormContext, dnf_of
from jsonsub.values import dump_json, parse_json

from _draft6 import Draft6, classify
from _family import gen_pair, gen_schema, universe_for
from _rules import loglog_slope, node_count, rule_suite
from conftest import DATA_DIR

FAMILY_SEED = 7041982
DOC_SEED = 5550123
ONEOF_SEED = 61803

FAMILY_PAIRS = 1000
DOC_COUNT = 500


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def family_run():
    """Verdict vs oracle for 1000 restricted-family pairs, plus witnesses."""
    rng = random.Random(FAMILY_SEED)
    disagreements = []
    witnesses = []
    included = 0
    t0 = time.monotonic()
    for i in range(FAMILY_PAIRS):
        left, right = gen_pair(rng)
        ldoc = load_document(left, "left")
        rdoc = load_document(right, "right")
        env = Env()
        env.bindings.update(ldoc.env.bindings)
        env.bindings.update(rdoc.env.bindings)

        res = check_inclusion_terms(ldoc.root, rdoc.root, env)
        oracle = oracle_included(ldoc.root, rdoc.root, env, universe_for([ldoc, rdoc]))
        if res.included == oracle.counterexample_found:
            disagreements.append((i, left, right, res.included, oracle.value))
        if res.included:
            included += 1
        else:
            witnesses.append((left, right, res.witness))
    return {
        "elapsed": time.monotonic() - t0,
        "disagreements": disagreements,
        "witnesses": witnesses,
        "included": included,
    }


SCALAR_TYPES = ("null", "boolean", "string", "array", "object")


def exclusive_oneof(rng: random.Random) -> dict:
    kind = rng.randrange(4)
    k = rng.randrange(2, 6)
    if kind == 0:
        base = rng.randrange(-5, 5)
        w = rng.choice((1, 2, 5))
        return {
            "oneOf": [
                {
                    "type": "number",
                    "minimum": base + i * w,
                    "exclusiveMaximum": base + (i + 1) * w,
                }
                for i in range(k)
            ]
        }
    if kind == 1:
        return {"oneOf": [{"type": t} for t in rng.sample(SCALAR_TYPES, min(k, 5))]}
    if kind == 2:
        vals = rng.sample([0, 1, 2.5, -3, True, False, 7, 0.1], k)
        return {"oneOf": [{"const": v} for v in vals]}
    prefixes = rng.sample(["aa", "ab", "ba", "bb"], min(k, 4))
    return {"oneOf": [{"type": "string", "pattern": f"^{p}"} for p in prefixes]}


def overlapping_oneof(rng: random.Random) -> dict:
    if rng.randrange(2) == 0:
        base = rng.randrange(-3, 3)
        return {
            "oneOf": [
                {"type": "number", "minimum": base, "maximum": base + 10},
                {"type": "number", "minimum": base + 5, "maximum": base + 15},
            ]
        }
    return {
        "oneOf": [
            {"type": "string", "pattern": "^a"},
            {"type": "string", "pattern": "a$"},
        ]
    }


@pytest.fixture(scope="module")
def overlap_run():
    """Ten overlapping-branch schemas checked in both directions."""
    rng = random.Random(ONEOF_SEED)
    rng.getrandbits(64)  # keep independent of the exclusive stream
    rows = []
    for _ in range(10):
        node = overlapping_oneof(rng)
        one_form = parse_json(json.dumps(node))
        any_form = parse_json(json.dumps(one_to_any(node)))
        fwd = check_inclusion(one_form, any_form)
        bwd = check_inclusion(any_form, one_form)
        rows.append((node, one_form, any_form, fwd, bwd))
    return rows


# ---------------------------------------------------------------------------
# 1. verdicts match an exhaustive bounded oracle


def test_c1_oracle_agreement(family_run):
    ok = (
        not family_run["disagreements"]
        and family_run["elapsed"] < 300.0
        and 0 < family_run["included"] < FAMILY_PAIRS
    )
    report(
        1,
        "oracle-agreement",
        ok,
        f"{FAMILY_PAIRS} pairs, {len(family_run['disagreements'])} disagreements,"
        f" {family_run['included']} included, {family_run['elapsed']:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. every witness convinces both validators


def _plain(value):
    return json.loads(dump_json(value), parse_float=decimal.Decimal)


def test_c2_witness_validity(family_run, overlap_run):
    pool = list(family_run["witnesses"])
    for _, one_form, any_form, _, bwd in overlap_run:
        pool.append((any_form, one_form, bwd.witness))

    invalid = 0
    for left, right, w in pool:
        internally = satisfies_value(w, left) and not satisfies_value(w, right)
        wj = _plain(w)
        # the reference reads the inputs themselves, not jsonsub's parse of them
        externally = Draft6(_plain(left)).is_valid(wj) and not Draft6(_plain(right)).is_valid(wj)
        if not (internally and externally):
            invalid += 1
    ok = invalid == 0 and len(pool) >= 100
    report(2, "witness-validity", ok, f"{len(pool)} witnesses, {invalid} invalid")


# ---------------------------------------------------------------------------
# 3. normalization preserves meaning on every universe value


def test_c3_normalization_agreement():
    rng = random.Random(DOC_SEED)
    disagreements = 0
    t0 = time.monotonic()
    for _ in range(DOC_COUNT):
        node = gen_schema(rng)
        text = json.dumps(node)
        ref = load_document(parse_json(text))
        params = universe_for([ref])

        doc = load_document(parse_json(text))
        doc = stratify(doc)
        doc = expand_oneof_doc(doc)
        rebuilt = dnf_to_schema(tuple(dnf_of(doc.root, NormContext(doc.env))))

        got = compile_validator(rebuilt, doc.env)
        want = compile_validator(ref.root, ref.env)
        for value in iter_universe(params):
            if got(value) != want(value):
                disagreements += 1
                break
    ok = disagreements == 0
    report(
        3,
        "normalization-agreement",
        ok,
        f"{DOC_COUNT} documents, {disagreements} disagreements,"
        f" {time.monotonic() - t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. rule-provable judgments settle without generation, steps near-linear


def test_c4_rule_provable_scaling():
    points = []
    failures = 0
    for name, n, v, left, right in rule_suite():
        res = check_inclusion(
            parse_json(json.dumps(left)), parse_json(json.dumps(right))
        )
        if not res.included or res.stats.generation_invoked:
            failures += 1
            continue
        points.append((node_count(left) + node_count(right), res.stats.steps))
    slope = loglog_slope(points) if points else math.inf
    ok = failures == 0 and len(points) == 200 and slope <= 1.15
    report(
        4,
        "rule-provable-scaling",
        ok,
        f"{len(points)}/200 settled without generation, step exponent {slope:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. wide self-inclusions stay far below the naive disjunct count


def test_c5_disjunction_grid():
    grid = (2, 4, 6, 8, 10)
    steps: dict[tuple[int, int], int] = {}
    ok = True
    top_steps = top_wall = None
    for n in grid:
        for m in grid:
            left, right = self_incl(n, m)
            t0 = time.monotonic()
            res = check_inclusion(
                parse_json(json.dumps(left)), parse_json(json.dumps(right))
            )
            wall = time.monotonic() - t0
            ok = ok and res.included and not res.stats.generation_invoked
            steps[(n, m)] = res.stats.steps
            if n == 10 and m == 10:
                top_steps, top_wall = res.stats.steps, wall
                ok = ok and top_steps <= 10**6 and wall < 1.0
    worst = max(steps[(n + 2, m)] / steps[(n, m)] for m in grid for n in grid[:-1])
    ok = ok and worst < 4.0
    report(
        5,
        "disjunction-grid",
        ok,
        f"all included, top cell {top_steps} steps / {top_wall * 1000:.0f} ms,"
        f" worst n+2 step ratio {worst:.2f}",
    )


# ---------------------------------------------------------------------------
# 6. exclusive choice rewrites to plain disjunction; overlap breaks one way


def test_c6_exclusive_choice_rewrite(overlap_run):
    rng = random.Random(ONEOF_SEED)
    not_equivalent = 0
    for _ in range(50):
        node = exclusive_oneof(rng)
        got = check_equivalence(
            parse_json(json.dumps(node)), parse_json(json.dumps(one_to_any(node)))
        )
        if got.relation != "equivalent":
            not_equivalent += 1

    asymmetric = 0
    for node, one_form, any_form, fwd, bwd in overlap_run:
        good = (
            fwd.included
            and not bwd.included
            and satisfies_value(bwd.witness, any_form)
            and not satisfies_value(bwd.witness, one_form)
        )
        asymmetric += good
    ok = not_equivalent == 0 and asymmetric == 10
    report(
        6,
        "exclusive-choice-rewrite",
        ok,
        f"50 exclusive all equivalent ({not_equivalent} failures),"
        f" {asymmetric}/10 overlapping break only toward exclusive choice",
    )


# ---------------------------------------------------------------------------
# 7. recursion: refutation by fixpoint, reflexivity through cycles


def test_c7_recursive_completeness():
    chain = {
        "$ref": "#/definitions/x",
        "definitions": {
            "x": {
                "type": "object",
                "properties": {"a": {"$ref": "#/definitions/x"}},
                "required": ["a"],
            }
        },
    }
    res = check_inclusion(
        parse_json(json.dumps(chain)), parse_json("false"), max_steps=10**4
    )
    refuted = res.included and res.stats.steps <= 10**4

    tree = {
        "$ref": "#/definitions/t",
        "definitions": {
            "t": {
                "anyOf": [
                    {"type": "number"},
                    {"type": "array", "items": {"$ref": "#/definitions/t"}},
                ]
            }
        },
    }
    reflexive = check_inclusion(
        parse_json(json.dumps(tree)), parse_json(json.dumps(tree))
    ).included
    ok = refuted and reflexive
    report(
        7,
        "recursive-completeness",
        ok,
        f"unsatisfiable chain certified in {res.stats.steps} steps,"
        f" reflexive cycle included={reflexive}",
    )


# ---------------------------------------------------------------------------
# 8. official-suite agreement with an explicit unsupported manifest


def test_c8_draft6_conformance():
    results, unsupported = classify()
    manifest = json.loads(
        (DATA_DIR / "draft6_unsupported.json").read_text(encoding="utf-8")
    )
    frozen = {(r["file"], r["group"]): r["error"] for r in manifest}
    found = {(r["file"], r["group"]): r["error"] for r in unsupported}
    disagreements = sum(1 for *_, ours, want in results if ours != want)
    ok = found == frozen and disagreements == 0 and len(results) > 400
    report(
        8,
        "draft6-conformance",
        ok,
        f"{len(results)} cases scored with {disagreements} disagreements,"
        f" {len(unsupported)} unsupported groups match the manifest",
    )

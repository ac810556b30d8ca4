"""Witness generation: numeric search anchors and end-to-end examples.

Numeric expectations are checked against the constraint itself (bounds,
divisibility, exclusions) rather than against a remembered constant, so
the assertions stay valid under any correct candidate ordering.
"""

import json
import math
import random
from fractions import Fraction

from jsonsub.canon import CNumber
from jsonsub.engine import check_inclusion, satisfies_value
from jsonsub.values import parse_json
from jsonsub.witness import gen_number


def exact(node):
    return parse_json(json.dumps(node))


def _respects(q, c: CNumber) -> bool:
    if q is None:
        return False
    if c.lo is not None and (q < c.lo or (q == c.lo and c.lo_strict)):
        return False
    if c.hi is not None and (q > c.hi or (q == c.hi and c.hi_strict)):
        return False
    if c.factor is not None and (q / c.factor).denominator != 1:
        return False
    return all((q / ex).denominator != 1 for ex in c.excluded)


# ---------------------------------------------------------------------------
# numeric search


def test_bounded_with_factor():
    c = CNumber(Fraction(2), False, Fraction(10), False, Fraction(3), ())
    got = gen_number(c)
    assert _respects(got, c)
    assert got in (Fraction(3), Fraction(6), Fraction(9))


def test_empty_strict_point():
    c = CNumber(Fraction(5), True, Fraction(5), True, None, ())
    assert gen_number(c) is None


def test_point_off_factor():
    c = CNumber(Fraction(1), False, Fraction(1), False, Fraction(2), ())
    assert gen_number(c) is None


def test_point_on_factor():
    c = CNumber(Fraction(3), False, Fraction(3), False, Fraction(3), ())
    assert gen_number(c) == Fraction(3)


def test_point_hits_exclusion():
    c = CNumber(Fraction(4), False, Fraction(4), False, None, (Fraction(2),))
    assert gen_number(c) is None


def test_factor_with_exclusion_in_window():
    c = CNumber(
        Fraction(1, 10), False, Fraction(2, 5), False, Fraction(1, 10), (Fraction(1, 5),)
    )
    got = gen_number(c)
    assert _respects(got, c)


def test_unbounded_non_integer():
    c = CNumber(None, False, None, False, None, (Fraction(1),))
    got = gen_number(c)
    assert _respects(got, c)


def test_narrow_interval():
    lo = Fraction(7)
    hi = lo + Fraction(1, 10**13)
    c = CNumber(lo, False, hi, False, None, ())
    got = gen_number(c)
    assert _respects(got, c)


def test_fine_grained_exclusion():
    # every decimal coarser than the exclusion is one of its multiples,
    # so the search must refine below it
    c = CNumber(None, False, None, False, None, (Fraction(1, 10**14),))
    got = gen_number(c)
    assert _respects(got, c)


def test_negative_only_window():
    c = CNumber(Fraction(-10), False, Fraction(-2), False, Fraction(3), ())
    got = gen_number(c)
    assert _respects(got, c)
    assert got < 0


BOUNDS = [Fraction(n, 10) for n in (-25, -10, -3, 0, 1, 5, 10, 15, 20, 25, 30)]
FACTORS = [None, Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
EXCLUDED = [Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(3, 2),
            Fraction(2), Fraction(3), Fraction(1, 3)]
# k*factor is a multiple of an excluded q exactly on a residue class of k;
# over these sets the classes repeat within 60 multiples, so a scan of 100
# multiples past a bound stands in for an unbounded side
REACH = 100


def _brute_force_exists(c: CNumber) -> bool:
    if c.lo is not None and c.lo == c.hi:
        return _respects(c.lo, c)
    if c.factor is None:
        # finitely many excluded factors leave gaps in every open interval
        return c.lo is None or c.hi is None or c.lo < c.hi
    first = None if c.lo is None else math.floor(c.lo / c.factor)
    last = None if c.hi is None else math.ceil(c.hi / c.factor)
    if first is None:
        first = (0 if last is None else last) - REACH
    if last is None:
        last = first + REACH
    return any(_respects(k * c.factor, c) for k in range(first, last + 1))


def test_gen_number_agrees_with_enumeration():
    rng = random.Random(20261018)
    for _ in range(3000):
        lo, hi = (None if rng.random() < 0.2 else q for q in sorted(rng.choices(BOUNDS, k=2)))
        c = CNumber(
            lo, rng.random() < 0.5, hi, rng.random() < 0.5,
            rng.choice(FACTORS),
            tuple(sorted(rng.sample(EXCLUDED, rng.randint(0, 3)))),
        )
        got = gen_number(c)
        assert (got is not None) == _brute_force_exists(c), c
        assert got is None or _respects(got, c), (c, got)


# ---------------------------------------------------------------------------
# end-to-end witnesses through the inclusion pipeline


def assert_witness(res, left, right):
    assert not res.included
    assert satisfies_value(res.witness, exact(left))
    assert not satisfies_value(res.witness, exact(right))


def test_branch_witness():
    left = {"anyOf": [{"type": "string"}, {"type": "number"}]}
    right = {"type": "string"}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)


def test_number_vs_integer_witness():
    left = {"type": "number"}
    right = {"type": "integer"}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)
    assert res.witness.denominator > 1


def test_unsat_left_is_included():
    left = {"allOf": [{"type": "string"}, {"type": "number"}]}
    res = check_inclusion(left, False)
    assert res.included
    assert res.witness is None


def test_required_chain_refuted_by_fixpoint():
    left = {
        "type": "object",
        "properties": {"next": {"$ref": "#"}},
        "required": ["next"],
    }
    res = check_inclusion(left, False)
    assert res.included
    assert res.stats.generation_invoked is True


def test_a_fixpoint_with_nothing_to_solve_takes_one_round():
    # the empty set is solved before the first round, so a round that
    # solves only sets no try waited on does not force a second one
    left = {"minLength": 0, "minProperties": 2}
    right = {"allOf": [{"items": {"minLength": 0}}, {"items": True}]}
    res = check_inclusion(left, right)
    assert res.included and res.stats.gen_rounds == 1


def test_distinct_elements_witness():
    left = {"type": "array", "uniqueItems": True, "minItems": 2}
    res = check_inclusion(left, False)
    assert_witness(res, left, False)
    a, b = res.witness[0], res.witness[1]
    assert a != b


def test_duplicate_elements_witness():
    left = {"type": "array", "minItems": 2, "maxItems": 2}
    right = {"uniqueItems": True}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)


def test_object_field_witness():
    left = {
        "type": "object",
        "properties": {"a": {"type": "number", "minimum": 3}},
        "required": ["a"],
    }
    right = {"properties": {"a": {"maximum": 1}}}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)
    assert res.witness["a"] >= 3


def test_tuple_slot_witness():
    left = {"type": "array", "items": [{"const": 1}, {"type": "string"}], "minItems": 2}
    right = {"items": [True, {"pattern": "^zz"}]}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)


def test_contains_witness():
    left = {"type": "array", "contains": {"type": "number"}, "minItems": 1}
    right = {"items": {"type": "string"}}
    res = check_inclusion(left, right)
    assert_witness(res, left, right)

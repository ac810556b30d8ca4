"""Checks of the benchmark's own code.

    python3 -m pytest perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import json  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import pytest  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
from jsonsub import engine  # noqa: E402
from jsonsub.families import self_incl  # noqa: E402
from jsonsub.values import parse_json  # noqa: E402
from pairs import draw_pairs  # noqa: E402
from worker import tail_percentile  # noqa: E402
from workloads import OracleMix, SelfIncl, salt_keys  # noqa: E402


def parsed(node):
    return parse_json(json.dumps(node))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_salting_leaves_self_incl_work_unchanged(n):
    left, right = self_incl(n, n)
    plain = engine.check_inclusion(parsed(left), parsed(right))
    salted = engine.check_inclusion(
        parsed(salt_keys(left, "qzx")), parsed(salt_keys(right, "qzx"))
    )
    assert salted.verdict == plain.verdict == "included"
    assert salted.stats.steps == plain.stats.steps


def test_self_incl_checks_share_no_key_names():
    workload = SelfIncl(3)
    seen = set()
    for case in workload.round(0) + workload.round(1):
        names = {k for branch in case.left["anyOf"] for k in branch["properties"]}
        assert names and not names & seen
        seen |= names


def test_pairs_follow_the_seed():
    assert draw_pairs(5, 30) == draw_pairs(5, 30)
    assert draw_pairs(5, 30) != draw_pairs(6, 30)


@pytest.mark.parametrize(
    "n, want",
    [(9, (100.0, 0)), (20, (50.0, 10)), (45, (75.0, 11)), (100, (90.0, 10)),
     (1000, (99.0, 10)), (10000, (99.9, 10))],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, want):
    assert tail_percentile(n) == want


def test_calibration_reading_is_the_geometric_mean_of_the_nearby_loops():
    cals = [(2.0, 8.0)] * 5 + [(2.0, 80.0)]  # one slow memory pass is outvoted
    assert speed.reading(cals, 2) == pytest.approx(4.0)
    assert speed.scale(10.0, speed.REF_MS) == 10.0


def test_calibration_leaves_the_garbage_collector_as_it_was():
    import gc

    speed.calibrate()
    assert gc.isenabled()
    gc.disable()
    try:
        speed.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _wrapped_attributes():
    names = [(m, a) for m, a, _ in tracing.SPANS] + [(engine, "iter_universe")]
    return {(m.__name__, a): getattr(m, a) for m, a in names}


def test_tracer_restores_every_attribute_even_on_error():
    before = _wrapped_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert engine.satisfies is not before[("jsonsub.engine", "satisfies")]
            1 / 0
    assert _wrapped_attributes() == before


def test_tracer_spans_only_the_outermost_evaluator_call():
    doc = engine.load_document(
        parsed({"allOf": [{"not": {"type": "string"}}, {"anyOf": [{"minimum": 1}]}]})
    )
    with tracing.Tracer() as tracer:
        assert engine.satisfies(Fraction(2), doc.root, doc.env)
    assert tracer.calls["engine.eval"] == 1
    assert tracer.secs["engine.crosscheck"] == tracer.secs["engine.eval"] > 0
    assert tracer.self_secs["engine"] == tracer.secs["engine.eval"]


def _says_included(*args, **kwargs):
    return SimpleNamespace(included=True, witness=None)


def _crashes(*args, **kwargs):
    raise AssertionError("internal error")


@pytest.mark.parametrize(
    "checker, defect",
    [(_says_included, "checker says included"), (_crashes, "checker raised AssertionError")],
)
def test_a_checker_fault_is_a_checker_defect_not_an_oracle_failure(monkeypatch, checker, defect):
    workload = OracleMix(3)
    case, out = next(
        (c, o) for c, o in ((c, workload.run(c)) for c in workload.pool) if not o.included
    )
    monkeypatch.setattr(engine, "check_inclusion", checker)
    assert workload.verify(case, out) is None
    defects, crosschecked = workload.checker_defects()
    assert crosschecked == 1
    assert defects == [defects[0]] and defects[0].startswith(f"{case.label}: {defect}")

"""Command-line surface: exit codes, report formats, file side effects.

Everything runs in-process through main(argv) so coverage and error
paths stay observable; the JSON report is additionally checked against
the shipped report schema with an independent validator.
"""

import csv
import io
import json
from pathlib import Path

import jsonschema
import pytest

from jsonsub.cli import main, one_to_any
from jsonsub.engine import check_equivalence, check_inclusion, satisfies_value
from jsonsub.values import parse_json

REPORT_SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/jsonsub/data/report.schema.json")
    .read_text(encoding="utf-8")
)


def put(tmp_path: Path, name: str, node) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(node), encoding="utf-8")
    return str(p)


@pytest.fixture
def pair_files(tmp_path):
    left = put(tmp_path, "left.json", {"type": "integer"})
    right = put(tmp_path, "right.json", {"type": "number"})
    return left, right


# ---------------------------------------------------------------------------
# check


def test_check_included_exit_zero(pair_files, capsys):
    left, right = pair_files
    assert main(["check", left, right]) == 0
    assert capsys.readouterr().out.strip() == "included"


def test_check_witness_file(tmp_path, capsys):
    left = put(tmp_path, "l.json", {"type": "number"})
    right = put(tmp_path, "r.json", {"type": "integer"})
    out = tmp_path / "witness.json"
    assert main(["check", left, right, "--witness-out", str(out)]) == 1
    witness = parse_json(out.read_text(encoding="utf-8"))
    assert satisfies_value(witness, parse_json('{"type": "number"}'))
    assert not satisfies_value(witness, parse_json('{"type": "integer"}'))


def test_check_json_format(pair_files, capsys):
    left, right = pair_files
    assert main(["check", left, right, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "included"
    assert payload["witness"] is None
    assert payload["stats"]["generation_invoked"] is False
    assert payload["stats"]["steps"] > 0


def test_check_stats_flag(pair_files, capsys):
    left, right = pair_files
    assert main(["check", left, right, "--stats"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "included"
    assert "fast_path_hits" in json.loads(lines[1])


def test_check_budget_exit_code(tmp_path, capsys):
    left = put(tmp_path, "l.json", {"anyOf": [{"minimum": i} for i in range(8)]})
    right = put(tmp_path, "r.json", {"type": "string"})
    assert main(["check", left, right, "--steps", "3"]) == 3
    assert "budget" in capsys.readouterr().err


def test_check_malformed_exit_code(tmp_path, capsys):
    left = put(tmp_path, "l.json", {"$ref": "#"})
    right = put(tmp_path, "r.json", True)
    assert main(["check", left, right]) == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    right = put(tmp_path, "r.json", True)
    assert main(["check", str(tmp_path / "absent.json"), right]) == 2


# ---------------------------------------------------------------------------
# equiv


def test_equiv_equivalent(tmp_path, capsys):
    left = put(tmp_path, "l.json", {"type": "integer"})
    right = put(tmp_path, "r.json", {"type": "number", "multipleOf": 1})
    assert main(["equiv", left, right]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_equiv_witnesses(tmp_path, capsys):
    left = put(tmp_path, "l.json", {"type": "integer"})
    right = put(tmp_path, "r.json", {"type": "string"})
    out = tmp_path / "w.json"
    assert main(["equiv", left, right, "--witness-out", str(out)]) == 1
    assert capsys.readouterr().out.strip() == "incomparable"
    wit = json.loads(out.read_text(encoding="utf-8"))
    assert set(wit) == {"left_not_in_right", "right_not_in_left"}


# ---------------------------------------------------------------------------
# validate


def test_validate_roundtrip(tmp_path, capsys):
    value = put(tmp_path, "v.json", [1, 2, 3])
    schema = put(tmp_path, "s.json", {"type": "array", "items": {"type": "number"}})
    assert main(["validate", value, schema]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    bad = put(tmp_path, "b.json", [1, "x"])
    assert main(["validate", bad, schema]) == 1
    assert capsys.readouterr().out.strip() == "invalid"


# ---------------------------------------------------------------------------
# batch


def make_manifest(tmp_path: Path) -> Path:
    put(tmp_path, "int.json", {"type": "integer"})
    put(tmp_path, "num.json", {"type": "number"})
    put(tmp_path, "str.json", {"type": "string"})
    manifest = tmp_path / "runs.csv"
    manifest.write_text(
        "left,right,expected\n"
        "int.json,num.json,included\n"
        "num.json,int.json,not_included\n"
        "str.json,str.json,included\n",
        encoding="utf-8",
    )
    return manifest


def test_batch_text_report(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    assert main(["batch", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "total 3, errors 0" in out
    assert "agreement 1.000 over 3 scored rows" in out


def test_batch_json_report_validates(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    assert main(["batch", str(manifest), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.Draft6Validator(REPORT_SCHEMA).validate(report)
    assert report["summary"]["total"] == 3
    assert report["summary"]["confusion"]["agreement"] == 1.0
    cells = report["summary"]["confusion"]["cells"]
    assert cells == {"included->included": 2, "not_included->not_included": 1}


def test_batch_csv_report(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    assert main(["batch", str(manifest), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    for row in rows:
        assert row["verdict"] in ("included", "not_included")
        assert row["generation_invoked"] in ("true", "false")
        assert row["error"] == ""


def test_batch_parallel_matches_serial(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    assert main(["batch", str(manifest), "--format", "json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(["batch", str(manifest), "--format", "json", "--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    strip = lambda rows: [
        {k: r[k] for k in ("left", "right", "verdict", "error")} for r in rows
    ]
    assert strip(serial["rows"]) == strip(parallel["rows"])


def test_batch_error_stops_by_default(tmp_path, capsys):
    put(tmp_path, "int.json", {"type": "integer"})
    manifest = tmp_path / "runs.csv"
    manifest.write_text("left,right\nint.json,gone.json\n", encoding="utf-8")
    assert main(["batch", str(manifest)]) == 2
    assert "gone.json" in capsys.readouterr().err


def test_batch_keep_going_records_error(tmp_path, capsys):
    put(tmp_path, "int.json", {"type": "integer"})
    put(tmp_path, "num.json", {"type": "number"})
    manifest = tmp_path / "runs.csv"
    manifest.write_text(
        "left,right\nint.json,num.json\nint.json,gone.json\n", encoding="utf-8"
    )
    assert main(["batch", str(manifest), "--keep-going", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.Draft6Validator(REPORT_SCHEMA).validate(report)
    assert report["summary"] == {"total": 2, "errors": 1}
    errs = [r for r in report["rows"] if r["error"]]
    assert len(errs) == 1 and errs[0]["verdict"] == "error"


def raise_internal(*args, **kwargs):
    raise AssertionError("injected fault")


def test_check_internal_error_exit_code(pair_files, capsys, monkeypatch):
    monkeypatch.setattr("jsonsub.cli.check_inclusion", raise_internal)
    left, right = pair_files
    assert main(["check", left, right]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: injected fault\n"


def test_batch_keep_going_records_internal_error(tmp_path, capsys, monkeypatch):
    manifest = make_manifest(tmp_path)
    real = check_inclusion

    def faulty(left, right, **kwargs):
        if left == {"type": "number"}:
            raise_internal()
        return real(left, right, **kwargs)

    monkeypatch.setattr("jsonsub.cli.check_inclusion", faulty)
    assert main(["batch", str(manifest), "--keep-going", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.Draft6Validator(REPORT_SCHEMA).validate(report)
    assert report["summary"]["errors"] == 1
    verdicts = [(Path(r["left"]).name, r["verdict"], r["error"]) for r in report["rows"]]
    assert verdicts == [
        ("int.json", "included", None),
        ("num.json", "error", "internal error: AssertionError: injected fault"),
        ("str.json", "included", None),
    ]


def test_batch_stops_with_the_budget_exit_code(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    assert main(["batch", str(manifest), "--steps", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "int.json" in err and "BudgetExceeded" in err


def test_batch_stops_with_the_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    manifest = make_manifest(tmp_path)
    real = check_inclusion

    def faulty(left, right, **kwargs):
        if left == {"type": "number"}:
            raise_internal()
        return real(left, right, **kwargs)

    monkeypatch.setattr("jsonsub.cli.check_inclusion", faulty)
    assert main(["batch", str(manifest)]) == 4
    err = capsys.readouterr().err
    assert "num.json" in err and "internal error: AssertionError: injected fault" in err


def test_batch_out_file(tmp_path):
    manifest = make_manifest(tmp_path)
    out = tmp_path / "report.json"
    assert main(["batch", str(manifest), "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["summary"]["errors"] == 0


# ---------------------------------------------------------------------------
# transform


def test_one_to_any_rewrites_everywhere():
    node = {
        "oneOf": [{"type": "string"}, {"type": "number"}],
        "properties": {"a": {"oneOf": [{"const": 1}, {"const": 2}]}},
        "items": [{"oneOf": [True, False]}],
        "not": {"oneOf": [{"type": "null"}]},
        "definitions": {"d": {"contains": {"oneOf": [{"minimum": 1}]}}},
        "enum": [{"oneOf": "payload, not a schema"}],
    }
    got = one_to_any(node)
    assert "oneOf" not in got
    assert got["anyOf"] == [{"type": "string"}, {"type": "number"}]
    assert got["properties"]["a"]["anyOf"] == [{"const": 1}, {"const": 2}]
    assert got["items"][0]["anyOf"] == [True, False]
    assert got["not"]["anyOf"] == [{"type": "null"}]
    assert got["definitions"]["d"]["contains"]["anyOf"] == [{"minimum": 1}]
    # raw payloads pass through untouched
    assert got["enum"] == [{"oneOf": "payload, not a schema"}]


def test_one_to_any_keeps_existing_anyof():
    node = {
        "anyOf": [{"type": "string"}],
        "oneOf": [{"type": "number"}, {"type": "null"}],
    }
    got = one_to_any(node)
    assert got["anyOf"] == [{"type": "string"}]
    assert {"anyOf": [{"type": "number"}, {"type": "null"}]} in got["allOf"]


def test_transform_command_preserves_meaning(tmp_path):
    node = {
        "type": ["string", "number", "null"],
        "oneOf": [{"type": "string"}, {"type": "number", "minimum": 1}, {"type": "null"}],
    }
    src = put(tmp_path, "in.json", node)
    dst = tmp_path / "out.json"
    assert main(["transform", "one-to-any", src, str(dst)]) == 0
    rewritten = parse_json(dst.read_text(encoding="utf-8"))
    # disjoint branches: the rewrite is an equivalence here
    got = check_equivalence(parse_json(json.dumps(node)), rewritten)
    assert got.relation == "equivalent"


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["synth", "selfIncl", "3", "2", "--out-dir", str(d1)]) == 0
    capsys.readouterr()
    assert main(["synth", "selfIncl", "3", "2", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    l1 = (d1 / "selfIncl_n3_m2_left.json").read_bytes()
    l2 = (d2 / "selfIncl_n3_m2_left.json").read_bytes()
    assert l1 == l2


def test_synth_manifest_accumulates_and_runs(tmp_path, capsys):
    out = tmp_path / "bench"
    for spec in (["synth", "oneofFan", "4", "--out-dir", str(out)],
                 ["synth", "recDepth", "2", "--out-dir", str(out)]):
        assert main(spec) == 0
        capsys.readouterr()
    manifest = out / "manifest.csv"
    rows = list(csv.reader(manifest.open(encoding="utf-8")))
    assert rows[0] == ["left", "right", "expected"]
    assert len(rows) == 3
    assert main(["batch", str(manifest), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["errors"] == 0
    assert report["summary"]["confusion"]["agreement"] == 1.0


def test_unknown_family_rejected():
    with pytest.raises(SystemExit):
        main(["synth", "nosuch", "3", "--out-dir", "/tmp/x"])

"""Command-line front end.

Verbs: `check` and `equiv` decide inclusion/equivalence between two
schema files, `validate` tests a JSON value against a schema, `batch`
runs a CSV manifest of pairs (optionally in parallel) and emits a
machine-readable report, `transform one-to-any` rewrites every oneOf
into anyOf, and `synth` writes deterministic benchmark pairs.

Exit codes for single checks: 0 included (or equivalent / valid),
1 not included, 2 input or unsupported-feature error, 3 budget
exceeded, 4 internal error.  Errors are single lines on stderr.  A
`batch` run without --keep-going exits with the code of its first
failing row.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import os
import sys
from typing import Any, Optional

from .engine import check_equivalence, check_inclusion, satisfies_value
from .errors import BudgetExceeded, JsonSubError
from .families import FAMILIES, make_pair
from .norm import DEFAULT_MAX_STEPS, DEFAULT_TIMEOUT, Stats
from .values import dump_json, parse_json

# report columns ahead of the Stats fields, which every row carries
REPORT_FIELDS = ("left", "right", "verdict", "error")


def _read_value(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read())


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ---------------------------------------------------------------------------
# check / equiv / validate


def cmd_check(args: argparse.Namespace) -> int:
    result = check_inclusion(
        _read_value(args.left),
        _read_value(args.right),
        max_steps=args.steps,
        timeout=args.timeout,
    )
    # null is a witness too, so the verdict says whether there is one
    if args.witness_out and not result.included:
        _write_text(args.witness_out, dump_json(result.witness, indent=2))
    if args.format == "json":
        payload = {
            "verdict": result.verdict,
            "witness": result.witness,
            "stats": result.stats.as_dict(),
        }
        print(dump_json(payload, indent=None))
    else:
        print(result.verdict)
        if args.stats:
            print(json.dumps(result.stats.as_dict(), sort_keys=True))
    return 0 if result.included else 1


def cmd_equiv(args: argparse.Namespace) -> int:
    result = check_equivalence(
        _read_value(args.left),
        _read_value(args.right),
        max_steps=args.steps,
        timeout=args.timeout,
    )
    witnesses = {}
    if not result.forward.included:
        witnesses["left_not_in_right"] = result.forward.witness
    if not result.backward.included:
        witnesses["right_not_in_left"] = result.backward.witness
    if args.witness_out and witnesses:
        _write_text(args.witness_out, dump_json(witnesses, indent=2))
    if args.format == "json":
        payload = {
            "relation": result.relation,
            "witnesses": witnesses,
            "stats": {
                "forward": result.forward.stats.as_dict(),
                "backward": result.backward.stats.as_dict(),
            },
        }
        print(dump_json(payload, indent=None))
    else:
        print(result.relation)
        if args.stats:
            print(json.dumps(result.forward.stats.as_dict(), sort_keys=True))
            print(json.dumps(result.backward.stats.as_dict(), sort_keys=True))
    return 0 if result.relation == "equivalent" else 1


def cmd_validate(args: argparse.Namespace) -> int:
    ok = satisfies_value(_read_value(args.value), _read_value(args.schema))
    print("valid" if ok else "invalid")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# batch


def _batch_row(task: tuple) -> tuple[int, dict]:
    """The report row of one manifest pair, with the exit code `check`
    would give for it when it fails (0 otherwise)."""
    left, right, expected, max_steps, timeout = task
    row = {
        "left": left,
        "right": right,
        "verdict": "error",
        "error": None,
        **Stats().as_dict(),
    }
    if expected:
        row["expected"] = expected
    try:
        result = check_inclusion(
            _read_value(left),
            _read_value(right),
            max_steps=max_steps,
            timeout=timeout,
        )
    except Exception as exc:
        code = _exit_code(exc)
        if isinstance(exc, BudgetExceeded):
            row.update(exc.stats.as_dict())
        row["error"] = _internal_error(exc) if code == 4 else f"{type(exc).__name__}: {exc}"
        return code, row
    row["verdict"] = result.verdict
    row.update(result.stats.as_dict())
    return 0, row


def _load_manifest(path: str) -> list[tuple[str, str, str]]:
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        p = p.strip()
        return p if os.path.isabs(p) else os.path.join(base, p)

    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for record in csv.reader(fh):
            if not record or not record[0].strip():
                continue
            if record[0].strip().lower() == "left":
                continue  # header
            if len(record) < 2:
                raise ValueError(f"manifest row needs left,right: {record!r}")
            expected = record[2].strip() if len(record) > 2 else ""
            rows.append((resolve(record[0]), resolve(record[1]), expected))
    return rows


def _confusion(rows: list[dict]) -> Optional[dict]:
    scored = [r for r in rows if r.get("expected") and r["error"] is None]
    if not scored:
        return None
    cells: dict[str, int] = {}
    agree = 0
    for r in scored:
        key = f"{r['expected']}->{r['verdict']}"
        cells[key] = cells.get(key, 0) + 1
        if r["expected"] == r["verdict"]:
            agree += 1
    return {
        "scored": len(scored),
        "agreement": agree / len(scored),
        "cells": cells,
    }


def _report_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    fields = [*REPORT_FIELDS, *(f.name for f in dataclasses.fields(Stats)), "expected"]
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for r in rows:
        flat = {k: ("true" if v else "false") if isinstance(v, bool) else v for k, v in r.items()}
        flat.setdefault("expected", "")
        if flat["error"] is None:
            flat["error"] = ""
        writer.writerow(flat)
    return buf.getvalue()


def _report_json(rows: list[dict], summary: dict) -> str:
    return json.dumps({"rows": rows, "summary": summary}, indent=2, sort_keys=True)


def cmd_batch(args: argparse.Namespace) -> int:
    tasks = [
        (left, right, expected, args.steps, args.timeout)
        for left, right, expected in _load_manifest(args.manifest)
    ]
    if args.jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_row, tasks))
    else:
        results = [_batch_row(t) for t in tasks]
    rows = [row for _, row in results]

    errors = [(code, row) for code, row in results if code]
    if errors and not args.keep_going:
        code, first = errors[0]
        print(f"error: {first['left']} vs {first['right']}: {first['error']}",
              file=sys.stderr)
        return code

    summary = {"total": len(rows), "errors": len(errors)}
    confusion = _confusion(rows)
    if confusion is not None:
        summary["confusion"] = confusion

    if args.format == "json":
        text = _report_json(rows, summary)
    elif args.format == "csv":
        text = _report_csv(rows)
    else:
        lines = []
        for r in rows:
            note = f" [{r['error']}]" if r["error"] else ""
            lines.append(
                f"{r['left']} vs {r['right']}: {r['verdict']}"
                f" ({r['elapsed'] * 1000:.3f} ms, {r['steps']} steps)" + note
            )
        lines.append(f"total {summary['total']}, errors {summary['errors']}")
        if confusion is not None:
            lines.append(
                f"agreement {confusion['agreement']:.3f}"
                f" over {confusion['scored']} scored rows"
            )
        text = "\n".join(lines)

    if args.out:
        _write_text(args.out, text)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# transform


_SCHEMA_MAP_KEYS = frozenset({"properties", "patternProperties", "definitions"})
_SCHEMA_LIST_KEYS = frozenset({"allOf", "anyOf", "oneOf"})
_SCHEMA_VALUE_KEYS = frozenset(
    {"not", "contains", "additionalProperties", "additionalItems"}
)


def one_to_any(node: Any) -> Any:
    """Rewrite every oneOf keyword in schema position into anyOf.

    Total on any JSON value: unknown keys and raw payloads (enum, const,
    defaults) pass through untouched.  If a schema already carries an
    anyOf, the rewritten list is attached through allOf instead of
    clobbering it.
    """
    if not isinstance(node, dict):
        return node
    out: dict = {}
    for key, val in node.items():
        if key == "oneOf":
            continue  # handled after the loop so ordering cannot clobber
        if key in _SCHEMA_MAP_KEYS and isinstance(val, dict):
            out[key] = {k: one_to_any(v) for k, v in val.items()}
        elif key in _SCHEMA_LIST_KEYS and isinstance(val, list):
            out[key] = [one_to_any(v) for v in val]
        elif key in _SCHEMA_VALUE_KEYS and isinstance(val, dict):
            out[key] = one_to_any(val)
        elif key == "items":
            if isinstance(val, list):
                out[key] = [one_to_any(v) for v in val]
            elif isinstance(val, dict):
                out[key] = one_to_any(val)
            else:
                out[key] = val
        else:
            out[key] = val
    if "oneOf" in node:
        branches = node["oneOf"]
        rewritten = (
            [one_to_any(v) for v in branches]
            if isinstance(branches, list)
            else branches
        )
        if "anyOf" in out:
            out.setdefault("allOf", [])
            out["allOf"] = list(out["allOf"]) + [{"anyOf": rewritten}]
        else:
            out["anyOf"] = rewritten
    return out


def cmd_transform(args: argparse.Namespace) -> int:
    node = _read_value(args.input)
    _write_text(args.output, dump_json(one_to_any(node), indent=2))
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    n = args.n
    m = args.m if args.m is not None else n
    left, right = make_pair(args.family, n, m)
    os.makedirs(args.out_dir, exist_ok=True)

    stem = f"{args.family}_n{n}"
    if args.family == "selfIncl":
        stem += f"_m{m}"
    left_name = f"{stem}_left.json"
    right_name = f"{stem}_right.json"
    _write_text(os.path.join(args.out_dir, left_name), dump_json(left, indent=2))
    _write_text(os.path.join(args.out_dir, right_name), dump_json(right, indent=2))

    manifest = os.path.join(args.out_dir, "manifest.csv")
    fresh = not os.path.exists(manifest)
    with open(manifest, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["left", "right", "expected"])
        writer.writerow([left_name, right_name, "included"])
    print(os.path.join(args.out_dir, left_name))
    print(os.path.join(args.out_dir, right_name))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--steps", type=int, default=DEFAULT_MAX_STEPS,
                     help="normalization step budget")
    sub.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                     help="wall clock budget in seconds")


def _add_pair_command(subs, name: str, help: str, run) -> None:
    p = subs.add_parser(name, help=help)
    p.add_argument("left")
    p.add_argument("right")
    _add_budget_flags(p)
    p.add_argument("--witness-out", help="write the counterexample here")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsonsub", description="JSON Schema inclusion checker"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_pair_command(subs, "check", "decide left <: right", cmd_check)
    _add_pair_command(subs, "equiv", "decide mutual inclusion", cmd_equiv)

    p = subs.add_parser("validate", help="test a JSON value against a schema")
    p.add_argument("value")
    p.add_argument("schema")
    p.set_defaults(run=cmd_validate)

    p = subs.add_parser("batch", help="run a CSV manifest of pairs")
    p.add_argument("manifest")
    _add_budget_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--keep-going", action="store_true",
                   help="record per-row errors instead of aborting")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(run=cmd_batch)

    p = subs.add_parser("transform", help="schema-to-schema rewrites")
    p.add_argument("kind", choices=("one-to-any",))
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(run=cmd_transform)

    p = subs.add_parser("synth", help="write a deterministic benchmark pair")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        code = _exit_code(exc)
        print(_internal_error(exc) if code == 4 else f"error: {exc}", file=sys.stderr)
        return code


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, BudgetExceeded):
        return 3
    if isinstance(exc, (JsonSubError, OSError, ValueError)):
        return 2
    return 4  # a fault of the checker itself, never a verdict


def _internal_error(exc: Exception) -> str:
    return f"internal error: {type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())

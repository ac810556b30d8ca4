"""Vendored Draft-06 suite runner: classify groups, compare verdicts.

A group is one schema plus its labeled test cases.  Groups whose schema
the loader rejects are recorded with the rejection class; every other
group's schema is compiled once with `compile_validator` and scored case
by case.  Running this module prints the unsupported-group manifest as
JSON.

`suite` gives the loadable schemas with jsonschema's Draft-06 validator
as the reference. That side reads numbers as Decimals: with plain floats
it gets multipleOf wrong (2**53 against 1.5, 300.0001 against 0.0001).
Its `integer` type then has to accept integral Decimals, which JSON
Schema counts as integers (0.0 is one).
"""

import json
from decimal import Decimal
from pathlib import Path

import jsonschema

from jsonsub.engine import compile_validator, load_document
from jsonsub.errors import JsonSubError
from jsonsub.values import parse_json

SUITE_DIR = Path(__file__).resolve().parent / "data" / "draft6"


def iter_groups():
    for path in sorted(SUITE_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        for group in json.loads(text):
            yield path.name, group


_TYPES = jsonschema.Draft6Validator.TYPE_CHECKER.redefine(
    "integer",
    lambda checker, v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, Decimal) and v == v.to_integral_value()),
)
Draft6 = jsonschema.validators.extend(jsonschema.Draft6Validator, type_checker=_TYPES)


def suite():
    """(schemas, instances): every loadable schema as (exact value,
    reference validator), and every instance of every group."""
    schemas, instances = [], []
    for path in sorted(SUITE_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        for exact, plain in zip(parse_json(text), json.loads(text, parse_float=Decimal)):
            instances.extend(case["data"] for case in plain["tests"])
            try:
                load_document(exact["schema"])
            except JsonSubError:
                continue
            schemas.append((exact["schema"], Draft6(plain["schema"])))
    return schemas, instances


def classify():
    """Split the suite into supported scored cases and unsupported groups.

    Returns (results, unsupported) where results is a list of
    (file, group, case description, ours, expected) for every case of
    every supported group, and unsupported maps are rows
    {file, group, error} naming the loader rejection.
    """
    results = []
    unsupported = []
    for fname, group in iter_groups():
        schema = parse_json(json.dumps(group["schema"]))
        try:
            doc = load_document(schema)
        except JsonSubError as exc:
            unsupported.append(
                {"file": fname, "group": group["description"],
                 "error": type(exc).__name__}
            )
            continue
        holds = compile_validator(doc.root, doc.env)
        for case in group["tests"]:
            value = parse_json(json.dumps(case["data"]))
            ours = holds(value)
            results.append(
                (fname, group["description"], case["description"],
                 ours, case["valid"])
            )
    return results, unsupported


if __name__ == "__main__":
    _, unsupported = classify()
    print(json.dumps(unsupported, indent=2, sort_keys=True))

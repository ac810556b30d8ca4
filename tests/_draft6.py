"""Vendored Draft-06 suite runner: classify groups, compare verdicts.

A group is one schema plus its labeled test cases.  Groups whose schema
the loader rejects are recorded with the rejection class; every other
group's schema is compiled once with `compile_validator` and scored case
by case.  Running this module prints the unsupported-group manifest as
JSON.

`Draft6` is the one reference validator of the tests: jsonschema's
Draft-06 validator, with two corrections.

- It is meant to read numbers as Decimals: with plain floats it gets
  multipleOf wrong (2**53 against 1.5, 300.0001 against 0.0001). Its
  `integer` type then has to accept integral Decimals, which JSON Schema
  counts as integers (0.0 is one).
- Its regexes read `$` as ECMA-262 does, at the end of the input only.
  Python's `re.search` also matches `$` before a final newline, so every
  end anchor in a `pattern` value or a `patternProperties` key is written
  as `\\Z` first. `additionalProperties` reads the rewritten keys.

`suite` gives the loadable schemas with `Draft6` as the reference.
"""

import json
import re
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
_DECIMAL_DRAFT6 = jsonschema.validators.extend(jsonschema.Draft6Validator, type_checker=_TYPES)

# an escaped character, a whole character class, or an end anchor
_REGEX_TOKEN = re.compile(r"\\.|\[(?:\\.|[^\]\\])*\]|\$", re.S)

# the keywords whose value is a schema, a list of schemas or a map to schemas
_SUBSCHEMA = frozenset("additionalItems additionalProperties contains items not propertyNames".split())
_SUBSCHEMA_LIST = frozenset("items allOf anyOf oneOf".split())
_SUBSCHEMA_MAP = frozenset("properties patternProperties definitions dependencies".split())


def _ecma_anchors(regex: str) -> str:
    """regex with each end anchor `$` outside a character class as `\\Z`."""
    return _REGEX_TOKEN.sub(lambda m: r"\Z" if m[0] == "$" else m[0], regex)


def _ecma_schema(node):
    """node with `_ecma_anchors` applied to every regex in a schema position."""
    if not isinstance(node, dict):
        return node
    out = {}
    for kw, sub in node.items():
        if kw == "pattern" and isinstance(sub, str):
            sub = _ecma_anchors(sub)
        elif kw in _SUBSCHEMA_LIST and isinstance(sub, list):
            sub = [_ecma_schema(s) for s in sub]
        elif kw in _SUBSCHEMA_MAP and isinstance(sub, dict):
            rekey = _ecma_anchors if kw == "patternProperties" else str
            sub = {rekey(k): _ecma_schema(s) for k, s in sub.items()}
        elif kw in _SUBSCHEMA:
            sub = _ecma_schema(sub)
        out[kw] = sub
    return out


def Draft6(schema):
    """The reference validator for a schema value whose numbers are Decimals."""
    return _DECIMAL_DRAFT6(_ecma_schema(schema))


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
